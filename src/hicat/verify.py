"""Exhaustive desk-scale verification of the equivalence statements.

Each verifier compares two finite models object by object, hom pair by
hom pair, extension pair by extension pair, and exangle by exangle, and
reports counters plus the first counterexample on failure.  The sanity
verifier aggregates the structural properties every model must satisfy:
identities, the unit law, associativity of composition, the complex
condition and hom-exactness of every realized exangle, and the shift
compatibilities.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from itertools import product
from math import comb
from typing import Any

from .exangles import Exangle, hom_exactness_report, is_complex, realize
from .models import (
    CLUSTER,
    DERIVED,
    BasisMorphism,
    CategoryModel,
    almost_positive_model,
    cluster_model,
    derived_model,
    module_model,
    relative_f_model,
)
from .quotients import (
    IdealSpec,
    QuotientModel,
    factors_through,
    injproj_ideal,
    projinj_ideal,
    quotient,
)
from .tuples import (
    IndexTuple,
    normalize_cyclic,
    shift_cluster,
    shift_derived,
)

DEFAULT_GRID = (3, 4, 200)
GRID_ENV_VAR = "HICAT_GRID"

#: The theorem names that run_point and run_theorem accept.
THEOREMS = ("equiv", "f-exangles", "main2", "sanity", "correspondence")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification run at a fixed grid point."""
    theorem: str
    d: int
    n: int
    ok: bool
    counters: dict[str, int]
    counterexample: Any | None
    elapsed: float

    def summary(self) -> str:
        status = "pass" if self.ok else "FAIL"
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        line = f"{self.theorem} (d={self.d}, n={self.n}): {status} [{counts}] {self.elapsed:.2f}s"
        if not self.ok:
            line += f" counterexample={self.counterexample}"
        return line


def parse_grid(text: str) -> tuple[int, int, int]:
    """Parse a DMAX:NMAX:OBJMAX grid bound."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be DMAX:NMAX:OBJMAX, got {text!r}")
    dmax, nmax, objmax = (int(p) for p in parts)
    if dmax < 1 or nmax < 1 or objmax < 1:
        raise ValueError(f"grid bounds must be positive, got {text!r}")
    return dmax, nmax, objmax


def default_grid() -> tuple[int, int, int]:
    """The built-in grid, overridable through the HICAT_GRID variable."""
    env = os.environ.get(GRID_ENV_VAR)
    return parse_grid(env) if env else DEFAULT_GRID


def grid_points(dmax: int, nmax: int, objmax: int) -> tuple[tuple[int, int], ...]:
    """Grid points (d, n) whose largest model stays within the object bound."""
    points = []
    for d in range(1, dmax + 1):
        for n in range(1, nmax + 1):
            if comb(n + d + 1, d + 1) <= objmax:
                points.append((d, n))
    return tuple(points)


def compare_exangles(left: Exangle, right: Exangle) -> str | None:
    """Termwise comparison; returns a description of the first mismatch or None.

    Middle terms are compared as label tuples and differentials entrywise.
    Both construction paths fix the same summand order and sign gauge, so
    exact matrix equality is the expected outcome.
    """
    if (left.x0, left.xlast) != (right.x0, right.xlast):
        return f"ends differ: {(left.x0, left.xlast)} vs {(right.x0, right.xlast)}"
    if left.middles != right.middles:
        return f"middle terms differ: {left.middles} vs {right.middles}"
    for pos, (dl, dr) in enumerate(zip(left.differentials, right.differentials)):
        if dl.entries != dr.entries:
            return f"differential {pos} differs: {dl.entries} vs {dr.entries}"
    return None


def compare_to_model(theorem: str, d: int, n: int, q: QuotientModel,
                     ap: CategoryModel) -> VerificationReport:
    """A quotient model against a target model, under the identity on labels.

    Checks that the nonzero objects of the quotient are the objects of the
    target, that the hom and ext tables agree, and that the realized
    exangles agree termwise once the quotient has deleted its zero-object
    middle summands.
    """
    start = time.perf_counter()
    counters: dict[str, int] = {"objects": len(ap.objects)}
    counterexample = None

    ok = q.nonzero_objects == ap.objects
    if not ok:
        counterexample = ("object-sets", q.nonzero_objects, ap.objects)

    hom_pairs = ext_pairs = exangles = 0
    if ok:
        for b, a in product(ap.objects, repeat=2):
            hom_pairs += 1
            if q.hom_dim(b, a) != ap.hom_dim(b, a):
                ok = False
                counterexample = ("hom", b, a, q.hom_dim(b, a), ap.hom_dim(b, a))
                break
            ext_pairs += 1
            if q.ext_dim(b, a) != ap.ext_dim(b, a):
                ok = False
                counterexample = ("ext", b, a)
                break
            if ap.ext_dim(b, a) == 1:
                exangles += 1
                mismatch = compare_exangles(q.exangle(b, a), realize(ap, b, a))
                if mismatch is not None:
                    ok = False
                    counterexample = ("exangle", b, a, mismatch)
                    break
    counters.update(hom_pairs=hom_pairs, ext_pairs=ext_pairs, exangles=exangles)
    return VerificationReport(theorem, d, n, ok, counters, counterexample,
                              time.perf_counter() - start)


def verify_equiv_module_ap(d: int, n: int) -> VerificationReport:
    """Projective-injective quotient of the module model vs the almost-positive model."""
    start = time.perf_counter()
    base = module_model(d, n + 1)
    report = compare_to_model("equiv", d, n, quotient(base, projinj_ideal(base)),
                              almost_positive_model(d, n))
    return replace(report, elapsed=time.perf_counter() - start)


def verify_f_exangles(d: int, n: int) -> VerificationReport:
    """Characterize the distinguished exangles of the restricted cyclic structure.

    For every ordered extension pair of the cyclic model, the connecting
    morphism factors through a shifted projective exactly when the end
    labels interleave linearly on canonical representatives.
    """
    start = time.perf_counter()
    counters: dict[str, int] = {}
    counterexample = None
    ok = True

    cl = cluster_model(d, n)
    relf = relative_f_model(d, n)
    m = cl.modulus
    shifted_proj = IdealSpec(cl, tuple((z, z) for z in cl.objects
                                       if cl.classify(z).shifted_projective))
    pairs = distinguished = 0
    for b, a in product(cl.objects, repeat=2):
        if cl.ext_dim(b, a) != 1:
            continue
        pairs += 1
        connecting_target = normalize_cyclic(tuple(v - 1 for v in a), m)
        if cl.hom_dim(b, connecting_target) != 1:
            ok = False
            counterexample = ("missing-connecting-morphism", b, a)
            break
        factors = factors_through(cl, BasisMorphism(b, connecting_target), shifted_proj)
        expected = relf.ext_dim(b, a) == 1
        if factors != expected:
            ok = False
            counterexample = ("distinguished-mismatch", b, a, factors, expected)
            break
        if expected:
            distinguished += 1
    counters.update(ext_pairs=pairs, distinguished=distinguished,
                    objects=len(cl.objects))
    return VerificationReport("f-exangles", d, n, ok, counters, counterexample,
                              time.perf_counter() - start)


def verify_main2(d: int, n: int) -> VerificationReport:
    """Arrow-ideal quotient of the restricted cyclic model vs the almost-positive model."""
    start = time.perf_counter()
    relf = relative_f_model(d, n)
    report = compare_to_model("main2", d, n, quotient(relf, injproj_ideal(relf)),
                              almost_positive_model(d, n))
    return replace(report, elapsed=time.perf_counter() - start)


def _hom_successors(model) -> dict[IndexTuple, list[IndexTuple]]:
    return {x: [y for y in model.objects if model.hom_dim(x, y)]
            for x in model.objects}


def verify_model_sanity(model: CategoryModel) -> VerificationReport:
    """Structural sanity of one model.

    Identities exist, composition satisfies the unit law and is
    associative over all composable basis triples, every realized exangle
    is a complex with membership-respecting middle terms and passes the
    hom-exactness check, and the shift operations are compatible with the
    hom and ext tables.  For the cyclic model a witness that composition
    is not determined by hom dimensions alone is recorded when present.
    """
    start = time.perf_counter()
    counters: dict[str, int] = {}
    counterexample = None
    ok = True

    succ = _hom_successors(model)

    for x in model.objects:
        if model.hom_dim(x, x) != 1:
            ok = False
            counterexample = ("missing-identity", x)
            break
    counters["objects"] = len(model.objects)

    unit_checks = 0
    if ok:
        for x in model.objects:
            for y in succ[x]:
                unit_checks += 2
                if model.compose_scalar(x, x, y) != 1 or model.compose_scalar(x, y, y) != 1:
                    ok = False
                    counterexample = ("unit-law", x, y)
                    break
            if not ok:
                break
    counters["unit_checks"] = unit_checks

    triples = 0
    if ok:
        for w in model.objects:
            for x in succ[w]:
                for y in succ[x]:
                    wx_y = model.compose_scalar(w, x, y)
                    for z in succ[y]:
                        triples += 1
                        left = wx_y and model.compose_scalar(w, y, z)
                        right = model.compose_scalar(x, y, z) and model.compose_scalar(w, x, z)
                        if bool(left) != bool(right):
                            ok = False
                            counterexample = ("associativity", w, x, y, z)
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
    counters["associativity_triples"] = triples

    ext_pairs = 0
    if ok:
        for b, a in product(model.objects, repeat=2):
            if model.ext_dim(b, a) != 1:
                continue
            ext_pairs += 1
            e = realize(model, b, a)
            if any(lbl not in model for level in e.middles for lbl in level):
                ok = False
                counterexample = ("middle-membership", b, a)
                break
            if not is_complex(e):
                ok = False
                counterexample = ("not-a-complex", b, a)
                break
            report = hom_exactness_report(model, e)
            if not report.ok:
                ok = False
                counterexample = ("hom-exactness", b, a, report.failures[:3])
                break
    counters["ext_pairs"] = ext_pairs

    shift_checks = 0
    if ok and model.kind == CLUSTER:
        m = model.modulus
        for x, y in product(model.objects, repeat=2):
            shift_checks += 1
            if model.hom_dim(x, y) != model.hom_dim(shift_cluster(x, m), shift_cluster(y, m)):
                ok = False
                counterexample = ("shift-hom-invariance", x, y)
                break
    if ok and model.kind == DERIVED:
        for x, y in product(model.objects, repeat=2):
            sx = shift_derived(x, model.n, model.d)
            sy = shift_derived(y, model.n, model.d)
            if sx in model and sy in model:
                shift_checks += 1
                if model.hom_dim(x, y) != model.hom_dim(sx, sy) or \
                        model.ext_dim(x, y) != model.ext_dim(sx, sy):
                    ok = False
                    counterexample = ("shift-invariance", x, y)
                    break
    counters["shift_checks"] = shift_checks

    if ok and model.kind == CLUSTER:
        witness = find_noncommuting_witness(model)
        counters["noncommuting_witnesses"] = 1 if witness else 0
        if witness:
            counters["witness_recorded"] = 1

    return VerificationReport(f"sanity-{model.kind}", model.d, model.n, ok,
                              counters, counterexample,
                              time.perf_counter() - start)


def find_noncommuting_witness(model: CategoryModel):
    """A triple x -> y -> z of nonzero basis morphisms with zero composite
    while the hom space x -> z is nonzero, or None when no such triple exists."""
    succ = _hom_successors(model)
    for x in model.objects:
        for y in succ[x]:
            if y == x:
                continue
            for z in succ[y]:
                if z == y:
                    continue
                if model.hom_dim(x, z) == 1 and model.compose_scalar(x, y, z) == 0:
                    return (x, y, z)
    return None


def sanity_reports(d: int, n: int, window: tuple[int, int] | None = None):
    """Sanity across the five models at one grid point.

    The derived model runs on a three-layer window by default; the full
    default window is available by passing it explicitly.
    """
    models = (
        module_model(d, n),
        cluster_model(d, n),
        almost_positive_model(d, n),
        relative_f_model(d, n),
        derived_model(d, n, window or (1, 3)),
    )
    return [verify_model_sanity(m) for m in models]


def run_point(theorem: str, d: int, n: int) -> list[VerificationReport]:
    """Run one theorem verifier at one grid point.

    Sanity gives one report per model, every other theorem one report.
    """
    if theorem == "equiv":
        return [verify_equiv_module_ap(d, n)]
    if theorem == "f-exangles":
        return [verify_f_exangles(d, n)]
    if theorem == "main2":
        return [verify_main2(d, n)]
    if theorem == "sanity":
        return sanity_reports(d, n)
    if theorem == "correspondence":
        # looked up at call time: rigidity imports this module
        from .rigidity import correspondence_check
        return [correspondence_check(d, n)]
    raise _unknown_theorem(theorem)


def _unknown_theorem(theorem: str) -> ValueError:
    return ValueError(f"unknown theorem {theorem!r}, expected one of {', '.join(THEOREMS)}")


def run_theorem(theorem: str, grid: tuple[int, int, int],
                extra_points: tuple[tuple[int, int], ...] = ()) -> list[VerificationReport]:
    """Run one theorem verifier over the whole grid; the name is checked first."""
    if theorem not in THEOREMS:
        raise _unknown_theorem(theorem)
    base_points = grid_points(*grid)
    points = list(base_points) + [p for p in extra_points if p not in base_points]
    return [report for d, n in points for report in run_point(theorem, d, n)]
