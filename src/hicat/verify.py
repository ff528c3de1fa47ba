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

from itertools import product
from math import comb

from .exangles import (
    Exangle,
    NoInterleavingLift,
    hom_exactness_report,
    is_complex,
    realize,
)
from .models import (
    CLUSTER,
    DERIVED,
    BasisMorphism,
    CategoryModel,
    almost_positive_model,
    bit_indices,
    cluster_model,
    derived_model,
    module_model,
    relative_f_model,
)
from .quotients import (
    IdealSpec,
    compare_to_model,
    factors_through,
    injproj_ideal,
    projinj_ideal,
    quotient,
)
from .report import VerificationReport, run_check
from .rigidity import correspondence_check
from .tuples import (
    IndexTuple,
    normalize_cyclic,
    shift_cluster,
    shift_derived,
)

DEFAULT_GRID = (3, 4, 200)


def parse_grid(text: str) -> tuple[int, int, int]:
    """Parse a DMAX:NMAX:OBJMAX grid bound."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be DMAX:NMAX:OBJMAX, got {text!r}")
    dmax, nmax, objmax = (int(p) for p in parts)
    if dmax < 1 or nmax < 1 or objmax < 1:
        raise ValueError(f"grid bounds must be positive, got {text!r}")
    return dmax, nmax, objmax


def grid_points(dmax: int, nmax: int, objmax: int) -> tuple[tuple[int, int], ...]:
    """Grid points (d, n) whose largest model stays within the object bound."""
    points = []
    for d in range(1, dmax + 1):
        for n in range(1, nmax + 1):
            if comb(n + d + 1, d + 1) <= objmax:
                points.append((d, n))
    return tuple(points)


def verify_equiv_module_ap(d: int, n: int) -> VerificationReport:
    """Projective-injective quotient of the module model vs the almost-positive model."""
    def check(counters):
        base = module_model(d, n + 1)
        return compare_to_model(quotient(base, projinj_ideal(base)),
                                almost_positive_model(d, n), counters)
    return run_check("equiv", d, n, check)


def verify_f_exangles(d: int, n: int) -> VerificationReport:
    """Characterize the distinguished exangles of the restricted cyclic structure.

    For every ordered extension pair of the cyclic model, the connecting
    morphism factors through a shifted projective exactly when the end
    labels interleave linearly on canonical representatives.
    """
    def check(counters):
        cl = cluster_model(d, n)
        relf = relative_f_model(d, n)
        shifted_proj = IdealSpec(cl, tuple((z, z) for z in cl.objects
                                           if cl.classify(z).shifted_projective))
        counters.update(ext_pairs=0, distinguished=0, objects=len(cl.objects))
        for b, a in _ext_pairs(cl):
            counters["ext_pairs"] += 1
            connecting_target = normalize_cyclic(tuple(v - 1 for v in a), cl.modulus)
            if cl.hom_dim(b, connecting_target) != 1:
                return ("missing-connecting-morphism", b, a)
            factors = factors_through(cl, BasisMorphism(b, connecting_target), shifted_proj)
            expected = relf.ext_dim(b, a) == 1
            if factors != expected:
                return ("distinguished-mismatch", b, a, factors, expected)
            if expected:
                counters["distinguished"] += 1
        return None
    return run_check("f-exangles", d, n, check)


def verify_main2(d: int, n: int) -> VerificationReport:
    """Arrow-ideal quotient of the restricted cyclic model vs the almost-positive model."""
    def check(counters):
        relf = relative_f_model(d, n)
        return compare_to_model(quotient(relf, injproj_ideal(relf)),
                                almost_positive_model(d, n), counters)
    return run_check("main2", d, n, check)


def _ext_pairs(model: CategoryModel):
    """The pairs (b, a) with ext_dim(b, a) = 1, in the order of product(objects, repeat=2)."""
    objects = model.objects
    for b, row in zip(objects, model.ext_rows.out):
        for j in bit_indices(row):
            yield b, objects[j]


def _hom_successors(model: CategoryModel) -> dict[IndexTuple, list[IndexTuple]]:
    objects, out = model.objects, model.hom_rows.out
    return {x: [objects[j] for j in bit_indices(out[i])] for i, x in enumerate(objects)}


def _differential_off_hom(model: CategoryModel, e: Exangle):
    """The first nonzero differential entry x -> y whose hom space is zero, or None."""
    index, out = model.index, model.hom_rows.out
    for diff in e.differentials:
        for y, row in zip(diff.target, diff.entries):
            for x, v in zip(diff.source, row):
                if v and not out[index[x]] >> index[y] & 1:
                    return x, y
    return None


def verify_model_sanity(model: CategoryModel) -> VerificationReport:
    """Structural sanity of one model.

    Identities exist, composition satisfies the unit law, every nonzero
    composite of composable basis morphisms lands on a nonzero hom space,
    and composition is associative over all composable basis triples.
    Every extension has an interleaving lift, and its realized exangle has
    nonzero differential entries only on nonzero hom spaces, is a complex
    and passes the hom-exactness check.  The shift operations are
    compatible with the hom and ext tables.  For the cyclic model a
    witness that composition is not determined by hom dimensions alone is
    recorded when present.

    The middle terms get no membership leg: ``realize`` keeps exactly the
    mixes whose projection is an object of the model, so such a leg would
    read back the very predicate that chose them and could never fail.

    This is not a check of the hom and ext tables themselves: no leg
    looks at a missing extension, so an ext value changed from 1 to 0
    passes, as do some ext 0 -> 1 and linear hom 0 -> 1 changes that
    keep the model a category with exact exangles.  Catching those
    needs an independent hom and ext oracle.
    """
    def check(counters):
        counters.update(objects=len(model.objects), unit_checks=0,
                        associativity_triples=0, ext_pairs=0, shift_checks=0)
        succ = _hom_successors(model)
        for x in model.objects:
            if model.hom_dim(x, x) != 1:
                return ("missing-identity", x)
        for x in model.objects:
            for y in succ[x]:
                counters["unit_checks"] += 2
                if model.compose_scalar(x, x, y) != 1 or model.compose_scalar(x, y, y) != 1:
                    return ("unit-law", x, y)
        for x in model.objects:
            reach = set(succ[x])
            for y in succ[x]:
                for z in succ[y]:
                    if z not in reach and model.compose_scalar(x, y, z):
                        return ("composite-off-hom", x, y, z)
        for w in model.objects:
            for x in succ[w]:
                for y in succ[x]:
                    wx_y = model.compose_scalar(w, x, y)
                    for z in succ[y]:
                        counters["associativity_triples"] += 1
                        left = wx_y and model.compose_scalar(w, y, z)
                        right = model.compose_scalar(x, y, z) and model.compose_scalar(w, x, z)
                        if bool(left) != bool(right):
                            return ("associativity", w, x, y, z)
        for b, a in _ext_pairs(model):
            counters["ext_pairs"] += 1
            try:
                e = realize(model, b, a)
            except NoInterleavingLift:
                return ("ext-without-lift", b, a)
            off_hom = _differential_off_hom(model, e)
            if off_hom is not None:
                return ("differential-off-hom", b, a, *off_hom)
            if not is_complex(e):
                return ("not-a-complex", b, a)
            report = hom_exactness_report(model, e)
            if not report.ok:
                return ("hom-exactness", b, a, report.failures[:3])
        if model.kind == CLUSTER:
            if (failure := _shift_hom_failure(model, counters)) is not None:
                return failure
            witness = find_noncommuting_witness(model)
            counters["noncommuting_witnesses"] = 1 if witness else 0
            if witness:
                counters["witness_recorded"] = 1
        if model.kind == DERIVED:
            for x, y in product(model.objects, repeat=2):
                sx = shift_derived(x, model.n, model.d)
                sy = shift_derived(y, model.n, model.d)
                if sx in model and sy in model:
                    counters["shift_checks"] += 1
                    if model.hom_dim(x, y) != model.hom_dim(sx, sy) or \
                            model.ext_dim(x, y) != model.ext_dim(sx, sy):
                        return ("shift-invariance", x, y)
        return None
    return run_check(f"sanity-{model.kind}", model.d, model.n, check)


def _shift_hom_failure(model: CategoryModel, counters: dict[str, int]):
    """The first pair (x, y) whose hom differs from that of its cluster shift, or None.

    The shift is computed once per object, as a map of the object index.
    When it is a permutation, row x of the hom table, moved by it, must be
    the row of the shift of x, and only a row that differs is searched for
    its first failing pair; a shift that is not one (a broken shift) has
    every pair tested.  Pairs are counted in the order of
    product(objects, repeat=2).
    """
    objects, index, out = model.objects, model.index, model.hom_rows.out
    perm = []
    for x in objects:
        sx = shift_cluster(x, model.modulus)
        model._require(sx)
        perm.append(index[sx])
    bijective = len(set(perm)) == len(perm)
    for i, x in enumerate(objects):
        row, image = out[i], out[perm[i]]
        if bijective:
            moved = 0
            for j in bit_indices(row):
                moved |= 1 << perm[j]
            if moved == image:
                counters["shift_checks"] += len(objects)
                continue
        for j in range(len(objects)):
            counters["shift_checks"] += 1
            if row >> j & 1 != image >> perm[j] & 1:
                return ("shift-hom-invariance", x, objects[j])
    return None


def find_noncommuting_witness(model: CategoryModel):
    """A triple x -> y -> z of nonzero basis morphisms with zero composite
    while the hom space x -> z is nonzero, or None when no such triple exists."""
    succ = _hom_successors(model)
    index, out = model.index, model.hom_rows.out
    for x in model.objects:
        reach = out[index[x]]
        for y in succ[x]:
            if y == x:
                continue
            for z in succ[y]:
                if z == y:
                    continue
                if reach >> index[z] & 1 and model.compose_scalar(x, y, z) == 0:
                    return (x, y, z)
    return None


def sanity_reports(d: int, n: int) -> list[VerificationReport]:
    """Sanity across the five models at one grid point.

    The derived model runs on the three-layer window (1, 3).
    """
    models = (
        module_model(d, n),
        cluster_model(d, n),
        almost_positive_model(d, n),
        relative_f_model(d, n),
        derived_model(d, n, (1, 3)),
    )
    return [verify_model_sanity(m) for m in models]


#: Each theorem's runner at one grid point: sanity gives one report per model,
#: every other theorem one report.  The lambdas look the verifiers up when
#: called, so a rebinding of a verifier in this module takes effect.
THEOREMS = {
    "equiv": lambda d, n: [verify_equiv_module_ap(d, n)],
    "f-exangles": lambda d, n: [verify_f_exangles(d, n)],
    "main2": lambda d, n: [verify_main2(d, n)],
    "sanity": lambda d, n: sanity_reports(d, n),
    "correspondence": lambda d, n: [correspondence_check(d, n)],
}


def _runner(theorem: str):
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}, expected one of {', '.join(THEOREMS)}")
    return THEOREMS[theorem]


def run_point(theorem: str, d: int, n: int) -> list[VerificationReport]:
    """Run one theorem verifier at one grid point."""
    return _runner(theorem)(d, n)


def run_theorem(theorem: str, grid: tuple[int, int, int],
                extra_points: tuple[tuple[int, int], ...] = ()) -> list[VerificationReport]:
    """Run one theorem verifier over the whole grid; the name is checked first."""
    runner = _runner(theorem)
    base_points = grid_points(*grid)
    points = list(base_points) + [p for p in extra_points if p not in base_points]
    return [report for d, n in points for report in runner(d, n)]
