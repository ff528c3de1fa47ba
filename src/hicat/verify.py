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

from argparse import ArgumentTypeError
from math import comb

from .exangles import (
    NoInterleavingLift,
    differential_off_hom,
    hom_exactness_report,
    is_complex,
    realize,
)
from .models import (
    CLUSTER,
    DERIVED,
    CategoryModel,
    almost_positive_model,
    bit_indices,
    cluster_model,
    derived_model,
    module_model,
    relative_f_model,
)
from .quotients import compare_to_model, injproj_ideal, quotient
from .report import VerificationReport, run_check
from .rigidity import correspondence_check
from .tuples import shift_cluster, shift_derived

DEFAULT_GRID = (3, 4, 200)


class FormatError(ValueError, ArgumentTypeError):
    """A command-line value not in its expected form (a grid, a window, a
    tuple): a ValueError whose text argparse shows, as it does an
    ArgumentTypeError's, where it hides a plain ValueError's."""


def parse_grid(text: str) -> tuple[int, int, int]:
    """Parse a DMAX:NMAX:OBJMAX grid bound; raises FormatError when malformed
    or when it holds no grid point, so that no run passes with nothing checked."""
    try:
        dmax, nmax, objmax = (int(p) for p in text.split(":"))
    except ValueError:
        raise FormatError(f"grid must be DMAX:NMAX:OBJMAX, three integers, got {text!r}") from None
    if min(dmax, nmax, objmax) < 1:
        raise FormatError(f"grid bounds DMAX:NMAX:OBJMAX must be positive, got {text!r}")
    if not grid_points(dmax, nmax, objmax):
        raise FormatError("grid DMAX:NMAX:OBJMAX holds no point, since the smallest model, "
                          f"at (1, 1), has 3 objects, got {text!r}")
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
    """Injective-to-projective quotient of the module model vs the almost-positive model."""
    def check(counters):
        base = module_model(d, n + 1)
        return compare_to_model(quotient(base, injproj_ideal(base)),
                                almost_positive_model(d, n), counters)
    return run_check("equiv", d, n, check)


def verify_f_exangles(d: int, n: int) -> VerificationReport:
    """Characterize the distinguished exangles of the restricted cyclic structure.

    For every ordered extension pair of the cyclic model, the connecting
    morphism factors through a shifted projective exactly when the end
    labels interleave linearly on canonical representatives.  The loop
    reads tables only: the ext and hom rows of the cyclic model, the ext
    rows of the restricted one, the shift as an index map and the killed
    rows of the quotient by the shifted projectives.
    """
    def check(counters):
        cl = cluster_model(d, n)
        relf = relative_f_model(d, n)
        objects = cl.objects
        if relf.objects != objects:
            return ("object-sets", relf.objects, objects)
        killed = quotient(cl, ((z, z) for z in objects if z[-1] == cl.modulus)).killed_rows
        shift, hom, relf_ext = _cluster_shift(cl), cl.hom_rows.out, relf.ext_rows.out
        counters.update(ext_pairs=0, distinguished=0, objects=len(objects))
        for i, (b, row) in enumerate(zip(objects, cl.ext_rows.out)):
            for j in bit_indices(row):
                counters["ext_pairs"] += 1
                t = shift[j]  # the connecting morphism runs from b to the shift of a
                if not hom[i] >> t & 1:
                    return ("missing-connecting-morphism", b, objects[j])
                factors, expected = killed[i] >> t & 1 == 1, relf_ext[i] >> j & 1 == 1
                if factors != expected:
                    return ("distinguished-mismatch", b, objects[j], factors, expected)
                if expected:
                    counters["distinguished"] += 1
        return None
    return run_check("f-exangles", d, n, check)


def verify_main2(d: int, n: int) -> VerificationReport:
    """Injective-to-projective quotient of the restricted cyclic model vs the
    almost-positive model."""
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


def _cluster_shift(model: CategoryModel) -> list[int]:
    """The cluster shift as an index map: entry i is the index of the shift of objects[i]."""
    return model._indices([shift_cluster(x, model.modulus) for x in model.objects])


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

    Composition is read a row at a time from ``compose_row``, so each law
    is a mask identity: for a hom x -> y, the unit law asks that y lie in
    the rows of (x, x) and (x, y), and the composites stay on the hom row
    of x; for composable w -> x -> y, associativity asks that the z with
    nonzero (w -> x -> y) -> z, the row of (w, y) when w -> x -> y is
    nonzero, be those with nonzero w -> (x -> y -> z), the rows of (x, y)
    and (w, x) ANDed.  The counters count pairs and quadruples as a
    loop over them would, up to the first failure.

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
        objects, out = model.objects, model.hom_rows.out
        row = model.compose_row
        counters.update(objects=len(objects), unit_checks=0,
                        associativity_triples=0, ext_pairs=0, shift_checks=0)
        for i, x in enumerate(objects):
            if not out[i] >> i & 1:
                return ("missing-identity", x)
        for i, x in enumerate(objects):
            units = row(i, i)
            for j in bit_indices(out[i]):
                counters["unit_checks"] += 2
                if not units >> j & row(i, j) >> j & 1:
                    return ("unit-law", x, objects[j])
        for i, x in enumerate(objects):
            reach = out[i]
            for j in bit_indices(reach):
                off = row(i, j) & ~reach
                if off:
                    z = (off & -off).bit_length() - 1
                    return ("composite-off-hom", x, objects[j], objects[z])
        for w in range(len(objects)):
            for x in bit_indices(out[w]):
                wx = row(w, x)
                for y in bit_indices(out[x]):
                    zs = out[y]
                    left = row(w, y) if wx >> y & 1 else 0
                    bad = left ^ row(x, y) & wx
                    if bad:
                        z = (bad & -bad).bit_length() - 1
                        counters["associativity_triples"] += (zs & (2 << z) - 1).bit_count()
                        return ("associativity", *(objects[v] for v in (w, x, y, z)))
                    counters["associativity_triples"] += zs.bit_count()
        for b, a in _ext_pairs(model):
            counters["ext_pairs"] += 1
            try:
                e = realize(model, b, a)
            except NoInterleavingLift:
                return ("ext-without-lift", b, a)
            off_hom = differential_off_hom(e)
            if off_hom is not None:
                return ("differential-off-hom", b, a, *off_hom)
            if not is_complex(e):
                return ("not-a-complex", b, a)
            report = hom_exactness_report(e)
            if not report.ok:
                return ("hom-exactness", b, a, report.failures[:3])
        if model.kind == CLUSTER:
            shift = _cluster_shift(model)
            if (failure := _shift_failure(model, shift, "shift-hom-invariance", counters)):
                return failure
            witness = find_noncommuting_witness(model)
            counters["noncommuting_witnesses"] = 1 if witness else 0
            if witness:
                counters["witness_recorded"] = 1
        if model.kind == DERIVED:
            index = model.index
            shift = [index.get(shift_derived(x, model.n, model.d)) for x in objects]
            if (failure := _shift_failure(model, shift, "shift-invariance", counters)):
                return failure
        return None
    return run_check(f"sanity-{model.kind}", model.d, model.n, check)


def _shift_failure(model: CategoryModel, shift: list[int | None], name: str,
                   counters: dict[str, int]):
    """The first pair (x, y) whose hom or ext differs from that of its shift, or None.

    ``shift`` maps an object index to the index of its shift, or to None
    where the shift leaves the model; a pair is checked when both its
    objects have a shift.  Row x of the hom and ext tables is pulled back
    along the map: the y whose shift lies in the row of the shift of x,
    the OR of pre[k] over the bits k of that row, with pre[k] the objects
    whose shift is k.  It must equal row x restricted to the checked
    objects, and the lowest bit where they differ is the first failing y,
    whatever the map, one to one or not.  Pairs are counted in the order
    of product(objects, repeat=2).
    """
    objects, hom, ext = model.objects, model.hom_rows.out, model.ext_rows.out
    domain = 0
    pre = [0] * len(objects)
    for j, s in enumerate(shift):
        if s is not None:
            domain |= 1 << j
            pre[s] |= 1 << j
    checked = domain.bit_count()
    for i, s in enumerate(shift):
        if s is None:
            continue
        bad = 0
        for table in (hom, ext):
            pulled = 0
            for k in bit_indices(table[s]):
                pulled |= pre[k]
            bad |= pulled ^ table[i] & domain
        if bad:
            j = (bad & -bad).bit_length() - 1
            counters["shift_checks"] += (domain & (2 << j) - 1).bit_count()
            return (name, objects[i], objects[j])
        counters["shift_checks"] += checked
    return None


def find_noncommuting_witness(model: CategoryModel):
    """A triple x -> y -> z of nonzero basis morphisms with zero composite
    while the hom space x -> z is nonzero, or None when no such triple exists."""
    objects, out = model.objects, model.hom_rows.out
    for i, x in enumerate(objects):
        reach = out[i]
        for j in bit_indices(reach & ~(1 << i)):
            missing = reach & out[j] & ~(1 << j) & ~model.compose_row(i, j)
            if missing:
                return (x, objects[j], objects[(missing & -missing).bit_length() - 1])
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
