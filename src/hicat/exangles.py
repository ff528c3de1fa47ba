"""Realized d-exangles with explicit middle terms and signed differentials.

A nonzero extension of X_b by X_a is realized by a sequence

    X_a -> E_d -> ... -> E_1 -> X_b

whose middle term E_r collects the mixed tuples that are objects of the
model, indexed by the r-element subsets of the mixing positions.  The
mixes of an interleaved pair are increasing; only the cluster lift, which
unwraps b_0 to b_0 + m, leaves an entry past the modulus, and that entry
is reduced back to the front.  Component maps drop
one mixing position at a time and carry an alternating sign, which makes
consecutive differentials compose to zero; both that complex condition
and the rank-level exactness of the induced hom sequences are checked
exhaustively rather than assumed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations
from operator import itemgetter

from .models import (
    CLUSTER,
    CategoryModel,
    bit_indices,
)
from .tuples import (
    IndexTuple,
    intertwines,
    rotate_window_rep,
)


@dataclass(frozen=True)
class Exangle:
    """A realized d-exangle.

    middles lists E_d, ..., E_1; differentials holds the d+1 integer sign
    matrices X_a -> E_d, E_d -> E_{d-1}, ..., E_1 -> X_b over the
    canonical basis morphisms: entry (r, c) of differential p scales the
    basis morphism from summand c of terms[p] to summand r of
    terms[p + 1], and is 0 where the hom space vanishes.  The summands
    are read from the terms alone.  Empty middle terms are genuine zero
    objects with degenerate matrix shapes.
    """
    model: CategoryModel
    x0: IndexTuple
    xlast: IndexTuple
    middles: tuple[tuple[IndexTuple, ...], ...]
    differentials: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def terms(self) -> tuple[tuple[IndexTuple, ...], ...]:
        """All terms from X_a down to X_b, one tuple of summands per position."""
        return ((self.x0,),) + self.middles + ((self.xlast,),)

    @cached_property
    def indexed(self) -> tuple[tuple[tuple[int, ...], ...],
                               tuple[tuple[int, int, int, int, int, int], ...]]:
        """(terms, entries) over the object indices of the model, built once.

        terms[p] lists the summands of term p as object indices; entries
        lists the nonzero differential entries as (p, r, c, x, y, v): entry
        (r, c) of differential p is v and scales the basis morphism x -> y
        from summand c of term p to summand r of term p + 1.  A label that
        is not an object of the model raises ValueError.
        """
        terms = tuple(tuple(self.model._indices(term)) for term in self.terms)
        entries = tuple((p, r, c, sources[c], targets[r], v)
                        for p, (diff, sources, targets)
                        in enumerate(zip(self.differentials, terms, terms[1:]))
                        for r, row in enumerate(diff) for c, v in enumerate(row) if v)
        return terms, entries


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
        if dl != dr:
            return f"differential {pos} differs: {dl} vs {dr}"
    return None


class NoInterleavingLift(ValueError):
    """An extension pair whose end labels interleave in no lift."""


@cache
def _cube(d: int):
    """The subsets of the mixing positions 0..d, as bitmasks, built once per d.

    Returns (levels, faces).  levels lists, for r = d down to 1, the
    r-element subsets I in the order of ``combinations``, each with the
    getter that picks the mix from a + b: a_t at the positions t in I,
    b_t elsewhere.  faces[I] maps each face J = I minus one position i to
    the sign of dropping i, -1 when an odd number of positions of I lie
    below i.
    """
    width = d + 1
    levels = [[(sum(1 << t for t in combo),
                itemgetter(*(t if t in combo else t + width for t in range(width))))
               for combo in combinations(range(width), r)]
              for r in range(d, 0, -1)]
    faces = {}
    for I in range(1 << width):
        faces[I] = {I ^ 1 << i: -1 if (I & (1 << i) - 1).bit_count() % 2 else 1
                    for i in range(width) if I >> i & 1}
    return levels, faces


def _kept_mixes(model: CategoryModel, b: IndexTuple, a: IndexTuple):
    """The terms of the exangle from a to b, each a sorted list of (label, subset).

    The middle terms keep the mixes that are objects of the model; the ends
    are (a, all positions) and (b, no position).
    """
    if model.ext_dim(b, a) != 1:
        raise ValueError(f"no extension of {b} by {a} in {model.kind}")
    m = model.modulus
    lifted = model.kind == CLUSTER and not intertwines(a, b)
    # the symmetric cyclic extension seen from the other side: unwrap b
    # past the modulus so the interleaving becomes linear
    b_rep = rotate_window_rep(b, m) if lifted else b
    if not intertwines(a, b_rep):
        raise NoInterleavingLift(f"the extension of {b} by {a} in {model.kind} "
                                 "has no interleaving lift")
    cube, _ = _cube(model.d)
    ab = a + b_rep
    terms = [[(a, (1 << model.d + 1) - 1)]]
    for subsets in cube:
        kept = []
        for I, pick in subsets:
            label = pick(ab)
            if lifted and label[-1] > m:  # the unwrapped b_0 + m, back to the front
                label = (label[-1] - m,) + label[:-1]
            if label in model:
                kept.append((label, I))
        kept.sort()
        terms.append(kept)
    terms.append([(b, 0)])
    return terms


def middle_terms(model: CategoryModel, b: IndexTuple, a: IndexTuple):
    """The middle terms E_d, ..., E_1 that ``realize`` gives, without its differentials."""
    return tuple(tuple(label for label, _ in term) for term in _kept_mixes(model, b, a)[1:-1])


def realize(model: CategoryModel, b: IndexTuple, a: IndexTuple) -> Exangle:
    """Realize the extension of X_b by X_a as a d-exangle from a to b."""
    terms = _kept_mixes(model, b, a)
    _, faces = _cube(model.d)
    diffs = tuple(tuple(tuple(faces[I].get(J, 0) for _, I in upper) for _, J in lower)
                  for upper, lower in zip(terms, terms[1:]))
    return Exangle(model=model, x0=a, xlast=b,
                   middles=tuple(tuple(label for label, _ in term) for term in terms[1:-1]),
                   differentials=diffs)


def differential_off_hom(e: Exangle) -> tuple[IndexTuple, IndexTuple] | None:
    """The first nonzero differential entry x -> y whose hom space is zero, or None."""
    _, entries = e.indexed
    out, objects = e.model.hom_rows.out, e.model.objects
    for _, _, _, x, y, _ in entries:
        if not out[x] >> y & 1:
            return objects[x], objects[y]
    return None


def is_complex(e: Exangle) -> bool:
    """True when every pair of consecutive differentials composes to zero.

    The composite of differentials p and p + 1 at (x, u) sums, over the
    middle summands y, v * w * (bit u of ``compose_row(x, y)``), where v
    scales x -> y and w scales y -> u.  A nonzero entry on a zero hom
    space (``differential_off_hom``) raises ValueError.
    """
    off = differential_off_hom(e)
    if off is not None:
        raise ValueError(f"no basis morphisms along {off[0]} -> {off[1]}")
    _, entries = e.indexed
    leaving: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for p, r, c, _, u, w in entries:
        leaving.setdefault((p, c), []).append((r, u, w))
    composite: dict[tuple[int, int, int], int] = {}
    row = e.model.compose_row
    for p, r, c, x, y, v in entries:
        after = leaving.get((p + 1, r))
        if after:
            through = row(x, y)
            for r2, u, w in after:
                if through >> u & 1:
                    key = (p, c, r2)
                    composite[key] = composite.get(key, 0) + v * w
    return not any(composite.values())


def _rank(rows) -> int:
    """Exact rank over the rationals by fraction-free (Bareiss) elimination.

    After k pivot steps every entry below the pivot rows is a
    (k+1)-minor of the input (Sylvester's identity), so each division by
    the previous pivot is exact and the arithmetic stays on integers.
    """
    mat = [list(row) for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        p = top[col]
        for r in range(rank + 1, nrows):
            f = mat[r][col]
            mat[r] = [(p * v - f * w) // prev for v, w in zip(mat[r], top)]
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


@dataclass(frozen=True)
class ExactnessReport:
    """Outcome of the rank-level exactness check of one exangle."""
    ok: bool
    objects_checked: int
    positions_checked: int
    failures: tuple[tuple[IndexTuple, str, int], ...]


def _classes(universe: int, splitters) -> list[tuple[int, int]]:
    """The classes of the objects in universe that lie in the same splitters.

    Each class comes with its view: bit s is set when it lies in splitter
    s.  A splitter of 0 is a placeholder that keeps the numbering.
    """
    classes, common = [(universe, 0)], 0
    for s, mask in enumerate(splitters):
        part = universe & mask
        if not part:
            continue
        if part == universe:
            common |= 1 << s
            continue
        refined = []
        for c, view in classes:
            inside = c & mask
            if not inside:
                refined.append((c, view))
            elif inside == c:
                refined.append((c, view | 1 << s))
            else:
                refined += ((inside, view | 1 << s), (c ^ inside, view))
        classes = refined
    return [(c, view | common) for c, view in classes]


@cache
def _failing_positions(differentials, derived: int, view: int) -> tuple[int, ...]:
    """The interior positions where the hom complex of one view is not exact.

    The complex is read from its sign matrices alone, so the answer is
    kept per (matrices, derived, view) for every exangle with that sign
    pattern, in any model.  Bit k of the view is set when the test object
    sees summand k, in the order of the terms, and bit (number of
    summands + q) when the q-th nonzero entry survives, in the order of
    ``Exangle.indexed``; an entry in ``derived`` survives when the test
    object sees both its ends.
    """
    offsets, live, seen = [], [], 0
    for size in (1, *map(len, differentials)):
        offsets.append(seen)
        live.append([k for k in range(size) if view >> seen + k & 1])
        seen += size
    ranks, q = [], 0
    for p, diff in enumerate(differentials):
        kept = [list(row) for row in diff]
        for r, row in enumerate(diff):
            for c, v in enumerate(row):
                if v:
                    if derived >> q & 1:
                        survives = view >> offsets[p] + c & view >> offsets[p + 1] + r
                    else:
                        survives = view >> seen + q
                    if not survives & 1:
                        kept[r][c] = 0
                    q += 1
        ranks.append(_rank([[kept[r][c] for c in live[p]] for r in live[p + 1]]))
    return tuple(p for p in range(1, len(live) - 1) if ranks[p - 1] + ranks[p] != len(live[p]))


def hom_exactness_report(e: Exangle) -> ExactnessReport:
    """Check exactness of both induced hom complexes at every interior position.

    For each test object t the covariant complex Hom(t, X_a) -> Hom(t, E_d)
    -> ... -> Hom(t, X_b) and the contravariant one Hom(X_b, t) -> ... ->
    Hom(X_a, t) must satisfy rank(incoming) + rank(outgoing) = dimension
    at each middle position p.  Each term keeps the summands x with a
    nonzero hom t -> x (covariant) or x -> t (contravariant), read from
    the model's hom table, and each differential x -> y gives one matrix
    over them, rows at its target, whose entry at x -> y survives when
    the composite t -> x -> y (covariant) or x -> y -> t (contravariant)
    is nonzero.  The contravariant map runs the other way and is the
    transpose of that matrix, with the same rank, so in either
    orientation the ranks at p are those of the differentials p - 1 and p.

    The matrices depend on t only through its view: which summands it
    sees and which entries survive.  Those are masks over t: a column of
    the hom table per summand, and per entry the covariant column
    ``compose_column(x, y)`` or the contravariant row ``compose_row(x, y)``.
    So the test objects split into classes that agree on every mask, and
    the failing positions are computed once per view and kept per sign
    pattern (``_failing_positions``), for every exangle with the same
    differentials in any model.  An entry whose mask is the
    t that see both its ends splits no class further.  A t that sees no
    interior summand has all interior dimensions 0, so are the ranks of
    all differentials, and the identity holds without a matrix.  Failures
    are (t, "covariant" | "contravariant", p), in object order, covariant
    first for each t.
    """
    model = e.model
    terms, entries = e.indexed
    summands = [x for term in terms for x in term]
    hom = model.hom_rows
    failing: dict[int, list[tuple[str, int]]] = {}
    for orientation, sees in (("covariant", hom.into), ("contravariant", hom.out)):
        universe = 0
        for term in terms[1:-1]:
            for x in term:
                universe |= sees[x]
        if not universe:
            continue
        splitters = [sees[x] for x in summands]
        derived = 0
        for q, (_, _, _, x, y, _) in enumerate(entries):
            mask = (model.compose_column(x, y) if orientation == "covariant"
                    else model.compose_row(x, y))
            if mask == sees[x] & sees[y]:
                derived |= 1 << q
                mask = 0
            splitters.append(mask)
        for cls, view in _classes(universe, splitters):
            bad = _failing_positions(e.differentials, derived, view)
            if bad:
                for u in bit_indices(cls):
                    failing.setdefault(u, []).extend((orientation, p) for p in bad)
    objects = model.objects
    failures = tuple((objects[u], orientation, p)
                     for u in sorted(failing) for orientation, p in failing[u])
    return ExactnessReport(ok=not failures,
                           objects_checked=len(objects),
                           positions_checked=2 * len(objects) * (len(terms) - 2),
                           failures=failures)
