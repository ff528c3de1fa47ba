"""Realized d-exangles with explicit middle terms and signed differentials.

A nonzero extension of X_b by X_a is realized by a sequence

    X_a -> E_d -> ... -> E_1 -> X_b

whose middle term E_r collects the mixed tuples whose projection is an
object of the model, indexed by the r-element subsets of the mixing
positions; the projection is the identity for the linear kinds and the
reduction modulo the period for the cyclic ones.  Component maps drop
one mixing position at a time and carry an alternating sign, which makes
consecutive differentials compose to zero; both that complex condition
and the rank-level exactness of the induced hom sequences are checked
exhaustively rather than assumed.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .models import (
    CLUSTER,
    CYCLIC_KINDS,
    CategoryModel,
    MorphismMatrix,
    compose_matrices,
)
from .tuples import (
    IndexTuple,
    intertwines,
    m_mix,
    normalize_cyclic,
    rotate_window_rep,
)


@dataclass(frozen=True)
class Exangle:
    """A realized d-exangle.

    middles lists E_d, ..., E_1; differentials holds the d+1 matrices
    X_a -> E_d, E_d -> E_{d-1}, ..., E_1 -> X_b.  Empty middle terms are
    genuine zero objects with degenerate matrix shapes.
    """
    model: CategoryModel
    x0: IndexTuple
    xlast: IndexTuple
    middles: tuple[tuple[IndexTuple, ...], ...]
    differentials: tuple[MorphismMatrix, ...]

    @property
    def terms(self) -> tuple[tuple[IndexTuple, ...], ...]:
        """All terms from X_a down to X_b, one tuple of summands per position."""
        return ((self.x0,),) + self.middles + ((self.xlast,),)


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


def _drop_sign(I: frozenset[int], i: int) -> int:
    return -1 if sum(1 for j in I if j < i) % 2 else 1


class NoInterleavingLift(ValueError):
    """An extension pair whose end labels interleave in no lift."""


def realize(model: CategoryModel, b: IndexTuple, a: IndexTuple) -> Exangle:
    """Realize the extension of X_b by X_a as a d-exangle from a to b."""
    if model.ext_dim(b, a) != 1:
        raise ValueError(f"no extension of {b} by {a} in {model.kind}")
    d = model.d
    a_rep = a
    b_rep = b
    if model.kind == CLUSTER and not intertwines(a, b):
        # the symmetric cyclic extension seen from the other side: unwrap b
        # past the modulus so the interleaving becomes linear
        b_rep = rotate_window_rep(b, model.modulus)
    if not intertwines(a_rep, b_rep):
        raise NoInterleavingLift(f"the extension of {b} by {a} in {model.kind} "
                                 "has no interleaving lift")

    if model.kind in CYCLIC_KINDS:
        project = lambda t: normalize_cyclic(t, model.modulus)
    else:
        project = lambda t: t

    positions = range(d + 1)
    levels: list[list[tuple[frozenset[int], IndexTuple]]] = []
    levels.append([(frozenset(positions), a)])
    for r in range(d, 0, -1):
        entries = []
        for combo in combinations(positions, r):
            I = frozenset(combo)
            label = project(m_mix(I, a_rep, b_rep))
            if label in model:
                entries.append((I, label))
        entries.sort(key=lambda pair: pair[1])
        levels.append(entries)
    levels.append([(frozenset(), b)])

    diffs = []
    for upper, lower in zip(levels, levels[1:]):
        rows = []
        for J, _ in lower:
            row = []
            for I, _ in upper:
                extra = I - J
                if J < I and len(extra) == 1:
                    row.append(_drop_sign(I, next(iter(extra))))
                else:
                    row.append(0)
            rows.append(tuple(row))
        diffs.append(MorphismMatrix(tuple(lbl for _, lbl in upper),
                                    tuple(lbl for _, lbl in lower),
                                    tuple(rows)))

    return Exangle(model=model, x0=a, xlast=b,
                   middles=tuple(tuple(lbl for _, lbl in lvl) for lvl in levels[1:-1]),
                   differentials=tuple(diffs))


def is_complex(e: Exangle) -> bool:
    """True when every pair of consecutive differentials composes to zero."""
    for first, second in zip(e.differentials, e.differentials[1:]):
        if not compose_matrices(e.model, second, first).is_zero():
            return False
    return True


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


def _hom_ranks(model: CategoryModel, e: Exangle, t: IndexTuple, covariant: bool,
               live: list[list[int]], memo: dict) -> list[int]:
    """Differential ranks of Hom(t, e), or of Hom(e, t), on the live summands.

    live[p] lists the summands of term p with a nonzero hom t -> x
    (covariant) or x -> t (contravariant); memo maps a matrix, as its
    tuple of rows, to its rank.
    """
    ranks = []
    for diff, cols, rows in zip(e.differentials, live, live[1:]):
        if not cols or not rows:
            ranks.append(0)
            continue
        matrix = []
        for i in rows:
            y = diff.target[i]
            entries = diff.entries[i]
            row = []
            for j in cols:
                v = entries[j]
                if v:
                    x = diff.source[j]
                    v *= (model.compose_scalar(t, x, y) if covariant
                          else model.compose_scalar(x, y, t))
                row.append(v)
            matrix.append(tuple(row))
        key = tuple(matrix)
        rank = memo.get(key)
        if rank is None:
            rank = memo[key] = _rank(key)
        ranks.append(rank)
    return ranks


def hom_exactness_report(model: CategoryModel, e: Exangle) -> ExactnessReport:
    """Check exactness of both induced hom complexes at every interior position.

    For each test object t the covariant complex Hom(t, X_a) -> Hom(t, E_d)
    -> ... -> Hom(t, X_b) and the contravariant one Hom(X_b, t) -> ... ->
    Hom(X_a, t) must satisfy rank(incoming) + rank(outgoing) = dimension
    at each middle position p.  Each term keeps the summands x with a
    nonzero hom t -> x (covariant) or x -> t (contravariant), read from
    the bit-row of t in the model's hom table, and each differential
    x -> y gives one matrix over them, rows at its target, scaled by the
    composite t -> x -> y or x -> y -> t.  The contravariant map runs the
    other way and is the transpose of that matrix, with the same rank, so
    in either orientation the ranks at p are those of the differentials
    p - 1 and p.  When the row of t misses every interior summand, all
    interior dimensions are 0, so are the ranks of all differentials, and
    the identity holds without a matrix.  Failures are (t, "covariant" |
    "contravariant", p), covariant first for each t.
    """
    index, hom = model.index, model.hom_rows
    for term in e.terms:
        for x in term:
            if x not in index:
                model._require(x)
    terms = [[index[x] for x in term] for term in e.terms]
    interior = 0
    for term in terms[1:-1]:
        for i in term:
            interior |= 1 << i
    memo: dict = {}
    failures: list[tuple[IndexTuple, str, int]] = []
    for ti, t in enumerate(model.objects):
        for orientation, row in (("covariant", hom.out[ti]), ("contravariant", hom.into[ti])):
            if not row & interior:
                continue
            live = [[k for k, i in enumerate(term) if row >> i & 1] for term in terms]
            ranks = _hom_ranks(model, e, t, orientation == "covariant", live, memo)
            for p in range(1, len(terms) - 1):
                if ranks[p - 1] + ranks[p] != len(live[p]):
                    failures.append((t, orientation, p))
    return ExactnessReport(ok=not failures,
                           objects_checked=len(model.objects),
                           positions_checked=2 * len(model.objects) * (len(terms) - 2),
                           failures=tuple(failures))
