"""Realized d-exangles with explicit middle terms and signed differentials.

A nonzero extension of X_b by X_a is realized by a sequence

    X_a -> E_d -> ... -> E_1 -> X_b

whose middle term E_r collects the mixed tuples that stay inside the
model's membership family, indexed by the r-element subsets of the mixing
positions.  Component maps drop one mixing position at a time and carry
an alternating sign, which makes consecutive differentials compose to
zero; both that complex condition and the rank-level exactness of the
induced hom sequences are checked exhaustively rather than assumed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .models import (
    CLUSTER,
    CYCLIC_KINDS,
    MODULE,
    CategoryModel,
    MorphismMatrix,
    compose_matrices,
)
from .tuples import (
    IndexTuple,
    in_derset,
    in_modset,
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
    extension_marker: tuple[IndexTuple, IndexTuple]

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


def _membership(model: CategoryModel):
    if model.kind == MODULE:
        top, d = model.top, model.d
        return lambda t: in_modset(t, top, d)
    m = model.modulus
    return lambda t: in_derset(t, m)


def _drop_sign(I: frozenset[int], i: int) -> int:
    return -1 if sum(1 for j in I if j < i) % 2 else 1


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
        raise AssertionError("lift failed to interleave")

    member = _membership(model)
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
            raw = m_mix(I, a_rep, b_rep)
            if member(raw):
                entries.append((I, project(raw)))
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
                   differentials=tuple(diffs),
                   extension_marker=(b, a))


def is_complex(e: Exangle) -> bool:
    """True when every pair of consecutive differentials composes to zero."""
    for first, second in zip(e.differentials, e.differentials[1:]):
        if not compose_matrices(e.model, second, first).is_zero():
            return False
    return True


def _rank(rows: list[list[int]]) -> int:
    """Exact rank over the rationals by Gaussian elimination."""
    mat = [[Fraction(v) for v in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][col]
        mat[rank] = [v / inv for v in mat[rank]]
        for r in range(nrows):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [v - factor * p for v, p in zip(mat[r], mat[rank])]
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


def _hom_complex(model: CategoryModel, e: Exangle, t: IndexTuple,
                 covariant: bool) -> tuple[list[int], list[int]]:
    """Term dimensions and differential ranks of Hom(t, e), or of Hom(e, t)."""
    if covariant:
        live = [[i for i, x in enumerate(pos) if model.hom_dim(t, x)] for pos in e.terms]
    else:
        live = [[i for i, x in enumerate(pos) if model.hom_dim(x, t)] for pos in e.terms]
    ranks = []
    for diff, cols, rows in zip(e.differentials, live, live[1:]):
        matrix = []
        for i in rows:
            y = diff.target[i]
            row = []
            for j in cols:
                v = diff.entries[i][j]
                if v:
                    x = diff.source[j]
                    v *= (model.compose_scalar(t, x, y) if covariant
                          else model.compose_scalar(x, y, t))
                row.append(v)
            matrix.append(row)
        ranks.append(_rank(matrix))
    return [len(cols) for cols in live], ranks


def hom_exactness_report(model: CategoryModel, e: Exangle) -> ExactnessReport:
    """Check exactness of both induced hom complexes at every interior position.

    For each test object t the covariant complex Hom(t, X_a) -> Hom(t, E_d)
    -> ... -> Hom(t, X_b) and the contravariant one Hom(X_b, t) -> ... ->
    Hom(X_a, t) must satisfy rank(incoming) + rank(outgoing) = dimension
    at each middle position p.  Each term keeps the summands x with a
    nonzero hom t -> x (covariant) or x -> t (contravariant), and each
    differential x -> y gives one matrix over them, rows at its target,
    scaled by the composite t -> x -> y or x -> y -> t.  The contravariant
    map runs the other way and is the transpose of that matrix, with the
    same rank, so in either orientation the ranks at p are those of the
    differentials p - 1 and p.  Failures are (t, "covariant" |
    "contravariant", p), covariant first for each t.
    """
    failures: list[tuple[IndexTuple, str, int]] = []
    checked = 0
    for t in model.objects:
        for orientation in ("covariant", "contravariant"):
            dims, ranks = _hom_complex(model, e, t, orientation == "covariant")
            for p in range(1, len(dims) - 1):
                checked += 1
                if ranks[p - 1] + ranks[p] != dims[p]:
                    failures.append((t, orientation, p))
    return ExactnessReport(ok=not failures,
                           objects_checked=len(model.objects),
                           positions_checked=checked,
                           failures=tuple(failures))
