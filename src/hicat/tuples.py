"""Index-tuple combinatorics.

Everything downstream is built from (d+1)-tuples of integers that are
strictly increasing with gaps of at least 2.  This module generates the
three tuple families used as object labels, decides the interleaving
predicates, and provides the normalization and shift operations
together with the translation quiver.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

IndexTuple = tuple[int, ...]

#: A length-2 path in a quiver: (start vertex, first direction, second direction).
QuiverPath = tuple[IndexTuple, int, int]


def is_gapped(entries: IndexTuple) -> bool:
    """True when consecutive entries increase by at least 2."""
    return all(entries[i + 1] >= entries[i] + 2 for i in range(len(entries) - 1))


def in_modset(a: IndexTuple, m: int, d: int) -> bool:
    """Membership in the gapped family: entries in [1, m], gaps >= 2."""
    return len(a) == d + 1 and is_gapped(a) and (len(a) == 0 or (a[0] >= 1 and a[-1] <= m))


def in_derset(a: IndexTuple, m: int) -> bool:
    """Membership in the windowed family: gaps >= 2 and a_d + 2 <= a_0 + m."""
    return len(a) >= 1 and is_gapped(a) and a[-1] + 2 <= a[0] + m


def in_nonconsec(a: IndexTuple, m: int) -> bool:
    """Membership in the cyclically gapped family: gapped in [1, m] with wrap gap >= 2."""
    return in_modset(a, m, len(a) - 1) and a[-1] <= a[0] + m - 2


def _stretched(lo: int, hi: int, k: int) -> list[IndexTuple]:
    # k-tuples in [lo, hi] with gaps >= 2, in lexicographic order; the
    # stretch c_i -> c_i + i turns plain combinations into gapped tuples.
    if k == 0:
        return [()]
    if hi - lo + 1 < 2 * k - 1:
        return []
    return [tuple(c + i for i, c in enumerate(combo))
            for combo in combinations(range(lo, hi - k + 2), k)]


def gen_modset(m: int, d: int) -> tuple[IndexTuple, ...]:
    """All (d+1)-tuples in [1, m] with gaps >= 2, lexicographically ordered."""
    if m < 0 or d < 0:
        raise ValueError(f"need m >= 0 and d >= 0, got m={m}, d={d}")
    return tuple(_stretched(1, m, d + 1))


def gen_nonconsec(m: int, d: int) -> tuple[IndexTuple, ...]:
    """The gapped tuples that also satisfy the wrap bound a_d <= a_0 + m - 2."""
    return tuple(a for a in gen_modset(m, d) if a[-1] <= a[0] + m - 2)


def gen_derset_window(m: int, d: int, a0_lo: int, a0_hi: int) -> tuple[IndexTuple, ...]:
    """Gapped integer tuples with a_d + 2 <= a_0 + m and a_0 in [a0_lo, a0_hi]."""
    if m < 0 or d < 0:
        raise ValueError(f"need m >= 0 and d >= 0, got m={m}, d={d}")
    out: list[IndexTuple] = []
    for a0 in range(a0_lo, a0_hi + 1):
        if d == 0:
            if m >= 2:
                out.append((a0,))
            continue
        for rest in _stretched(a0 + 2, a0 + m - 2, d):
            out.append((a0, *rest))
    return tuple(out)


def _check_same_length(a: IndexTuple, b: IndexTuple) -> None:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {a} vs {b}")


def intertwines(a: IndexTuple, b: IndexTuple) -> bool:
    """Strict interleaving a_0 < b_0 < a_1 < b_1 < ... < a_d < b_d."""
    _check_same_length(a, b)
    return all(a[i] < b[i] for i in range(len(a))) and \
        all(b[i] < a[i + 1] for i in range(len(a) - 1))


def normalize_cyclic(a: IndexTuple, m: int) -> IndexTuple:
    """Reduce entries into [1, m] and sort ascending.

    Raises when two entries collide modulo m, since the result would no
    longer be a set of m distinct residues.
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    reduced = sorted(((v - 1) % m) + 1 for v in a)
    if len(set(reduced)) != len(reduced):
        raise ValueError(f"entries of {a} collide modulo {m}")
    return tuple(reduced)


def shift_derived(a: IndexTuple, n: int, d: int) -> IndexTuple:
    """One application of the shift in the windowed family.

    Sends (a_0, ..., a_d) to (a_1 - 1, ..., a_d - 1, a_0 + n + 2d); the
    result lies in the same family with modulus n + 2d + 1.
    """
    m = n + 2 * d + 1
    if len(a) != d + 1 or not in_derset(a, m):
        raise ValueError(f"{a} is not a valid windowed tuple for n={n}, d={d}")
    return tuple(v - 1 for v in a[1:]) + (a[0] + n + 2 * d,)


def shift_cluster(a: IndexTuple, m: int) -> IndexTuple:
    """One application of the shift in the cyclic family: subtract 1 and reduce."""
    if not in_nonconsec(a, m):
        raise ValueError(f"{a} is not a valid cyclic tuple for modulus {m}")
    return normalize_cyclic(tuple(v - 1 for v in a), m)


def rotate_window_rep(a: IndexTuple, m: int) -> IndexTuple:
    """Rotate a windowed representative: (a_0, ..., a_d) -> (a_1, ..., a_d, a_0 + m).

    Same residues modulo m, next unwrapping point.
    """
    return a[1:] + (a[0] + m,)


@dataclass(frozen=True)
class Quiver:
    """A translation quiver with commutativity and zero relations.

    Arrows are stored as (source, target, direction); relations pair a
    length-2 path with the equal rerouted path, or with None when the
    path is declared zero.
    """
    vertices: tuple[IndexTuple, ...]
    arrows: tuple[tuple[IndexTuple, IndexTuple, int], ...]
    relations: tuple[tuple[QuiverPath, QuiverPath | None], ...]


def build_quiver(d: int, n: int) -> Quiver:
    """The quiver with gapped d-tuple vertices and unit-step arrows.

    Vertices are the gapped d-tuples in [1, n + 2d - 2]; an arrow joins A
    to A + 1_i whenever both are vertices.  Each length-2 path is either
    identified with its rerouted companion (when the reroute stays inside
    the vertex set) or declared zero.
    """
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    verts = gen_modset(n + 2 * d - 2, d - 1)
    vset = set(verts)
    width = d  # tuples have d entries, directions 0..d-1

    def step(a: IndexTuple, i: int) -> IndexTuple:
        return a[:i] + (a[i] + 1,) + a[i + 1:]

    arrows = tuple((a, step(a, i), i)
                   for a in verts for i in range(width)
                   if step(a, i) in vset)

    def path_exists(a: IndexTuple, i: int, j: int) -> bool:
        return step(a, i) in vset and step(step(a, i), j) in vset

    relations: list[tuple[QuiverPath, QuiverPath | None]] = []
    for a in verts:
        for i in range(width):
            if path_exists(a, i, i):
                relations.append(((a, i, i), (a, i, i)))
            for j in range(i + 1, width):
                pij = path_exists(a, i, j)
                pji = path_exists(a, j, i)
                if pij and pji:
                    relations.append(((a, i, j), (a, j, i)))
                elif pij:
                    relations.append(((a, i, j), None))
                elif pji:
                    relations.append(((a, j, i), None))
    return Quiver(vertices=verts, arrows=arrows, relations=tuple(relations))
