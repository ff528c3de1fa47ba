"""Independent combinatorics for checking hicat's answers.

Nothing here imports hicat.  Labels are enumerated by brute force over
plain combinations, counts come from closed forms, and maximal rigid
sets come from a pivoting Bron-Kerbosch enumeration over bitmasks of
the interleaving-conflict graph.  The benchmark compares hicat's
outputs with these after the timed region.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

CYCLIC_KINDS = ("cluster", "relative-f")
KINDS = ("module", "derived", "cluster", "almost-positive", "relative-f")


def modulus(d: int, n: int) -> int:
    return n + 2 * d + 1


def _gapped(values, k: int):
    return [c for c in combinations(values, k)
            if all(c[i + 1] - c[i] >= 2 for i in range(k - 1))]


@lru_cache(maxsize=None)
def labels(kind: str, d: int, n: int, window: tuple[int, int] | None = None) -> tuple:
    """Object labels of a model, lexicographically ordered.

    The derived model takes first entries in the window, by default [1, m].
    """
    m = modulus(d, n)
    if kind == "module":
        return tuple(_gapped(range(1, n + 2 * d + 1), d + 1))
    if kind == "derived":
        lo, hi = window or (1, m)
        out = []
        for a0 in range(lo, hi + 1):
            out.extend((a0,) + rest for rest in _gapped(range(a0 + 2, a0 + m - 1), d))
        return tuple(out)
    return tuple(a for a in _gapped(range(1, m + 1), d + 1) if a[-1] <= a[0] + m - 2)


@lru_cache(maxsize=None)
def label_set(kind: str, d: int, n: int) -> frozenset:
    return frozenset(labels(kind, d, n))


def module_count(d: int, n: int) -> int:
    """C(n+d, d+1) gapped (d+1)-tuples in [1, n+2d]."""
    return comb(n + d, d + 1)


def cyclic_count(d: int, n: int) -> int:
    """m/(m-k) * C(m-k, k) cyclically gapped k-subsets of Z/m, k = d+1."""
    m, k = modulus(d, n), d + 1
    return m * comb(m - k, k) // (m - k)


def object_count(kind: str, d: int, n: int, window=None) -> int:
    if kind == "module":
        return module_count(d, n)
    if kind == "derived":
        return len(labels(kind, d, n, window))
    return cyclic_count(d, n)


def interleaves(a, b) -> bool:
    """a_0 < b_0 < a_1 < b_1 < ... < a_d < b_d."""
    return all(a[i] < b[i] for i in range(len(a))) and \
        all(b[i] < a[i + 1] for i in range(len(a) - 1))


def _normalize(a, m: int) -> tuple:
    return tuple(sorted((v - 1) % m + 1 for v in a))


def ext(kind: str, d: int, n: int, b, a) -> int:
    """Extensions of b by a: the interleaving rule of each model."""
    if kind == "cluster":
        return int(interleaves(a, b) or interleaves(b, a))
    if kind == "derived":
        return int(interleaves(a, b) and b[-1] < a[0] + modulus(d, n))
    return int(interleaves(a, b))


def hom(kind: str, d: int, n: int, src, tgt) -> int:
    """Hom dimension; in the cyclic models via Hom(B, C) = Ext(B, C[1])."""
    m = modulus(d, n)
    if kind in CYCLIC_KINDS:
        up = _normalize(tuple(v + 1 for v in tgt), m)
        return int(interleaves(up, src) or interleaves(src, up))
    chain = interleaves(tuple(v - 1 for v in src), tgt)
    if kind == "module":
        return int(chain)
    return int(chain and tgt[-1] < src[0] + m - 1)


def compose(kind: str, d: int, n: int, x, y, z) -> int:
    """Scalar of the composite of basis morphisms x -> y -> z."""
    if kind not in CYCLIC_KINDS:
        return hom(kind, d, n, x, z)
    m = modulus(d, n)
    for k in range(m):
        a = _normalize(tuple(v + k for v in x), m)
        b = _normalize(tuple(v + k for v in y), m)
        c = _normalize(tuple(v + k for v in z), m)
        if all(a[i] <= b[i] <= c[i] for i in range(d + 1)) and \
                all(c[i] < a[i + 1] - 1 for i in range(d)) and c[d] < a[0] + m - 1:
            return 1
    return 0


def in_family(kind: str, d: int, n: int, t) -> bool:
    """Membership of an exangle middle term in its model's family."""
    if kind != "derived":
        return t in label_set(kind, d, n)
    gapped = all(t[i + 1] - t[i] >= 2 for i in range(len(t) - 1))
    return gapped and t[-1] + 2 <= t[0] + modulus(d, n)


def ext_pair_count(kind: str, d: int, n: int, window=None) -> int:
    """Ordered pairs with a nonzero extension: C(m, 2d+2), doubled for the cluster model."""
    if kind == "module":
        return comb(n + 2 * d, 2 * d + 2)
    if kind == "derived":
        objs = labels(kind, d, n, window)
        return sum(ext(kind, d, n, b, a) for b in objs for a in objs)
    pairs = comb(modulus(d, n), 2 * d + 2)
    return 2 * pairs if kind == "cluster" else pairs


def hom_pair_count(kind: str, d: int, n: int, window=None) -> int:
    objs = labels(kind, d, n, window)
    return sum(hom(kind, d, n, x, y) for x in objs for y in objs)


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


@lru_cache(maxsize=None)
def maximal_rigid(kind: str, d: int, n: int) -> tuple:
    """Maximal independent sets of the interleaving-conflict graph.

    Returned as sorted label tuples, themselves sorted.  The derived
    model is refused: its conflict graph is not the one enumerated here.
    """
    if kind == "derived":
        raise ValueError("no rigid-set enumeration for the derived model")
    objs = labels(kind, d, n)
    size = len(objs)
    full = (1 << size) - 1
    compat = []
    for i, a in enumerate(objs):
        mask = 0
        for j, b in enumerate(objs):
            if i != j and not (interleaves(a, b) or interleaves(b, a)):
                mask |= 1 << j
        compat.append(mask)
    found = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            found.append(r)
            return
        pool = p | x
        pivot = max((i for i in range(size) if pool >> i & 1),
                    key=lambda i: bin(p & compat[i]).count("1"))
        cand = p & ~compat[pivot]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            expand(r | low, p & compat[v], x & compat[v])
            p &= ~low
            x |= low
            cand &= ~low

    expand(0, full, 0)
    return tuple(sorted(tuple(objs[i] for i in range(size) if r >> i & 1) for r in found))


def exchanges(kind: str, d: int, n: int, t, x) -> list:
    """The maximal rigid sets (t minus x) plus one other object.

    Exactly one such set is what makes the mutation of t at x defined,
    and then mutating it back at the new object returns t.
    """
    rest = set(t) - {x}
    return [s for s in maximal_rigid(kind, d, n)
            if s != t and len(s) == len(t) and rest <= set(s)]
