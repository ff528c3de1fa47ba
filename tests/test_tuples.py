import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from itertools import product

from cyclic_oracle import intertwines_cyclic
from pair_rules import m_mix
from hicat.tuples import (
    build_quiver,
    gen_derset_window,
    gen_modset,
    gen_nonconsec,
    in_derset,
    in_modset,
    in_nonconsec,
    intertwines,
    normalize_cyclic,
    rotate_window_rep,
    shift_cluster,
    shift_derived,
)


def brute_modset(m, d):
    """Independent oracle: filter the full product."""
    out = []
    for cand in product(range(1, m + 1), repeat=d + 1):
        if all(cand[i + 1] >= cand[i] + 2 for i in range(d)):
            out.append(cand)
    return sorted(out)


def test_gen_modset_examples():
    assert gen_modset(5, 1) == ((1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5))
    ten = gen_modset(7, 2)
    assert len(ten) == 10
    assert ten == ((1, 3, 5), (1, 3, 6), (1, 3, 7), (1, 4, 6), (1, 4, 7),
                   (1, 5, 7), (2, 4, 6), (2, 4, 7), (2, 5, 7), (3, 5, 7))
    assert gen_modset(2, 1) == ()


@pytest.mark.parametrize("m", range(0, 11))
@pytest.mark.parametrize("d", range(0, 4))
def test_gen_modset_matches_bruteforce(m, d):
    assert list(gen_modset(m, d)) == brute_modset(m, d)


@given(st.integers(min_value=0, max_value=14), st.integers(min_value=0, max_value=4))
def test_gen_modset_count_is_binomial(m, d):
    from math import comb
    assert len(gen_modset(m, d)) == comb(max(m - d, 0), d + 1)


def test_gen_nonconsec_examples():
    assert len(gen_nonconsec(8, 2)) == 16
    assert gen_nonconsec(5, 1) == ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5))
    assert gen_nonconsec(3, 1) == ()


@pytest.mark.parametrize("m,d", [(5, 1), (8, 2), (9, 2), (11, 3)])
def test_nonconsec_complement(m, d):
    full = set(gen_modset(m, d))
    non = set(gen_nonconsec(m, d))
    assert non <= full
    assert full - non == {a for a in full if a[-1] == a[0] + m - 1}
    assert full - non == {a for a in full if a[0] == 1 and a[-1] == m}


def test_gen_derset_window_examples():
    assert gen_derset_window(8, 2, 1, 1) == (
        (1, 3, 5), (1, 3, 6), (1, 3, 7), (1, 4, 6), (1, 4, 7), (1, 5, 7))
    assert gen_derset_window(8, 2, 2, 2) == (
        (2, 4, 6), (2, 4, 7), (2, 4, 8), (2, 5, 7), (2, 5, 8), (2, 6, 8))
    assert gen_derset_window(8, 2, 1, 0) == ()


def test_gen_derset_window_matches_definition():
    got = set(gen_derset_window(8, 2, -1, 3))
    expect = set()
    for a0 in range(-1, 4):
        for a1 in range(a0 + 2, a0 + 10):
            for a2 in range(a1 + 2, a0 + 10):
                if a2 + 2 <= a0 + 8:
                    expect.add((a0, a1, a2))
    assert got == expect


def test_intertwines_examples():
    assert intertwines((1, 3, 5), (2, 4, 6))
    assert not intertwines((2, 4, 6), (1, 3, 5))
    assert not intertwines((1, 3, 5), (1, 4, 6))
    with pytest.raises(ValueError):
        intertwines((1, 3), (1, 3, 5))


@given(st.sampled_from(gen_modset(11, 2)), st.sampled_from(gen_modset(11, 2)))
def test_intertwines_irreflexive_antisymmetric(a, b):
    assert not intertwines(a, a)
    assert not (intertwines(a, b) and intertwines(b, a))


def test_intertwines_cyclic_examples():
    assert intertwines_cyclic((1, 3, 5), (2, 4, 6), 8)
    assert intertwines_cyclic((1, 3, 7), (2, 4, 8), 8)
    assert not intertwines_cyclic((1, 3, 5), (1, 4, 6), 8)
    with pytest.raises(ValueError):
        intertwines_cyclic((0, 3, 5), (2, 4, 6), 8)


@given(st.sampled_from(gen_nonconsec(9, 2)), st.sampled_from(gen_nonconsec(9, 2)))
def test_intertwines_cyclic_equals_linear_either_way(a, b):
    # scanning simultaneous shifts never beats the canonical representatives
    assert intertwines_cyclic(a, b, 9) == (intertwines(a, b) or intertwines(b, a))


@given(st.sampled_from(gen_nonconsec(9, 2)), st.sampled_from(gen_nonconsec(9, 2)),
       st.integers(min_value=0, max_value=8))
def test_intertwines_cyclic_shift_invariant(a, b, k):
    sa = normalize_cyclic(tuple(v + k for v in a), 9)
    sb = normalize_cyclic(tuple(v + k for v in b), 9)
    assert intertwines_cyclic(a, b, 9) == intertwines_cyclic(sa, sb, 9)


def test_m_mix():
    a, b = (1, 3, 5), (2, 4, 6)
    assert m_mix((), a, b) == b
    assert m_mix((0, 1, 2), a, b) == a
    assert m_mix((1,), a, b) == (2, 3, 6)
    with pytest.raises(ValueError):
        m_mix((3,), a, b)


def test_normalize_cyclic():
    assert normalize_cyclic((3, 7, 9), 8) == (1, 3, 7)
    assert normalize_cyclic((0, 2, 4), 8) == (2, 4, 8)
    assert normalize_cyclic((1, 3, 5), 8) == (1, 3, 5)
    with pytest.raises(ValueError):
        normalize_cyclic((1, 9), 8)


def test_shift_derived():
    assert shift_derived((1, 3, 5), 3, 2) == (2, 4, 8)
    assert shift_derived((2, 4, 8), 3, 2) == (3, 7, 9)
    with pytest.raises(ValueError):
        shift_derived((1, 2, 3), 3, 2)


def test_shift_cluster():
    assert shift_cluster((1, 3, 5), 8) == (2, 4, 8)
    assert shift_cluster((2, 4, 8), 8) == (1, 3, 7)
    with pytest.raises(ValueError):
        shift_cluster((1, 3, 8), 8)  # wrap gap 1


@pytest.mark.parametrize("m,d", [(5, 1), (8, 2), (9, 1)])
def test_shift_cluster_bijection_of_order_m(m, d):
    objs = gen_nonconsec(m, d)
    perm = {a: shift_cluster(a, m) for a in objs}
    assert sorted(perm.values()) == sorted(objs)
    current = {a: a for a in objs}
    for step in range(1, m + 1):
        current = {a: perm[v] for a, v in current.items()}
        identity = all(a == v for a, v in current.items())
        assert identity == (step == m)


@given(st.sampled_from(gen_derset_window(8, 2, 1, 8)))
def test_shift_derived_commutes_with_cyclic_reduction(a):
    left = normalize_cyclic(shift_derived(a, 3, 2), 8)
    right = shift_cluster(normalize_cyclic(a, 8), 8)
    assert left == right


def test_rotate_window_rep_preserves_family():
    for a in gen_nonconsec(8, 2):
        r = rotate_window_rep(a, 8)
        assert in_derset(r, 8)
        assert normalize_cyclic(r, 8) == a


def test_membership_helpers():
    assert in_modset((1, 3, 5), 7, 2)
    assert not in_modset((1, 2, 5), 7, 2)
    assert in_derset((2, 9), 9)
    assert not in_derset((2, 10), 9)
    assert in_nonconsec((1, 3), 5)
    assert not in_nonconsec((1, 5), 5)


def test_build_quiver_examples():
    q1 = build_quiver(1, 3)
    assert len(q1.vertices) == 3 and len(q1.arrows) == 2
    q2 = build_quiver(2, 3)
    assert len(q2.vertices) == 6 and len(q2.arrows) == 6
    assert set(q2.vertices) == {(1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5)}
    q3 = build_quiver(3, 3)
    assert len(q3.vertices) == 10 and len(q3.arrows) == 12
    with pytest.raises(ValueError):
        build_quiver(0, 3)
    with pytest.raises(ValueError):
        build_quiver(2, 0)


@pytest.mark.parametrize("d,n", [(1, 3), (2, 3), (3, 3), (2, 5)])
def test_quiver_invariants(d, n):
    q = build_quiver(d, n)
    vset = set(q.vertices)
    for src, tgt, i in q.arrows:
        diff = tuple(t - s for s, t in zip(src, tgt))
        assert diff == tuple(1 if j == i else 0 for j in range(len(src)))
        assert src in vset and tgt in vset
    # every length-2 path appears in exactly one relation
    arrows = {(s, i): t for s, t, i in q.arrows}
    paths = set()
    for (s, i), t in arrows.items():
        for (s2, j), _ in arrows.items():
            if s2 == t:
                paths.add((s, i, j))
    seen = []
    for path, partner in q.relations:
        seen.append(path)
        if partner is not None and partner != path:
            seen.append(partner)
    assert sorted(seen) == sorted(paths)
    assert len(seen) == len(set(seen))
