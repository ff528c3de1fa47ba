from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import pytest

from hicat.exangles import (
    Exangle,
    _failing_positions,
    compare_exangles,
    differential_off_hom,
    hom_exactness_report,
    is_complex,
    middle_terms,
    realize,
)
from hicat.models import (
    CategoryModel,
    almost_positive_model,
    cluster_model,
    derived_model,
    module_model,
    relative_f_model,
)
from hicat.tuples import (
    in_derset,
    in_modset,
    intertwines,
    normalize_cyclic,
    rotate_window_rep,
)
from hicat.quotients import injproj_ideal, projinj_ideal, quotient
from pair_rules import composes_to_zero, composite, m_mix


def oracle_middles(a, b, member, d, project=lambda t: t):
    """Independent middle-term oracle: enumerate all subsets, filter, then project."""
    levels = []
    for r in range(d, 0, -1):
        mixes = (m_mix(I, a, b) for I in combinations(range(d + 1), r))
        levels.append(tuple(sorted(project(t) for t in mixes if member(t))))
    return tuple(levels)


def test_module_realize_example():
    m = module_model(2, 3)
    e = realize(m, (2, 4, 6), (1, 3, 5))
    assert e.x0 == (1, 3, 5) and e.xlast == (2, 4, 6)
    assert e.middles == (((1, 3, 6),), ((1, 4, 6),))
    assert e.middles == oracle_middles((1, 3, 5), (2, 4, 6),
                                       lambda t: in_modset(t, 7, 2), 2)
    assert is_complex(e)


def test_realize_requires_extension():
    m = module_model(2, 3)
    with pytest.raises(ValueError):
        realize(m, (1, 3, 5), (2, 4, 6))


def test_almost_positive_zero_middles():
    ap = almost_positive_model(1, 2)
    e = realize(ap, (3, 5), (1, 4))
    assert e.middles == ((),)
    assert is_complex(e)
    report = hom_exactness_report(e)
    assert report.ok
    # a zero-middle exangle joins ends related by the shift
    from hicat.tuples import shift_derived
    assert shift_derived((1, 4), 2, 1) == (3, 5)


def test_derived_realize_example():
    dw = derived_model(2, 3)
    e = realize(dw, (2, 4, 6), (1, 3, 5))
    assert e.middles == (((1, 3, 6),), ((1, 4, 6),))
    assert e.middles == oracle_middles((1, 3, 5), (2, 4, 6),
                                       lambda t: in_derset(t, 8), 2)


def test_cluster_realize_both_orientations():
    c = cluster_model(1, 2)
    e = realize(c, (2, 4), (1, 3))
    assert e.middles == (((1, 4),),)
    e2 = realize(c, (1, 3), (2, 4))
    assert e2.middles == ((),)
    assert is_complex(e) and is_complex(e2)
    # the empty-middle side pairs ends related by the shift
    assert normalize_cyclic((1, 3), 5) == tuple(v - 1 for v in (2, 4))


def _family_rule(model):
    """The tuple-family membership and projection that realize once filtered by."""
    if model.kind == "module":
        return lambda t: in_modset(t, model.top, model.d), lambda t: t
    m = model.modulus
    if model.kind in ("cluster", "relative-f"):
        return lambda t: in_derset(t, m), lambda t: normalize_cyclic(t, m)
    return lambda t: in_derset(t, m), lambda t: t


@pytest.mark.parametrize("d,n", [(1, 4), (2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("build", [
    module_model, cluster_model, almost_positive_model, relative_f_model,
    lambda d, n: derived_model(d, n, (1, 3)), derived_model,
], ids=["module", "cluster", "almost-positive", "relative-f", "derived-1-3", "derived"])
def test_middles_by_object_match_the_family_rule(build, d, n):
    # realize keeps a mix when its projection is an object of the model; the
    # tuple families give the same middles for every extension pair
    model = build(d, n)
    member, project = _family_rule(model)
    pairs = [(b, a) for b in model.objects for a in model.objects if model.ext_dim(b, a)]
    assert pairs
    for b, a in pairs:
        lift = b
        if model.kind == "cluster" and not intertwines(a, b):
            lift = rotate_window_rep(b, model.modulus)
        assert realize(model, b, a).middles == oracle_middles(a, lift, member, d, project)


def test_cluster_middles_are_objects():
    c = cluster_model(2, 3)
    for b in c.objects:
        for a in c.objects:
            if c.ext_dim(b, a):
                e = realize(c, b, a)
                for level in e.middles:
                    for lbl in level:
                        assert lbl in c


def _reference_realize(model, b, a):
    """realize as it was once written: frozenset subsets, m_mix and a sign per entry."""
    a_rep, b_rep = a, b
    if model.kind == "cluster" and not intertwines(a, b):
        b_rep = rotate_window_rep(b, model.modulus)
    cyclic = model.kind in ("cluster", "relative-f")
    positions = range(model.d + 1)
    levels = [[(frozenset(positions), a)]]
    for r in range(model.d, 0, -1):
        entries = []
        for combo in combinations(positions, r):
            label = m_mix(frozenset(combo), a_rep, b_rep)
            if cyclic:
                label = normalize_cyclic(label, model.modulus)
            if label in model:
                entries.append((frozenset(combo), label))
        levels.append(sorted(entries, key=lambda pair: pair[1]))
    levels.append([(frozenset(), b)])
    diffs = []
    for upper, lower in zip(levels, levels[1:]):
        rows = []
        for J, _ in lower:
            row = []
            for I, _ in upper:
                extra = I - J
                if J < I and len(extra) == 1:
                    i = next(iter(extra))
                    row.append(-1 if sum(1 for j in I if j < i) % 2 else 1)
                else:
                    row.append(0)
            rows.append(tuple(row))
        diffs.append(tuple(rows))
    return Exangle(model, a, b, tuple(tuple(lbl for _, lbl in lvl) for lvl in levels[1:-1]),
                   tuple(diffs))


@pytest.mark.parametrize("build,d,n", [
    (module_model, 3, 3), (derived_model, 2, 4), (cluster_model, 3, 3),
    (almost_positive_model, 2, 4), (relative_f_model, 3, 3), (cluster_model, 1, 6),
])
def test_realize_matches_the_subset_reference(build, d, n):
    # realize reads the subsets, faces and signs of one cube pattern per d
    model = build(d, n)
    pairs = [(b, a) for b in model.objects for a in model.objects if model.ext_dim(b, a)]
    assert pairs
    for b, a in pairs:
        assert compare_exangles(realize(model, b, a), _reference_realize(model, b, a)) is None
        assert middle_terms(model, b, a) == realize(model, b, a).middles


def test_exangles_compose_nothing_until_checked():
    # realizing reads pairs and membership only: no hom table, no composition row;
    # the complex condition reads composition rows, still no column
    model = cluster_model(2, 3)
    e = realize(model, (1, 3, 6), (2, 5, 8))
    assert not {"hom_rows", "_compose_rows", "_compose_cols"} & set(vars(model))
    assert is_complex(e)
    assert model._compose_rows and not vars(model).get("_compose_cols")


def test_corrupted_signs_break_complex():
    # two parallel routes through a two-summand middle must carry opposite
    # signs; forcing both positive breaks the complex condition
    m = module_model(1, 4)
    e = realize(m, (2, 6), (1, 4))
    assert e.middles == (((1, 6), (2, 4)),)
    assert is_complex(e)
    corrupted = Exangle(
        model=e.model, x0=e.x0, xlast=e.xlast, middles=e.middles,
        differentials=tuple(tuple(tuple(abs(v) for v in row) for row in d)
                            for d in e.differentials))
    assert not is_complex(corrupted)


def _sign_flips(e):
    """Copies of e with the sign of one nonzero entry flipped, one per nonzero entry."""
    for p, diff in enumerate(e.differentials):
        for r, c in ((r, c) for r, row in enumerate(diff)
                     for c, v in enumerate(row) if v):
            rows = [list(row) for row in diff]
            rows[r][c] = -rows[r][c]
            flipped = tuple(map(tuple, rows))
            yield replace(e, differentials=e.differentials[:p] + (flipped,)
                          + e.differentials[p + 1:])


@pytest.mark.parametrize("model", [
    build(d, n)
    for d, n in ((2, 3), (1, 4))
    for build in (module_model, cluster_model, almost_positive_model, relative_f_model,
                  lambda d, n: derived_model(d, n, (1, 3)))
] + [
    quotient(module_model(2, 4), projinj_ideal(module_model(2, 4))),
    quotient(relative_f_model(2, 3), injproj_ideal(relative_f_model(2, 3))),
], ids=lambda m: f"{type(m).__name__}-{m.kind}-{m.d}-{m.n}")
def test_complex_condition_matches_the_matrix_product(model):
    # is_complex reads composition rows on the index view; the reference
    # multiplies the label matrices out over one composite at a time
    exangles = [realize(model, b, a) for b in model.objects for a in model.objects
                if model.ext_dim(b, a)]
    assert exangles
    broken = 0
    for e in exangles:
        assert is_complex(e) and composes_to_zero(e)
        for flipped in _sign_flips(e):
            assert is_complex(flipped) == composes_to_zero(flipped)
            broken += not is_complex(flipped)
    assert broken


def test_an_entry_on_a_zero_hom_space_raises():
    # (1, 3, 6) -> (1, 3, 5) has no basis morphism in the module model
    m = module_model(2, 3)
    e = Exangle(m, (1, 3, 6), (1, 3, 7), (((1, 3, 5),),), (((1,),), ((1,),)))
    with pytest.raises(ValueError, match="no basis morphisms"):
        is_complex(e)
    with pytest.raises(ValueError, match="no basis morphisms"):
        composes_to_zero(e)
    assert differential_off_hom(e) == ((1, 3, 6), (1, 3, 5))


def test_the_index_view_is_built_once():
    m = module_model(2, 3)
    e = realize(m, (2, 4, 6), (1, 3, 5))
    terms, entries = e.indexed
    assert terms == tuple(tuple(m.index[x] for x in term) for term in e.terms)
    assert len(entries) == sum(v != 0 for diff in e.differentials for row in diff for v in row)
    for p, r, c, x, y, v in entries:
        assert (m.objects[x], m.objects[y]) == (e.terms[p][c], e.terms[p + 1][r])
        assert e.differentials[p][r][c] == v
    assert e.indexed is e.indexed


def test_exactness_views_are_kept_per_sign_pattern_not_per_model():
    # the same sign matrices in two models: the second exangle's views are
    # all read from what the first one computed
    e1 = realize(module_model(2, 3), (2, 4, 6), (1, 3, 5))
    e2 = realize(almost_positive_model(2, 3), (2, 4, 6), (1, 3, 5))
    assert e1.model != e2.model and e1.differentials == e2.differentials
    _failing_positions.cache_clear()
    assert hom_exactness_report(e1).ok
    first = _failing_positions.cache_info()
    assert first.misses == first.currsize > 0
    assert hom_exactness_report(e2).ok
    second = _failing_positions.cache_info()
    assert second.misses == first.misses and second.hits > first.hits


def test_module_d1_exactness_all_pairs():
    m = module_model(1, 3)
    assert len(m.objects) == 6
    for b in m.objects:
        for a in m.objects:
            if m.ext_dim(b, a):
                report = hom_exactness_report(realize(m, b, a))
                assert report.ok and report.objects_checked == 6


def test_module_exactness_example_counts():
    m = module_model(2, 3)
    e = realize(m, (2, 4, 6), (1, 3, 5))
    report = hom_exactness_report(e)
    assert report.ok
    assert report.objects_checked == 10
    # two complexes, two interior positions each, per test object
    assert report.positions_checked == 40


@pytest.mark.parametrize("model", [
    module_model(2, 2), derived_model(1, 4, (1, 3)),
    cluster_model(1, 4), almost_positive_model(2, 2), relative_f_model(2, 2),
])
def test_realized_exangles_are_exact_complexes(model):
    for b in model.objects:
        for a in model.objects:
            if model.ext_dim(b, a):
                e = realize(model, b, a)
                assert is_complex(e)
                assert hom_exactness_report(e).ok


def reference_failures(model, e):
    """Exactness failures from explicit Hom matrices, ranked by numpy.

    The covariant map Hom(t, source) -> Hom(t, target) and the
    contravariant map Hom(target, t) -> Hom(source, t) of each
    differential are built separately, each in its own direction.
    """
    import numpy as np

    def rank(rows, n_cols):
        matrix = np.array(rows, dtype=float).reshape(len(rows), n_cols)
        return int(np.linalg.matrix_rank(matrix)) if matrix.size else 0

    def entry(maps, x, y, scalar):
        diff, sources, targets = maps
        v = diff[targets.index(y)][sources.index(x)]
        return v * scalar() if v else 0

    failures = []
    for t in model.objects:
        cov, con = [], []
        for maps in zip(e.differentials, e.terms, e.terms[1:]):
            _, sources, targets = maps
            xs = [x for x in sources if model.hom_dim(t, x)]
            ys = [y for y in targets if model.hom_dim(t, y)]
            cov.append(rank([[entry(maps, x, y, lambda: composite(model, t, x, y))
                              for x in xs] for y in ys], len(xs)))
            xs = [x for x in sources if model.hom_dim(x, t)]
            ys = [y for y in targets if model.hom_dim(y, t)]
            con.append(rank([[entry(maps, x, y, lambda: composite(model, x, y, t))
                              for y in ys] for x in xs], len(ys)))
        cov_dims = [sum(model.hom_dim(t, x) for x in term) for term in e.terms]
        con_dims = [sum(model.hom_dim(x, t) for x in term) for term in e.terms]
        for p in range(1, len(e.terms) - 1):
            if cov[p - 1] + cov[p] != cov_dims[p]:
                failures.append((t, "covariant", p))
        for p in range(1, len(e.terms) - 1):
            # Hom(E_p, t) receives from Hom(E_{p+1}, t) and maps to Hom(E_{p-1}, t)
            if con[p] + con[p - 1] != con_dims[p]:
                failures.append((t, "contravariant", p))
    return tuple(failures)


@pytest.mark.parametrize("model,b,a,pos,i,j", [
    (module_model(2, 3), (2, 4, 6), (1, 3, 5), 1, 0, 0),
    (cluster_model(2, 3), (1, 3, 6), (2, 5, 8), 1, 1, 0),
    # composition in the cyclic kinds is not read off the hom table: at (1, 6)
    # some composite between nonzero homs is zero
    (relative_f_model(1, 6), (2, 4), (1, 3), 0, 0, 0),
])
def test_exactness_failures_match_reference(model, b, a, pos, i, j):
    e = realize(model, b, a)
    assert hom_exactness_report(e).failures == reference_failures(model, e) == ()
    diff = e.differentials[pos]
    assert diff[i][j] != 0
    rows = [list(row) for row in diff]
    rows[i][j] = 0
    broken_diff = tuple(map(tuple, rows))
    broken = replace(e, differentials=e.differentials[:pos] + (broken_diff,)
                     + e.differentials[pos + 1:])
    report = hom_exactness_report(broken)
    expected = reference_failures(model, broken)
    assert {orientation for _, orientation, _ in expected} == {"covariant", "contravariant"}
    assert not report.ok
    assert report.failures == expected


class _ZeroComposite(CategoryModel):
    """A model whose composite (1,3,5) -> (1,3,6) -> (1,3,7) is zero."""

    def compose_row(self, i, j):
        row = super().compose_row(i, j)
        if (self.objects[i], self.objects[j]) == ((1, 3, 5), (1, 3, 6)):
            row &= ~(1 << self.index[(1, 3, 7)])
        return row


def test_composition_scalars_enter_the_exactness_ranks():
    # the hom dimensions are unchanged, so only the scalar can break exactness:
    # the contravariant complex Hom(-, (1,3,7)) loses a rank at E_2
    m = module_model(2, 3)
    f = _ZeroComposite(m.kind, m.d, m.n, m.window, m.objects)
    assert hom_exactness_report(realize(m, (2, 4, 6), (1, 3, 5))).ok
    e = realize(f, (2, 4, 6), (1, 3, 5))
    expected = (((1, 3, 7), "contravariant", 1),)
    assert hom_exactness_report(e).failures == reference_failures(f, e) == expected


def fraction_rank(rows):
    """Rank over the rationals by Gaussian elimination on Fractions."""
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


def _signed_matrices(nrows, ncols):
    for values in product((-1, 0, 1), repeat=nrows * ncols):
        yield [list(values[r * ncols:(r + 1) * ncols]) for r in range(nrows)]


@pytest.mark.parametrize("shape", [(r, c) for r in range(1, 4) for c in range(1, 4)]
                         + [(1, k) for k in range(4, 7)] + [(k, 1) for k in range(4, 7)])
def test_rank_matches_fraction_elimination_on_every_signed_matrix(shape):
    from hicat.exangles import _rank

    for rows in _signed_matrices(*shape):
        assert _rank(rows) == fraction_rank(rows), rows


def test_rank_against_numpy():
    import numpy as np
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from hicat.exangles import _rank

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(min_value=-2, max_value=2),
                             min_size=1, max_size=6),
                    min_size=1, max_size=6).filter(
        lambda rows: len({len(r) for r in rows}) == 1))
    def check(rows):
        assert _rank(rows) == np.linalg.matrix_rank(np.array(rows, dtype=float))

    check()


@pytest.mark.parametrize("model", [
    module_model(2, 2), derived_model(2, 2), cluster_model(2, 2),
    almost_positive_model(2, 2), relative_f_model(2, 2),
], ids=lambda m: m.kind)
def test_exactness_shortcut_keeps_every_position(model):
    # pairs whose hom row misses the interior are counted without a matrix,
    # and the failures agree with the reference on every exangle
    pairs = [(b, a) for b in model.objects for a in model.objects if model.ext_dim(b, a)]
    assert pairs
    for b, a in pairs:
        e = realize(model, b, a)
        report = hom_exactness_report(e)
        assert report.positions_checked == 2 * len(model.objects) * model.d
        assert report.failures == reference_failures(model, e)


def test_exangle_shape():
    m = module_model(3, 2)
    pairs = [(b, a) for b in m.objects for a in m.objects if m.ext_dim(b, a)]
    b, a = pairs[0]
    e = realize(m, b, a)
    assert len(e.middles) == 3
    assert len(e.differentials) == 4
    assert e.terms[0] == (a,) and e.terms[-1] == (b,)
    # the first differential has one column, for a, and the last one row, for b
    assert {len(row) for row in e.differentials[0]} == {1}
    assert len(e.differentials[-1]) == 1
    assert (e.x0, e.xlast) == (a, b)
