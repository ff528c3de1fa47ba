import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hicat.models import (
    DERIVED,
    KINDS,
    CategoryModel,
    almost_positive_model,
    bit_indices,
    cluster_model,
    derived_model,
    make_model,
    module_model,
    relative_f_model,
)
from hicat.tuples import gen_derset_window, gen_modset, gen_nonconsec
from pair_rules import column_from_rows, composite, with_bit


def test_object_sets():
    assert module_model(2, 3).objects == gen_modset(7, 2)
    assert cluster_model(2, 3).objects == gen_nonconsec(8, 2)
    assert almost_positive_model(2, 3).objects == gen_nonconsec(8, 2)
    assert relative_f_model(2, 3).objects == gen_nonconsec(8, 2)
    assert derived_model(2, 3).objects == gen_derset_window(8, 2, 1, 8)
    assert derived_model(2, 3, (1, 3)).objects == gen_derset_window(8, 2, 1, 3)


def test_bad_params():
    with pytest.raises(ValueError):
        module_model(0, 3)
    with pytest.raises(ValueError):
        cluster_model(1, 0)
    with pytest.raises(ValueError):
        make_model("nonsense", 1, 1)
    with pytest.raises(ValueError):
        make_model("cluster", 1, 2, window=(1, 2))
    with pytest.raises(ValueError, match="window 3:1 is empty"):
        derived_model(1, 2, (3, 1))
    assert derived_model(1, 2, (3, 3)).objects == gen_derset_window(5, 1, 3, 3) == ((3, 5), (3, 6))


def test_hom_examples():
    m = module_model(2, 3)
    assert m.hom_dim((1, 3, 5), (1, 3, 6)) == 1
    c = cluster_model(1, 6)
    assert c.hom_dim((1, 5), (2, 6)) == 1
    assert c.hom_dim((4, 8), (2, 6)) == 1
    # the two end labels overlap after the one-step shift, so this hom space
    # is zero: no simultaneous rotation interleaves {4,9} with {4,8}
    assert c.hom_dim((1, 5), (4, 8)) == 0
    ap = almost_positive_model(2, 3)
    assert ap.hom_dim((2, 4, 7), (2, 4, 8)) == 1
    assert ap.hom_dim((1, 3, 5), (4, 6, 8)) == 0


def test_hom_membership_errors():
    m = module_model(2, 3)
    with pytest.raises(ValueError):
        m.hom_dim((1, 3, 9), (1, 3, 5))
    with pytest.raises(ValueError):
        m.ext_dim((1, 3, 5), (0, 2, 4))


def test_indices_read_the_labels_once():
    m = module_model(1, 3)
    assert m._indices([(1, 3), (2, 4)]) == [0, 3]
    assert m._indices(x for x in [(1, 3), (2, 4)]) == [0, 3]
    with pytest.raises(ValueError, match=r"\(1, 2\) is not an object of module"):
        m._indices(x for x in [(1, 3), (1, 2), (9, 9)])


def test_ext_examples():
    m = module_model(2, 3)
    assert m.ext_dim((2, 4, 6), (1, 3, 5)) == 1
    c = cluster_model(2, 3)
    assert c.ext_dim((1, 3, 5), (2, 4, 6)) == 1
    assert c.ext_dim((2, 4, 6), (1, 3, 5)) == 1
    rf = relative_f_model(2, 3)
    assert rf.ext_dim((2, 4, 6), (1, 3, 5)) == 1
    assert rf.ext_dim((1, 3, 5), (2, 4, 6)) == 0


@pytest.mark.parametrize("model", [
    module_model(2, 3), cluster_model(1, 4), almost_positive_model(2, 3),
    relative_f_model(1, 4), derived_model(1, 3),
])
def test_ext_irreflexive_and_hom_reflexive(model):
    for a in model.objects:
        assert model.ext_dim(a, a) == 0
        assert model.hom_dim(a, a) == 1


def test_compose_examples():
    m = module_model(2, 3)
    assert m.hom_dim((1, 3, 5), (1, 3, 6)) == m.hom_dim((1, 3, 6), (1, 3, 7)) == 1
    assert composite(m, (1, 3, 5), (1, 3, 6), (1, 3, 7)) == 1
    assert m.hom_dim((1, 3, 6), (1, 4, 6)) == 1
    assert composite(m, (1, 3, 5), (1, 3, 6), (1, 4, 6)) == 0


def test_cluster_noncommuting_example():
    c = cluster_model(1, 6)
    # the hom space O_15 -> O_48 vanishes, so there is no basis morphism
    # along that leg and every composite through O_48 is zero
    assert c.hom_dim((1, 5), (4, 8)) == 0
    assert c.hom_dim((1, 5), (2, 6)) == 1
    # an honest witness: both legs nonzero, composite zero, target hom nonzero
    assert c.hom_dim((1, 5), (3, 7)) == 1
    assert c.hom_dim((3, 7), (1, 5)) == 1
    assert composite(c, (1, 5), (3, 7), (1, 5)) == 0
    assert c.hom_dim((1, 5), (1, 5)) == 1


@pytest.mark.parametrize("model", [
    module_model(1, 4), cluster_model(1, 3), almost_positive_model(1, 4),
])
def test_compose_unit_law(model):
    for x in model.objects:
        for y in model.objects:
            if model.hom_dim(x, y):
                assert composite(model, x, x, y) == 1
                assert composite(model, x, y, y) == 1


@given(st.sampled_from(gen_nonconsec(9, 1)), st.sampled_from(gen_nonconsec(9, 1)))
def test_cluster_hom_is_shifted_crossing(src, tgt):
    # hom nonzero exactly when the shifted source cyclically interleaves the target
    from cyclic_oracle import intertwines_cyclic
    from hicat.tuples import normalize_cyclic
    c = cluster_model(1, 6)
    shifted = normalize_cyclic(tuple(v - 1 for v in src), 9)
    overlap = set(shifted) & set(tgt)
    expected = not overlap and intertwines_cyclic(shifted, tgt, 9)
    assert c.hom_dim(src, tgt) == (1 if expected else 0)


@pytest.mark.parametrize("model", [
    module_model(2, 3), derived_model(1, 3, (1, 3)), cluster_model(2, 2),
    almost_positive_model(1, 4), relative_f_model(1, 3), derived_model(3, 2, (2, 5)),
])
def test_hom_rows_are_the_hom_table(model):
    # sorted objects let the one index give both bit order and label order
    assert list(model.objects) == sorted(model.objects)
    assert model.index == {x: i for i, x in enumerate(model.objects)}
    hom, ext = model.hom_rows, model.ext_rows
    for i, x in enumerate(model.objects):
        for j, y in enumerate(model.objects):
            assert hom.out[i] >> j & 1 == hom.into[j] >> i & 1 == model.hom_dim(x, y)
            assert ext.out[i] >> j & 1 == ext.into[j] >> i & 1 == model.ext_dim(x, y)
            assert model.conflict_rows[i] >> j & 1 == model.ext_dim(x, y) | model.ext_dim(y, x)


@st.composite
def _models(draw):
    """A model of any kind with d <= 4, n <= 5 and at most 400 objects;
    a derived model on a random window of up to four layers, or the default."""
    kind = draw(st.sampled_from(KINDS))
    d, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    window = None
    if kind == DERIVED and draw(st.booleans()):
        m = n + 2 * d + 1
        lo = draw(st.integers(-m, 2 * m))
        window = (lo, lo + draw(st.integers(0, 3)))
    model = make_model(kind, d, n, window)
    assume(len(model.objects) <= 400)
    return model


@settings(max_examples=40, deadline=None)
@given(_models())
def test_rows_and_pairs_follow_the_reference_rules(model):
    # every bit of both tables is the old per-pair rule, and a pair answer is
    # the same from the rule (no table built) and from the table's bit
    from pair_rules import reference_ext, reference_hom
    fresh = make_model(model.kind, model.d, model.n, model.window)
    hom, ext = model.hom_rows, model.ext_rows
    for i, x in enumerate(model.objects):
        for j, y in enumerate(model.objects):
            want_hom, want_ext = reference_hom(model, x, y), reference_ext(model, x, y)
            assert hom.out[i] >> j & 1 == hom.into[j] >> i & 1 == want_hom
            assert ext.out[i] >> j & 1 == ext.into[j] >> i & 1 == want_ext
            assert fresh.hom_dim(x, y) == model.hom_dim(x, y) == want_hom
            assert fresh.ext_dim(x, y) == model.ext_dim(x, y) == want_ext
    assert "hom_rows" not in vars(fresh) and "ext_rows" not in vars(fresh)


def _chain_position(a, b, c, m):
    """Chain position of three tuples in one coordinate system on [1, m]."""
    d = len(a) - 1
    return all(a[i] <= b[i] <= c[i] for i in range(d + 1)) \
        and all(c[i] < a[i + 1] - 1 for i in range(d)) and c[d] < a[0] + m - 1


def _rotations(x, m):
    """The m rotations x + k, k = 0 .. m - 1, each normalized afresh."""
    from hicat.tuples import normalize_cyclic
    return [normalize_cyclic(tuple(v + k for v in x), m) for k in range(m)]


def _chain_position_oracle(x, y, z, m):
    """The cyclic composition rule, scanning every rotation."""
    rotated = zip(*(_rotations(t, m) for t in (x, y, z)))
    return 1 if any(_chain_position(a, b, c, m) for a, b, c in rotated) else 0


@pytest.mark.parametrize("model", [cluster_model(1, 4), cluster_model(2, 2),
                                   relative_f_model(1, 5)])
def test_cyclic_composition_from_rotation_table(model):
    composable = [(x, y, z) for x in model.objects for y in model.objects
                  for z in model.objects if model.hom_dim(x, y) and model.hom_dim(y, z)]
    assert composable
    for x, y, z in composable:
        assert composite(model, x, y, z) == _chain_position_oracle(x, y, z, model.modulus)


@pytest.mark.parametrize("factory", [cluster_model, relative_f_model])
def test_cyclic_composition_rows_match_the_chain_position_rule(factory):
    # every composable row of the box rule, which tries one rotation per
    # entry of x, against all m rotations of the chain-position rule; the
    # rotations that fail x <= y already fail every z and are dropped first
    rows = 0
    for d in range(1, 4):
        for n in range(1, 7):
            model = factory(d, n)
            m, out = model.modulus, model.hom_rows.out
            rotated = [_rotations(x, m) for x in model.objects]
            for i in range(len(model.objects)):
                for j in bit_indices(out[i]):
                    ks = [k for k in range(m)
                          if all(a <= b for a, b in zip(rotated[i][k], rotated[j][k]))]
                    want = sum(1 << z for z in bit_indices(out[j])
                               if any(_chain_position(rotated[i][k], rotated[j][k],
                                                      rotated[z][k], m) for k in ks))
                    assert model.compose_row(i, j) == want, (model.objects[i], model.objects[j])
                    rows += 1
    assert rows == 6092


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d,n", [(1, 4), (2, 3), (3, 2)])
def test_compose_column_is_the_column_of_the_rows(kind, d, n):
    # every pair (j, k), composable or not, against the column read off the rows
    model = make_model(kind, d, n)
    size = len(model.objects)
    for j in range(size):
        for k in range(size):
            assert model.compose_column(j, k) == column_from_rows(model, j, k), \
                (model.objects[j], model.objects[k])


@pytest.mark.parametrize("factory", [module_model, cluster_model])
def test_composition_stays_in_the_hom_table_of_the_middle_object(factory):
    # with one hom y -> z cleared from the table but not from the rule, no
    # row through y reaches z and every column is still the column of the rows
    model = factory(1, 4)
    size = len(model.objects)
    for y, reach in enumerate(model.hom_rows.out):
        for z in bit_indices(reach & ~(1 << y)):
            class Cleared(CategoryModel):
                hom_rows = with_bit(model.hom_rows, y, z, 0)

            cleared = Cleared(model.kind, model.d, model.n, model.window, model.objects)
            out = cleared.hom_rows.out
            for i in range(size):
                if out[i] >> y & 1:
                    assert not cleared.compose_row(i, y) >> z & 1, (i, y, z)
            for j in range(size):
                for k in range(size):
                    assert cleared.compose_column(j, k) == column_from_rows(cleared, j, k), \
                        (y, z, j, k)
