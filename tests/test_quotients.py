import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hicat.exangles import realize
from hicat.models import (
    almost_positive_model,
    bit_indices,
    cluster_model,
    derived_model,
    module_model,
    relative_f_model,
)
from hicat.quotients import _squeeze, injproj_ideal, quotient
from hicat.verify import grid_points
from pair_rules import column_from_rows, composite


def _identity_objects(arrows):
    """The objects of an ideal generated by objects, asserting its arrows are identities."""
    assert all(z1 == z2 for z1, z2 in arrows)
    return {z for z, _ in arrows}


def _projective_injectives(model):
    """The module labels with a_0 = 1 and a_d = top, in label order."""
    return tuple(z for z in model.objects if z[0] == 1 and z[-1] == model.top)


def test_injproj_ideal_members():
    # the arrows with a nonzero hom from an injective label, a_d = 8 in
    # both models, to a projective one, a_0 = 1
    for model in (module_model(2, 4), relative_f_model(2, 3)):
        want = {(z1, z2) for z1 in model.objects for z2 in model.objects
                if z1[-1] == 8 and z2[0] == 1 and model.hom_dim(z1, z2)}
        assert set(injproj_ideal(model)) == want
    # module (1, 3): (1, 5) is projective and injective, (1, 3) only
    # projective, (2, 4) neither; the one arrow is the identity of (1, 5)
    assert injproj_ideal(module_model(1, 3)) == (((1, 5), (1, 5)),)
    m = module_model(2, 4)
    marked = quotient(m, injproj_ideal(m)).zero_objects
    assert marked == ((1, 3, 8), (1, 4, 8), (1, 5, 8), (1, 6, 8))
    # cross-check: the zero objects are exactly the surplus of the full
    # family over the cyclically gapped one
    from hicat.tuples import gen_modset, gen_nonconsec
    assert len(marked) == len(gen_modset(8, 2)) - len(gen_nonconsec(8, 2))


def test_ideal_kind_mismatch():
    # the module and restricted cyclic models have the ideal, no other kind
    assert injproj_ideal(module_model(1, 3))
    for make in (cluster_model, almost_positive_model, derived_model):
        kind = make(1, 3).kind
        with pytest.raises(ValueError, match=f"no ideal quotient is defined for the {kind} model"):
            injproj_ideal(make(1, 3))


def test_factors_through_object_class():
    m = module_model(1, 3)
    killed = quotient(m, injproj_ideal(m)).killed
    assert m.hom_dim((1, 4), (2, 5)) == m.hom_dim((1, 4), (2, 4)) == 1
    assert ((1, 4), (2, 5)) in killed
    assert ((1, 4), (2, 4)) not in killed


def _shifted_projective_ideal(model):
    return tuple((z, z) for z in model.objects if z[-1] == model.modulus)


@pytest.mark.parametrize("d,n", [(1, 3), (2, 3), (3, 2), (2, 5), (3, 4), (4, 3), (5, 3), (1, 7)])
@pytest.mark.parametrize("make,ideal_of", [
    (module_model, injproj_ideal),
    (cluster_model, _shifted_projective_ideal),
])
def test_identity_arrow_ideal_is_the_object_ideal(d, n, make, ideal_of):
    # the quotient kills exactly the morphisms factoring through an object:
    # in the module model a projective-injective, though the injective-to-
    # projective arrows are more than their identities; in the cyclic model
    # a shifted projective, whose identities are the arrows
    model = make(d, n)
    ideal = ideal_of(model)
    if make is module_model:
        objects = set(_projective_injectives(model))
    else:
        objects = _identity_objects(ideal)
    assert objects
    q = quotient(model, ideal)
    assert set(q.zero_objects) == objects
    killed = q.killed
    count = 0
    for s in model.objects:
        for t in model.objects:
            if not model.hom_dim(s, t):
                continue
            by_objects = any(model.hom_dim(s, z) and model.hom_dim(z, t)
                             and composite(model, s, z, t) for z in objects)
            assert ((s, t) in killed) == by_objects
            count += by_objects
    assert count


def _closure(model, ideal):
    """The ideal as a set of basis morphisms, by fixpoint: its arrows closed
    under nonzero pre- and post-composition with basis morphisms."""
    closed = set(ideal)
    todo = list(closed)
    while todo:
        x, y = todo.pop()
        grown = [(x, z) for z in model.objects
                 if model.hom_dim(y, z) and composite(model, x, y, z)]
        grown += [(w, y) for w in model.objects
                  if model.hom_dim(w, x) and composite(model, w, x, y)]
        for arrow in grown:
            if arrow not in closed:
                closed.add(arrow)
                todo.append(arrow)
    return closed


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([
    (module_model, injproj_ideal),
    (relative_f_model, injproj_ideal),
    (cluster_model, _shifted_projective_ideal),
]), st.sampled_from(grid_points(7, 10, 60)))
def test_one_admissible_arrow_decides_membership(case, point):
    # quotient tests one admissible arrow per morphism; the ideal closed
    # under composition must hold exactly the morphisms it kills
    make, ideal_of = case
    model = make(*point)
    ideal = ideal_of(model)
    closed = _closure(model, ideal)
    homs = {(s, t) for s in model.objects for t in model.objects if model.hom_dim(s, t)}
    assert closed <= homs
    assert quotient(model, ideal).killed == closed


def test_ideal_arrows_are_sorted_label_pairs():
    for model, arrows in ((module_model(2, 4), injproj_ideal(module_model(2, 4))),
                          (relative_f_model(2, 3), injproj_ideal(relative_f_model(2, 3)))):
        assert arrows and arrows == tuple(sorted(arrows))
        assert all(model.hom_dim(z1, z2) for z1, z2 in arrows)


def test_quotient_reads_its_arrows_in_one_pass():
    # the arrows may come as any iterable, a generator among them
    m = relative_f_model(2, 3)
    arrows = injproj_ideal(m)
    q = quotient(m, arrows)
    assert quotient(m, (arrow for arrow in arrows)) == q
    assert q.killed == {(m.objects[s], m.objects[t]) for s, row in enumerate(q.killed_rows)
                        for t in range(len(m.objects)) if row >> t & 1}


def test_quotient_rejects_an_arrow_off_the_model():
    # (1, 6) is projective-injective in module (1, 4) and no object of module (1, 3)
    small, large = module_model(1, 3), module_model(1, 4)
    with pytest.raises(ValueError, match=r"\(1, 6\) is not an object of module"):
        quotient(small, injproj_ideal(large))


def test_quotient_module_examples():
    m = module_model(1, 3)
    q = quotient(m, injproj_ideal(m))
    assert q.zero_objects == ((1, 5),)
    assert len(q.objects) == 5
    m2 = module_model(2, 4)
    q2 = quotient(m2, injproj_ideal(m2))
    assert len(q2.objects) == 16


@pytest.mark.parametrize("d,n", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_quotient_composition_is_the_base_one_where_both_homs_survive(d, n):
    # the rule of the quotient's own composition cache, kept here: the base
    # row, squeezed to the objects, within the hom rows of both ends
    module, relf = module_model(d, n + 1), relative_f_model(d, n)
    for q in (quotient(module, injproj_ideal(module)), quotient(relf, injproj_ideal(relf))):
        keep, drop = q._kept
        out, base = q.hom_rows.out, q.base
        pairs = 0
        for i, reach in enumerate(out):
            for j in bit_indices(reach):
                want = _squeeze(base.compose_row(keep[i], keep[j]), drop) & out[i] & out[j]
                assert q.compose_row(i, j) == want, (q.kind, q.objects[i], q.objects[j])
                if q.kind == module.kind:
                    assert want == out[i] & out[j], (q.objects[i], q.objects[j])
                pairs += 1
        assert pairs


@pytest.mark.parametrize("factory", [module_model, cluster_model])
def test_a_killed_hom_is_no_composite_of_surviving_ones(factory):
    # dividing by the arrow (1, 3) -> (1, 5) kills it, though (1, 3) -> (1, 4)
    # and (1, 4) -> (1, 5) survive and compose to it in the base
    model = factory(1, 3)
    q = quotient(model, [((1, 3), (1, 5))])
    x, y, z = (1, 3), (1, 4), (1, 5)
    assert composite(model, x, y, z) == 1
    assert (q.hom_dim(x, y), q.hom_dim(y, z), q.hom_dim(x, z)) == (1, 1, 0)
    assert composite(q, x, y, z) == 0
    assert not q.compose_column(q.index[y], q.index[z]) >> q.index[x] & 1


@pytest.mark.parametrize("d,n", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_quotient_compose_column_is_the_column_of_its_rows(d, n):
    module, relf = module_model(d, n + 1), relative_f_model(d, n)
    for q in (quotient(module, injproj_ideal(module)), quotient(relf, injproj_ideal(relf))):
        size = len(q.objects)
        for j in range(size):
            for k in range(size):
                assert q.compose_column(j, k) == column_from_rows(q, j, k), \
                    (q.kind, q.objects[j], q.objects[k])


def test_quotient_zero_objects_are_exactly_the_class():
    # the module quotient's zero objects are the projective-injectives, in label order
    m = module_model(2, 3)
    q = quotient(m, injproj_ideal(m))
    assert q.zero_objects == _projective_injectives(m) == ((1, 3, 7), (1, 4, 7), (1, 5, 7))


def test_injproj_quotient_has_no_zero_objects():
    rf = relative_f_model(1, 6)
    q = quotient(rf, injproj_ideal(rf))
    assert q.zero_objects == ()
    # this hom survives the arrow ideal
    assert q.hom_dim((1, 5), (2, 6)) == 1
    # while the base hom space through the shifted projective route is
    # already zero, so nothing else is lost on this pair
    assert rf.hom_dim((1, 5), (4, 8)) == 0


def test_relative_f_factoring_branch():
    # when the target-to-source chain interleaves the other way around,
    # the morphism factors through a shifted-projective-to-projective arrow
    rf = relative_f_model(2, 3)
    ideal = injproj_ideal(rf)
    q = quotient(rf, ideal)
    found_killed = found_survivor = False
    for src in rf.objects:
        for tgt in rf.objects:
            if rf.hom_dim(src, tgt) == 0:
                continue
            a, b = tgt, src
            backwards = all(a[i] < b[i] - 1 for i in range(3)) and \
                all(b[i] - 1 < a[i + 1] for i in range(2))
            if backwards:
                found_killed = True
                assert (src, tgt) in q.killed
                assert q.hom_dim(src, tgt) == 0
            elif q.hom_dim(src, tgt):
                found_survivor = True
    assert found_killed and found_survivor


@pytest.mark.parametrize("make,ideal_of", [
    (lambda: relative_f_model(1, 4), injproj_ideal),
    (lambda: relative_f_model(2, 2), injproj_ideal),
    (lambda: module_model(1, 3), injproj_ideal),
    (lambda: module_model(2, 3), injproj_ideal),
    (lambda: cluster_model(2, 2), _shifted_projective_ideal),
])
def test_killed_set_is_an_ideal(make, ideal_of):
    model = make()
    q = quotient(model, ideal_of(model))
    killed = q.killed
    homs = [(x, y) for x in model.objects for y in model.objects
            if model.hom_dim(x, y)]
    for x, y in killed:
        for _, z in ((p, q2) for p, q2 in homs if p == y):
            if composite(model, x, y, z):
                assert (x, z) in killed, f"{(x, z)} escapes post-composition"
        for w, _ in ((p, q2) for p, q2 in homs if q2 == x):
            if composite(model, w, x, y):
                assert (w, y) in killed, f"{(w, y)} escapes pre-composition"


def test_quotient_exangle_strips_zero_summands():
    m = module_model(2, 3)
    q = quotient(m, injproj_ideal(m))
    dead = set(q.zero_objects)
    for b in q.objects:
        for a in q.objects:
            if m.ext_dim(b, a):
                e = realize(q, b, a)
                for term in e.terms:
                    assert not (set(term) & dead)
