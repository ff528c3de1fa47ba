"""Ext tables against identities that do not read the ext rule.

Each model builds its ext table from one interleaving rule (``_ext_rule``).
The identities below compute the same extensions from other data: hom
tables, a shift, and an ideal of morphisms.  They cover every pair of the
module, almost-positive and cluster models for d <= 3, n <= 4, and each
pins its orientation where the other one is wrong.
"""
from hicat.models import almost_positive_model, cluster_model, derived_model, module_model
from hicat.quotients import quotient
from hicat.tuples import shift_cluster, shift_derived

GRID = [(d, n) for d in range(1, 4) for n in range(1, 5)]


def _mismatches(model, identity) -> int:
    """The pairs (b, a) whose ext table bit differs from identity(b, a)."""
    objects = model.objects
    return sum((row >> j & 1) != identity(b, a)
               for b, row in zip(objects, model.ext_rows.out)
               for j, a in enumerate(objects))


def _totals(factory, identities) -> list[int]:
    """[pairs, mismatches, mismatches of the other orientation] over the grid.

    identities(model) gives the two orientations, each a function of (b, a).
    """
    totals = [0, 0, 0]
    for d, n in GRID:
        model = factory(d, n)
        forward, backward = identities(model)
        totals[0] += len(model.objects) ** 2
        totals[1] += _mismatches(model, forward)
        totals[2] += _mismatches(model, backward)
    return totals


def _tau(b):
    """The higher Auslander–Reiten translate of a module label: b - 1 entrywise."""
    return tuple(v - 1 for v in b)


def _module_identities(model):
    # Hom-bar: hom modulo the morphisms that factor through an injective
    killed = quotient(model, tuple((z, z) for z in model.objects if z[-1] == model.top)).killed

    def hom_bar(x, y):
        return int(x in model and y in model and model.hom_dim(x, y) == 1
                   and (x, y) not in killed)
    return (lambda b, a: hom_bar(a, _tau(b))), (lambda b, a: hom_bar(_tau(b), a))


def _almost_positive_identities(model):
    # a derived window wide enough to hold the shifts
    d, n = model.d, model.n
    derived = derived_model(d, n, (1, 3 * model.modulus))
    return ((lambda b, a: derived.hom_dim(b, shift_derived(a, n, d))),
            (lambda b, a: derived.hom_dim(a, shift_derived(b, n, d))))


def _cluster_identities(model):
    m = model.modulus
    return ((lambda b, a: model.hom_dim(b, shift_cluster(a, m))),
            (lambda b, a: model.hom_dim(a, shift_cluster(b, m))))


def test_module_ext_is_the_higher_auslander_reiten_formula():
    # Ext^d(b, a) = D Hom-bar(a, tau_d b) (Iyama 2011), where Hom-bar divides
    # out the injectives (a_d = n + 2d); hom-bar(tau_d b, a) is wrong
    assert _totals(module_model, _module_identities) == [2139, 0, 132]


def test_almost_positive_ext_is_a_derived_hom_to_the_shift():
    # ext(b, a) = hom(b, shift of a) in the derived model; hom(a, shift of b)
    # is wrong
    assert _totals(almost_positive_model, _almost_positive_identities) == [5250, 0, 792]


def test_cluster_ext_is_a_hom_to_the_shift():
    # ext(b, a) = hom(b, shift of a).  This pins less than the two identities
    # above: the cyclic ext is symmetric, so hom(a, shift of b) agrees as
    # well, and the cyclic hom rule is itself an interleaving with the
    # shifted source, so the identity is only partly independent of the
    # ext rule
    assert _totals(cluster_model, _cluster_identities) == [5250, 0, 0]
