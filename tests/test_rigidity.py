import os
import subprocess
import sys
from dataclasses import dataclass
from functools import cached_property
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hicat.exangles import realize
from hicat.models import (
    BitRows,
    CategoryModel,
    almost_positive_model,
    bit_indices,
    cluster_model,
    derived_model,
    module_model,
    relative_f_model,
)
from hicat.quotients import QuotientModel, projinj_ideal
from hicat.rigidity import (
    _maximal_independent,
    _MutationScanner,
    _scan_tilting,
    correspondence_check,
    count_maximal_rigid,
    exchange_exangles,
    maximal_rigid,
    mutate,
    mutation_graph_dot,
)

from pair_rules import with_bit


def brute_maximal_independent(objects, conflict):
    """Independent oracle: grow every subset and keep the maximal ones."""
    results = set()

    def extend(chosen, rest):
        grew = False
        for i, y in enumerate(rest):
            if all(not conflict(y, c) for c in chosen):
                grew = True
                extend(chosen + (y,), rest[i + 1:])
        if not grew:
            full = chosen
            for y in objects:
                if y not in full and all(not conflict(y, c) for c in full):
                    return
            results.add(tuple(sorted(full)))

    extend((), tuple(objects))
    return sorted(results)


def brute_mutations(model, summands, x):
    """Independent oracle: the outside objects y that make rest + {y} maximal rigid."""
    conflict = lambda u, v: bool(model.ext_dim(u, v) or model.ext_dim(v, u))
    rest = [s for s in summands if s != x]

    def maximal_rigid_set(chosen):
        return all(not conflict(u, v) for u in chosen for v in chosen) and \
            all(any(conflict(y, c) for c in chosen)
                for y in model.objects if y not in chosen)

    return [y for y in model.objects
            if y not in summands and maximal_rigid_set(rest + [y])]


def brute_exchanges(model, summands, x):
    """Independent oracle: extensions between x and a compatible y, middles in the rest."""
    conflict = lambda u, v: bool(model.ext_dim(u, v) or model.ext_dim(v, u))
    rest = [s for s in summands if s != x]
    found = []
    for y in model.objects:
        if y in summands or any(conflict(y, r) for r in rest):
            continue
        for b, a in ((x, y), (y, x)):
            if model.ext_dim(b, a):
                e = realize(model, b, a)
                if all(lbl in rest for level in e.middles for lbl in level):
                    found.append(e)
    return sorted(found, key=lambda e: (e.x0, e.xlast))


def test_maximal_rigid_small_examples():
    ap = almost_positive_model(1, 2)
    sets = list(maximal_rigid(ap))
    assert sets == [((1, 3), (1, 4)), ((1, 3), (3, 5)), ((1, 4), (2, 4)),
                    ((2, 4), (2, 5)), ((2, 5), (3, 5))]
    mod = module_model(1, 3)
    tilts = maximal_rigid(mod)
    assert len(tilts) == 5
    assert all(len(t) == 3 for t in tilts)
    assert all((1, 5) in t for t in tilts)


@pytest.mark.parametrize("n,d,count", [
    *(pytest.param(1, d, 2, id=str(d)) for d in range(1, 6)),
    *(pytest.param(2, d, 2 * d + 3, id=f"{d}-n2") for d in range(1, 6)),
])
def test_two_full_size_maximal_rigid_sets_from_2d_plus_2_points(n, d, count):
    # A known answer from outside the predicate.  A maximal rigid set of
    # module_model(d, n + 1) has full size when it has comb(n + d - 1, d)
    # summands plus the projective-injectives.  Oppermann-Thomas 2012 match
    # these sets with the triangulations of the cyclic polytope
    # C(n + 2d + 1, 2d), which has N = dimension + n + 1 vertices.
    # - n = 1, N = 2d + 2: the points carry one affine dependence, hence one
    #   Radon partition, and have exactly two triangulations, one from each
    #   side of it.
    # - n = 2, N = 2d + 3: by Gale duality the N points become N vectors in
    #   the plane, in pairwise distinct directions on the moment curve.  Every
    #   triangulation of dimension + 3 points is regular, and the regular ones
    #   are the chambers of the Gale dual, here the N cones between
    #   consecutive rays: N = 2d + 3 triangulations (De Loera, Rambau and
    #   Santos, "Triangulations", Springer 2010: Gale duality and the
    #   chamber complex of a configuration of dimension + 3 points).
    model = module_model(d, n + 1)
    projinj = {z for z, _ in projinj_ideal(model)}
    full = comb(n + d - 1, d) + len(projinj)
    assert sum(len(t) == full for t in maximal_rigid(model)) == count


@pytest.mark.parametrize("model", [
    almost_positive_model(1, 3), cluster_model(1, 3), module_model(1, 4),
    almost_positive_model(2, 2), relative_f_model(2, 3),
    derived_model(2, 3, (1, 3)), module_model(3, 2),
])
def test_maximal_rigid_matches_bruteforce(model):
    conflict = lambda x, y: bool(model.ext_dim(x, y) or model.ext_dim(y, x))
    expected = brute_maximal_independent(model.objects, conflict)
    got = list(maximal_rigid(model))
    assert got == expected


def test_cluster_equals_relative_rigid_sets():
    # both extension structures symmetrize to the same conflict graph
    for d, n in [(1, 3), (2, 3)]:
        cl = list(maximal_rigid(cluster_model(d, n)))
        rf = list(maximal_rigid(relative_f_model(d, n)))
        assert cl == rf


@pytest.mark.parametrize("d,n", [(1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4)])
def test_maximal_rigid_sets_have_equal_cardinality_low_d(d, n):
    for model in (cluster_model(d, n), almost_positive_model(d, n)):
        sizes = {len(s) for s in maximal_rigid(model)}
        assert len(sizes) == 1


def test_maximal_rigid_sets_not_pure_at_d3():
    # genuinely maximal rigid sets of different sizes coexist once d
    # reaches 3; confirmed against the brute-force oracle
    from collections import Counter
    model = almost_positive_model(3, 2)
    sets = list(maximal_rigid(model))
    conflict = lambda x, y: bool(model.ext_dim(x, y) or model.ext_dim(y, x))
    assert sets == brute_maximal_independent(model.objects, conflict)
    assert dict(Counter(len(s) for s in sets)) == {4: 9, 3: 3}


def test_exchange_example():
    ap = almost_positive_model(1, 2)
    t = ((1, 3), (1, 4))
    exchanges = exchange_exangles(ap, t, (1, 4))
    assert len(exchanges) == 1
    e = exchanges[0]
    assert (e.x0, e.xlast) == ((1, 4), (3, 5))
    assert e.middles == ((),)
    with pytest.raises(ValueError):
        exchange_exangles(ap, t, (2, 4))


def test_exchange_needs_maximal_rigid_set():
    ap = almost_positive_model(1, 2)
    # rigid, but (1, 4) and (3, 5) can still be added
    t = ((1, 3),)
    with pytest.raises(ValueError, match="maximal rigid"):
        exchange_exangles(ap, t, (1, 3))
    with pytest.raises(ValueError, match="maximal rigid"):
        mutate(ap, t, (1, 3))


@pytest.mark.parametrize("t,message", [
    # neither (2, 9) nor (9, 9) is an object; the first of them is named
    (((1, 3), (2, 9), (9, 9)), "(2, 9) is not an object of almost-positive(d=1, n=2)"),
    # rigid, but (1, 4) and (3, 5) can still be added
    (((1, 3),), "mutation needs a maximal rigid set"),
    # (1, 3) and (2, 4) conflict, although nothing else can be added
    (((1, 3), (1, 4), (2, 4), (3, 5)), "mutation needs a maximal rigid set"),
])
@pytest.mark.parametrize("call", [mutate, exchange_exangles])
def test_a_set_that_is_not_maximal_rigid_is_refused(call, t, message):
    ap = almost_positive_model(1, 2)
    with pytest.raises(ValueError) as exc:
        call(ap, t, (1, 3))
    assert str(exc.value) == message


def test_exchange_middles_stay_in_rest():
    mod = module_model(1, 3)
    t = ((1, 3), (1, 4), (1, 5))
    exchanges = exchange_exangles(mod, t, (1, 4))
    assert exchanges
    for e in exchanges:
        for level in e.middles:
            assert set(level) <= {(1, 3), (1, 5)}


def test_exchange_empty_when_no_replacement():
    mod = module_model(1, 3)
    t = ((1, 3), (1, 4), (1, 5))
    # the projective-injective summand admits no replacement
    assert exchange_exangles(mod, t, (1, 5)) == ()
    assert mutate(mod, t, (1, 5)) is None


def test_mutate_examples():
    ap = almost_positive_model(1, 2)
    t = ((1, 3), (1, 4))
    r = mutate(ap, t, (1, 4))
    assert r.summands == ((1, 3), (3, 5))
    assert r.replaced_by == (3, 5)
    assert len(r.exchanges) == 1
    r2 = mutate(ap, t, (1, 3))
    assert r2.summands == ((1, 4), (2, 4))
    with pytest.raises(ValueError):
        mutate(ap, t, (3, 5))
    # (1, 3) and (2, 4) have an extension, so they form no rigid set
    with pytest.raises(ValueError, match="maximal rigid set"):
        mutate(ap, ((1, 3), (2, 4)), (1, 3))


def test_repeated_summands_are_rejected():
    ap = almost_positive_model(1, 2)
    t = ((1, 3), (1, 3), (1, 4))
    for call in (mutate, exchange_exangles):
        with pytest.raises(ValueError, match="repeated summands"):
            call(ap, t, (1, 4))


@pytest.mark.parametrize("model", [
    almost_positive_model(1, 3), almost_positive_model(2, 2), cluster_model(1, 3),
])
def test_mutate_is_involution(model):
    for t in maximal_rigid(model):
        for x in t:
            r = mutate(model, t, x)
            if r is None:
                continue
            back = mutate(model, r.summands, r.replaced_by)
            assert back is not None
            assert back.summands == t
            assert back.replaced_by == x


@pytest.mark.parametrize("d,n", [(1, 3), (2, 3), (3, 2)])
@pytest.mark.parametrize("factory", [
    almost_positive_model, cluster_model, relative_f_model, module_model,
])
def test_mutate_matches_bruteforce(factory, d, n):
    model = factory(d, n)
    for t in maximal_rigid(model):
        for x in t:
            expected = brute_mutations(model, t, x)
            if len(expected) > 1:
                with pytest.raises(ValueError, match="ambiguous"):
                    mutate(model, t, x)
                continue
            r = mutate(model, t, x)
            if not expected:
                assert r is None
                continue
            y = expected[0]
            assert r.replaced_by == y
            assert r.summands == tuple(sorted(set(t) - {x} | {y}))
            want = brute_exchanges(model, t, x)
            assert [(e.x0, e.xlast, e.middles) for e in r.exchanges] == \
                [(e.x0, e.xlast, e.middles) for e in want]
            assert r.exchanges == exchange_exangles(model, t, x)


@pytest.mark.parametrize("d,n", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_correspondence_grid_points(d, n):
    report = correspondence_check(d, n)
    assert report.ok, report.summary()
    assert report.counters["tilting_sets"] == report.counters["ap_maximal_rigid"]
    assert report.counters["ap_maximal_rigid"] == report.counters["relf_maximal_rigid"]


#: (exchange_exangles, mutations_checked, set_size_min, set_size_max) off the default grid
REACH_COUNTERS = {
    (1, 8): (38896, 77792, 8, 8),
    (2, 5): (30240, 144720, 15, 15),
    (4, 3): (14290, 93456, 9, 15),
}


@pytest.mark.parametrize("d,n,count", [(1, 8, 4862), (2, 5, 4824), (4, 3, 3872)])
def test_correspondence_reach(d, n, count):
    # points beyond the default grid; (1, 8) is Catalan(9), (4, 3) the first d = 4 point
    report = correspondence_check(d, n)
    assert report.ok, report.summary()
    exchanges, mutations, smallest, largest = REACH_COUNTERS[(d, n)]
    assert report.counters == {
        "tilting_sets": count, "ap_maximal_rigid": count, "relf_maximal_rigid": count,
        "exchange_exangles": exchanges, "mutations_checked": mutations,
        "set_size_min": smallest, "set_size_max": largest,
    }


def test_correspondence_detects_unstripped_exangles(monkeypatch):
    # when membership in the quotient reads the base's objects, realize
    # keeps the projective-injective middles, and the quotient's exangles
    # no longer match the almost-positive ones; the premise fails before
    # the scan, so the report has no counters
    monkeypatch.setattr(QuotientModel, "__contains__", lambda self, a: a in self.base)
    report = correspondence_check(2, 2)
    assert not report.ok
    assert report.counterexample[:3] == ("exangle", (2, 4, 7), (1, 3, 5))
    assert report.counters == {}


def test_correspondence_detects_wrong_almost_positive_model(monkeypatch):
    shifted = lambda d, n: almost_positive_model(d, n + 1)
    monkeypatch.setattr("hicat.rigidity.almost_positive_model", shifted)
    report = correspondence_check(2, 2)
    assert not report.ok
    assert report.counterexample[0] == "object-sets"


def test_correspondence_detects_a_non_involutive_mutation(monkeypatch):
    # on maximal independent sets the replacement rule makes mutation an
    # involution, or the scan reports an ambiguous mutation first; so this
    # injects a faulty rule, the lowest bucket member, which the scan catches
    # at the first edge that does not mutate back, in the fourth set found
    monkeypatch.setattr(_MutationScanner, "candidates", lambda self, x, bucket: bucket & -bucket)
    report = correspondence_check(3, 2)
    assert not report.ok
    old = ((1, 3, 5, 7), (1, 3, 5, 9), (1, 3, 6, 9), (1, 3, 7, 9), (1, 4, 6, 8), (1, 4, 6, 9),
           (1, 4, 7, 9), (1, 5, 7, 9), (2, 4, 7, 9))
    new = ((1, 3, 5, 9), (1, 3, 6, 9), (1, 3, 7, 9), (1, 4, 6, 8), (1, 4, 6, 9), (1, 4, 7, 9),
           (1, 5, 7, 9), (2, 4, 6, 8), (2, 4, 7, 9))
    assert report.counterexample == ("mutation-not-involutive", (old, (1, 3, 5, 7)),
                                     (new, (2, 4, 6, 8)))
    # the counts the scan reached: three whole sets, and the fourth up to its first summand
    assert report.counters == {
        "tilting_sets": 4, "ap_maximal_rigid": 4, "relf_maximal_rigid": 4,
        "exchange_exangles": 7, "mutations_checked": 24, "set_size_min": 3, "set_size_max": 4,
    }


def _lowest_member(bucket):
    return bucket & -bucket


def _highest_member(bucket):
    return 1 << bucket.bit_length() - 1


def _first_edge_without_reverse(d, n, rule):
    """The involution counterexample of a replacement rule, and the sets found up to it.

    The reference for the scan: it mutates each tilting set of the module
    model, in enumeration order, at every live summand x with a nonempty
    bucket, recomputes the single hits of the new set t' from scratch, and
    reports the first edge where t' is not maximal rigid (``single_hits``
    raises) or mutating t' at the replacement y does not give back x.
    """
    base = module_model(d, n + 1)
    scan = _MutationScanner(base)
    rows = scan.rows
    live = ~sum(1 << base.index[z] for z, _ in projinj_ideal(base))
    at = lambda t, i: (tuple(base.objects[j] for j in bit_indices(t)), base.objects[i])
    visited = 0

    def visit(t, single):
        nonlocal visited
        visited += 1
        for x in bit_indices(t & live):
            bucket = rows[x] & single
            if bucket:
                y = rule(bucket).bit_length() - 1
                new = t ^ 1 << x | 1 << y
                try:
                    back = rule(rows[y] & scan.single_hits(new))
                except ValueError:
                    back = None
                if back != 1 << x:
                    return ("mutation-not-involutive", at(t, x), at(new, y))
        return None

    return _maximal_independent(rows, visit), visited


@pytest.mark.parametrize("d,n", [(3, 2), (3, 3)])
@pytest.mark.parametrize("rule", [_lowest_member, _highest_member], ids=["lowest", "highest"])
def test_a_faulty_replacement_rule_gives_the_edge_store_counterexample(monkeypatch, rule, d, n):
    # the scan checks each edge's reverse where it finds the edge; it must
    # report the same first counterexample as a reference that recomputes
    # the new set's single hits, and stop at the same set
    expected, visited = _first_edge_without_reverse(d, n, rule)
    assert expected is not None
    monkeypatch.setattr(_MutationScanner, "candidates", lambda self, x, bucket: rule(bucket))
    report = correspondence_check(d, n)
    assert report.counterexample == expected
    assert report.counters["tilting_sets"] == visited


def _flipping_conflict(factory, x, y):
    """The factory, with the conflict of x and y flipped through ext_dim in both
    orders, and in the ext table."""
    def build(d, n):
        model = factory(d, n)
        flipped = 1 - (model.ext_dim(x, y) | model.ext_dim(y, x))
        i, j = model.index[x], model.index[y]

        class Flipped(CategoryModel):
            def ext_dim(self, b, a):
                return flipped if {b, a} == {x, y} else super().ext_dim(b, a)

            @cached_property
            def ext_rows(self):
                return with_bit(with_bit(super().ext_rows, i, j, flipped), j, i, flipped)

        return Flipped(model.kind, model.d, model.n, model.window, model.objects)
    return build


@pytest.mark.parametrize("factory,kind", [
    (relative_f_model, "relative-f"), (almost_positive_model, "almost-positive"),
])
def test_correspondence_certificate_detects_a_flipped_conflict(monkeypatch, factory, kind):
    flipped = _flipping_conflict(factory, (1, 3, 5), (2, 4, 6))
    monkeypatch.setattr(f"hicat.rigidity.{factory.__name__}", flipped)
    report = correspondence_check(2, 2)
    assert not report.ok
    if kind == "relative-f":
        # the restricted cyclic model is held to the almost-positive conflict rows
        assert report.counterexample == ("conflict-mismatch", kind, (1, 3, 5), (2, 4, 6))
    else:
        # the almost-positive model is held to the quotient by compare_to_model
        assert report.counterexample == ("ext", (2, 4, 6), (1, 3, 5))


def test_correspondence_certificate_detects_a_conflicting_projinj(monkeypatch):
    # (1, 3, 7) is the first projective-injective of the module model of A^2_3
    flipped = _flipping_conflict(module_model, (1, 3, 7), (2, 4, 6))
    monkeypatch.setattr("hicat.rigidity.module_model", flipped)
    report = correspondence_check(2, 2)
    assert not report.ok
    assert report.counterexample == ("projinj-conflict", (1, 3, 7), (2, 4, 6))
    # a failed certificate reports no counters
    assert report.counters == {}


def test_correspondence_certificate_detects_a_missing_tilting_image(monkeypatch):
    # the restricted cyclic model is held to the almost-positive objects
    # before its conflict rows are read
    full = relative_f_model(2, 2)
    lost = full.objects[3]
    objects = tuple(a for a in full.objects if a != lost)
    monkeypatch.setattr("hicat.rigidity.relative_f_model",
                        lambda d, n: CategoryModel(full.kind, d, n, None, objects))
    report = correspondence_check(2, 2)
    assert not report.ok
    assert report.counterexample == ("tilting-image-mismatch", "relative-f", lost)
    assert report.counters == {}


def _run_fresh(code: str) -> str:
    """Run code in a fresh interpreter on this test run's path; returns its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    return out.stdout.strip()


def test_no_module_level_cache_keeps_models_alive():
    # in a fresh process, so that no equal model built by another test
    # can stand in for this one in an equality-keyed cache
    code = """
import gc, weakref
from hicat.models import almost_positive_model
from hicat.rigidity import maximal_rigid, mutate
model = almost_positive_model(2, 3)
t = maximal_rigid(model)[0]
mutate(model, t, t[0])
ref = weakref.ref(model)
del model, t
gc.collect()
print(ref() is None)
"""
    assert _run_fresh(code) == "True"


def test_networkx_is_not_imported():
    assert _run_fresh("import sys, hicat, hicat.cli; print('networkx' in sys.modules)") == "False"


def test_correspondence_catalan_counts():
    # the d = 1 ladder: 2, 5, 14, 42 maximal rigid sets
    expected = {1: 2, 2: 5, 3: 14, 4: 42}
    for n, count in expected.items():
        report = correspondence_check(1, n)
        assert report.ok
        assert report.counters["ap_maximal_rigid"] == count


def test_mutation_graph_dot():
    ap = almost_positive_model(1, 2)
    text = mutation_graph_dot(ap)
    assert text.startswith("digraph {")
    assert text.count("->") == 5  # pentagon of mutations
    assert mutation_graph_dot(ap) == text


def test_mutation_graph_realizes_no_exangle(monkeypatch):
    # the graph needs only the replacements; realizing the exchange exangles
    # of every (summand, bucket) key made it about four times slower
    ap = almost_positive_model(2, 3)
    text = mutation_graph_dot(ap)

    def no_realize(model, b, a):
        raise AssertionError(f"mutation_graph_dot realized the extension of {b} by {a}")

    monkeypatch.setattr("hicat.rigidity.realize", no_realize)
    assert mutation_graph_dot(ap) == text


def test_mutation_graph_follows_maximal_rigid_and_mutate():
    # the nodes come in the order of maximal_rigid, here over sets of two sizes,
    # and the edges are exactly the mutations that mutate finds
    ap = almost_positive_model(3, 2)
    sets = maximal_rigid(ap)
    assert sorted(len(t) for t in sets) == [3] * 3 + [4] * 9
    name = lambda summands: "|".join(",".join(map(str, x)) for x in summands)
    lines = mutation_graph_dot(ap).splitlines()
    assert [ln for ln in lines[1:-1] if "->" not in ln] == \
        [f'  "{name(t)}";' for t in sets]
    edges = [ln.strip(' ";').split('" -> "') for ln in lines if "->" in ln]
    expected = {frozenset((name(t), name(r.summands)))
                for t in sets for x in t if (r := mutate(ap, t, x)) is not None}
    assert len(edges) == len(expected)
    assert {frozenset(e) for e in edges} == expected


def test_exchange_realizes_extension_ends():
    ap = almost_positive_model(2, 3)
    for t in maximal_rigid(ap)[:6]:
        for x in t:
            for e in exchange_exangles(ap, t, x):
                assert x in (e.x0, e.xlast)
                b, a = e.xlast, e.x0
                assert ap.ext_dim(b, a) == 1
                fresh = realize(ap, b, a)
                assert fresh.middles == e.middles


@dataclass(frozen=True)
class _ConflictTable(CategoryModel):
    """A stand-in model: sorted string labels and a symmetric 0/1 extension table."""
    pairs: frozenset

    def ext_dim(self, b, a):
        return 1 if frozenset((b, a)) in self.pairs else 0

    @cached_property
    def ext_rows(self):
        rows = tuple(sum(1 << j for j, a in enumerate(self.objects) if self.ext_dim(b, a))
                     for b in self.objects)
        return BitRows(rows, rows)  # a symmetric table: each row is its column


@pytest.mark.parametrize("bucket_conflicts,expected", [
    ((("y1", "y2"), ("y1", "y3")), "y1"),
    ((("y1", "y2"), ("y1", "y3"), ("y2", "y3")), "ambiguous"),
])
def test_replacement_from_a_bucket_of_three(bucket_conflicts, expected):
    # t = {x, r}: r conflicts with nothing, so each y has its one conflict
    # in t at x and the bucket of x is {y1, y2, y3}
    conflicts = (("x", "y1"), ("x", "y2"), ("x", "y3")) + bucket_conflicts
    table = _ConflictTable("conflict-table", 1, 1, None, ("r", "x", "y1", "y2", "y3"),
                           frozenset(map(frozenset, conflicts)))
    scan = _MutationScanner(table)
    bit = {lbl: 1 << i for lbl, i in table.index.items()}
    x = table.index["x"]
    bucket = scan.rows[x] & scan.single_hits(bit["x"] | bit["r"])
    assert bucket == bit["y1"] | bit["y2"] | bit["y3"]
    if expected == "ambiguous":
        with pytest.raises(ValueError, match="ambiguous mutation"):
            scan.replacement(x, bucket)
    else:
        assert table.objects[scan.replacement(x, bucket)] == expected


def test_scan_reports_an_ambiguous_mutation(monkeypatch):
    # the module models give no rest with three completions, and the premise
    # certificate ties both targets to the module model's conflict rows, so
    # correspondence_check cannot reach this code; the scan runs directly on
    # a stand-in table: r conflicts with nothing (the projective-injective),
    # a and b swap, and x, y1, y2, y3 conflict pairwise
    conflicts = (("a", "b"), ("x", "y1"), ("x", "y2"), ("x", "y3"),
                 ("y1", "y2"), ("y1", "y3"), ("y2", "y3"))
    table = _ConflictTable("conflict-table", 1, 1, None,
                           ("a", "b", "r", "x", "y1", "y2", "y3"),
                           frozenset(map(frozenset, conflicts)))
    # an empty middle term for each extension: the scan reads only the middles
    monkeypatch.setattr("hicat.rigidity.middle_terms", lambda model, b, a: ((),))
    first = _maximal_independent(table.conflict_rows, lambda t, single: t)
    assert [table.objects[i] for i in bit_indices(first)] == ["a", "r", "x"]
    counters = {}
    failure = _scan_tilting(table, {"r"}, counters)
    # the first set {a, r, x} mutates at a to {b, r, x}, with the two exchanges
    # between a and b; x has three candidates, after its six exchanges
    assert failure == ("ambiguous-mutation", ("a", "r", "x"), "x", ["y1", "y2", "y3"])
    assert counters == {"tilting_sets": 1, "set_size_min": 2, "set_size_max": 2,
                        "exchange_exangles": 8, "mutations_checked": 2}


@st.composite
def _conflict_tables(draw):
    """A stand-in table on at most 12 vertices with a random symmetric conflict graph."""
    labels = tuple(f"v{i:02d}" for i in range(draw(st.integers(1, 12))))
    pairs = [frozenset((u, v)) for i, u in enumerate(labels) for v in labels[i + 1:]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return _ConflictTable("conflict-table", 1, 1, None, labels,
                          frozenset(p for p, k in zip(pairs, keep) if k))


def _found_sets(table):
    """The (mask, single hits) of every set of the enumeration, in the order found."""
    found = []
    _maximal_independent(table.conflict_rows, lambda t, single: found.append((t, single)))
    return found


@settings(max_examples=200, deadline=None)
@given(_conflict_tables())
def test_enumeration_matches_bruteforce_with_its_single_hits(table):
    # the enumeration hands each set to the visitor with the single-hit mask it
    # carried down the recursion; sets and single hits are checked against a
    # fresh count
    found = _found_sets(table)
    conflict = lambda x, y: bool(table.ext_dim(x, y))
    assert sorted(tuple(table.objects[i] for i in bit_indices(m)) for m, _ in found) == \
        brute_maximal_independent(table.objects, conflict)
    assert count_maximal_rigid(table) == len(found)
    scan = _MutationScanner(table)
    for m, single in found:
        assert single == scan.single_hits(m)


@settings(max_examples=200, deadline=None)
@given(_conflict_tables())
def test_a_mutation_edge_is_read_off_the_set_that_found_it(table):
    # for every member y of the bucket of every summand x of a maximal set t,
    # t' = t - x + y is maximal rigid exactly when every other member of the
    # bucket conflicts with y, and then y's bucket in t' is the members of x's
    # bucket that conflict with y, plus x: the scan's two checks of an edge
    scan = _MutationScanner(table)
    rows = scan.rows
    for t, single in _found_sets(table):
        for x in bit_indices(t):
            bucket = rows[x] & single
            for y in bit_indices(bucket):
                new = t ^ 1 << x | 1 << y
                maximal = not bucket & ~rows[y] & ~(1 << y)
                if not maximal:
                    with pytest.raises(ValueError, match="maximal rigid"):
                        scan.single_hits(new)
                    continue
                assert bucket & rows[y] | 1 << x == rows[y] & scan.single_hits(new)
                assert y in bit_indices(scan.candidates(x, bucket))


@settings(max_examples=100, deadline=None)
@given(_conflict_tables(), st.integers(0, 50))
def test_a_visitor_value_stops_the_enumeration(table, stop):
    # the first value that is not None ends the search at that set and is returned
    found = _found_sets(table)
    seen = []

    def visit(t, single):
        seen.append(t)
        return ("stop", t) if len(seen) > stop else None

    result = _maximal_independent(table.conflict_rows, visit)
    if stop < len(found):
        assert result == ("stop", found[stop][0])
        assert seen == [t for t, _ in found[:stop + 1]]
    else:
        assert result is None
        assert seen == [t for t, _ in found]


def _reference_scan(base, projinj, counters):
    """The scan of ``_scan_tilting`` with only the candidates settled per (summand, bucket).

    Per set it reads the candidates of ``step`` at every live summand with a
    nonempty bucket, tests each of its ``links``' middles against the rest,
    and checks the mutation edge there: one candidate y, the new set maximal
    rigid, and the candidates of ``step`` at y's bucket in the new set
    giving back x.  Each live summand of a set counts
    two checked mutations, one per target model, once the summands before
    it passed.
    """
    scan = _MutationScanner(base)
    rows = scan.rows
    live = ~sum(1 << base.index[z] for z in projinj)
    labels = lambda mask: tuple(base.objects[i] for i in bit_indices(mask))
    counters.update(tilting_sets=0, set_size_min=len(rows), set_size_max=0,
                    exchange_exangles=0, mutations_checked=0)

    def visit(t, single):
        size = (t & live).bit_count()
        counters["tilting_sets"] += 1
        counters["set_size_min"] = min(counters["set_size_min"], size)
        counters["set_size_max"] = max(counters["set_size_max"], size)
        for x in bit_indices(t & live):
            bucket = rows[x] & single
            if not bucket:
                continue
            cand = scan.step(x, bucket)[2]
            rest = t ^ 1 << x
            counters["exchange_exangles"] += sum(not middles & ~rest
                                                 for _, middles in scan.links(x, bucket))
            failure = None
            if cand & (cand - 1):
                failure = ("ambiguous-mutation", labels(t), base.objects[x], list(labels(cand)))
            elif cand:
                y = cand.bit_length() - 1
                if (bucket & ~rows[y] & ~cand
                        or scan.step(y, bucket & rows[y] | 1 << x)[2] != 1 << x):
                    failure = ("mutation-not-involutive", (labels(t), base.objects[x]),
                               (labels(rest | cand), base.objects[y]))
            if failure is not None:
                # the live summands of t below x passed
                counters["mutations_checked"] += 2 * (t & live & (1 << x) - 1).bit_count()
                return failure
        counters["mutations_checked"] += 2 * size
        return None

    return _maximal_independent(rows, visit)


#: replacement rules for ``_MutationScanner.candidates``: None keeps the real one
_RULES = [None, _lowest_member, _highest_member, lambda bucket: bucket]
_RULE_IDS = ["real", "lowest", "highest", "all-members"]


def _both_scans(base, projinj, rule):
    """(counters, counterexample) of ``_scan_tilting`` and of the reference, under a rule."""
    with pytest.MonkeyPatch.context() as patch:
        if rule is not None:
            patch.setattr(_MutationScanner, "candidates", lambda self, x, bucket: rule(bucket))
        got, want = {}, {}
        return ((got, _scan_tilting(base, projinj, got)),
                (want, _reference_scan(base, projinj, want)))


def _stand_in_middles(model, b, a):
    """Middle terms for a stand-in table: the objects c with index(b) + 2 index(a) +
    index(c) divisible by 3, so that some lie in a rest and some hold an end term."""
    i, j = model.index[b], model.index[a]
    return (tuple(c for k, c in enumerate(model.objects) if (i + 2 * j + k) % 3 == 0),)


@settings(max_examples=100, deadline=None)
@given(_conflict_tables())
@pytest.mark.parametrize("rule", _RULES, ids=_RULE_IDS)
def test_the_scan_settles_each_edge_as_the_reference_checks_it(rule, table):
    # the isolated vertices stand for the projective-injectives
    projinj = {lbl for lbl, row in zip(table.objects, table.conflict_rows) if not row}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("hicat.rigidity.middle_terms", _stand_in_middles)
        got, want = _both_scans(table, projinj, rule)
    assert got == want


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3)])
@pytest.mark.parametrize("rule", _RULES, ids=_RULE_IDS)
def test_the_correspondence_scan_matches_the_reference(monkeypatch, rule, d, n):
    base = module_model(d, n + 1)
    projinj = {z for z, _ in projinj_ideal(base)}
    got, (want, failure) = _both_scans(base, projinj, rule)
    assert got == (want, failure)
    # at d = 2 every nonempty bucket is its one replacement, so no rule fails there
    assert (failure is None) == (rule is None or d == 2)
    if rule is not None:
        monkeypatch.setattr(_MutationScanner, "candidates", lambda self, x, bucket: rule(bucket))
    report = correspondence_check(d, n)
    assert report.counterexample == failure
    assert report.counters == {**want, "ap_maximal_rigid": want["tilting_sets"],
                               "relf_maximal_rigid": want["tilting_sets"]}
