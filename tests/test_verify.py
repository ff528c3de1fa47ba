import os
import re
import subprocess
import sys
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import pytest

from hicat import report as report_module
from hicat.emit import report_to_dict
from hicat.exangles import compare_exangles, realize
from hicat.models import (
    CategoryModel,
    almost_positive_model,
    cluster_model,
    derived_model,
    module_model,
    relative_f_model,
)
from hicat.quotients import injproj_ideal, quotient
from hicat.report import VerificationReport, peak_rss_mib
from hicat.tuples import normalize_cyclic, shift_cluster
from hicat.verify import (
    THEOREMS,
    compare_to_model,
    find_noncommuting_witness,
    grid_points,
    parse_grid,
    run_point,
    run_theorem,
    sanity_reports,
    verify_equiv_module_ap,
    verify_f_exangles,
    verify_main2,
    verify_model_sanity,
)

from pair_rules import composite, with_bit


def test_verify_equiv_small_points():
    r = verify_equiv_module_ap(1, 2)
    assert r.ok
    assert r.counters["objects"] == 5
    assert r.counters["hom_pairs"] == 25
    assert r.counters["ext_pairs"] == 25
    assert verify_equiv_module_ap(2, 3).counters["objects"] == 16
    assert verify_equiv_module_ap(2, 3).ok
    assert verify_equiv_module_ap(3, 2).ok


def test_verify_f_exangles_points():
    assert verify_f_exangles(1, 1).ok
    assert verify_f_exangles(1, 3).ok
    r = verify_f_exangles(2, 3)
    assert r.ok
    # the symmetric extension pairs split evenly into the two orientations
    assert r.counters["ext_pairs"] == 2 * r.counters["distinguished"]


def test_verify_f_exangles_needs_one_object_order(monkeypatch):
    # the loop reads the two models' rows by one index, so the object lists must agree
    monkeypatch.setattr("hicat.verify.relative_f_model", lambda d, n: relative_f_model(d, n + 1))
    r = verify_f_exangles(1, 2)
    assert not r.ok and r.counterexample[0] == "object-sets"


def test_verify_main2_points():
    assert verify_main2(1, 1).ok
    assert verify_main2(2, 3).ok
    r = verify_main2(1, 6)
    assert r.ok
    assert r.counters["objects"] == 27


def test_sanity_small_models():
    assert verify_model_sanity(module_model(2, 3)).ok
    rep = verify_model_sanity(cluster_model(1, 6))
    assert rep.ok
    assert rep.counters["noncommuting_witnesses"] == 1
    dw = derived_model(2, 3, (1, 3))
    rep = verify_model_sanity(dw)
    assert rep.ok
    assert rep.counters["objects"] == 18


def test_noncommuting_witness_cluster_1_6():
    c = cluster_model(1, 6)
    witness = find_noncommuting_witness(c)
    assert witness is not None
    x, y, z = witness
    assert c.hom_dim(x, y) == 1 and c.hom_dim(y, z) == 1
    assert c.hom_dim(x, z) == 1
    assert composite(c, x, y, z) == 0


def test_compare_exangles_reports_mismatch():
    m = module_model(2, 3)
    e1 = realize(m, (2, 4, 6), (1, 3, 5))
    e2 = realize(m, (2, 4, 7), (1, 3, 5))
    assert compare_exangles(e1, e1) is None
    assert compare_exangles(e1, e2).startswith("ends differ")
    # same terms, one differential entry with the other sign
    first, *rest = e1.differentials
    flipped = tuple(tuple(-v for v in row) for row in first)
    e3 = replace(e1, differentials=(flipped, *rest))
    assert compare_exangles(e1, e3).startswith("differential 0 differs")


def test_grid_helpers():
    assert parse_grid("3:4:200") == (3, 4, 200)
    with pytest.raises(ValueError):
        parse_grid("3:4")
    with pytest.raises(ValueError):
        parse_grid("0:4:200")
    assert parse_grid("1:1:3") == (1, 1, 3)
    with pytest.raises(ValueError, match="holds no point"):
        parse_grid("3:4:2")
    pts = grid_points(3, 4, 200)
    assert len(pts) == 12
    assert (1, 1) in pts and (3, 4) in pts
    assert grid_points(3, 4, 10) == ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1))


def test_run_theorem_with_extra_points():
    reports = run_theorem("equiv", (1, 2, 50), extra_points=((1, 3),))
    assert [r.ok for r in reports] == [True, True, True]
    assert {(r.d, r.n) for r in reports} == {(1, 1), (1, 2), (1, 3)}


def test_failure_reports_counterexample():
    # a deliberately broken comparison records the first mismatch
    rep = VerificationReport("demo", 1, 1, False, {"objects": 2},
                             ("hom", (1, 3), (2, 4)), 0.0, 20.0)
    assert "FAIL" in rep.summary()
    assert "counterexample" in rep.summary()


def test_a_report_holds_the_peak_memory_of_the_process():
    # read when the check ended; the summary line leaves it out
    (report,) = run_point("equiv", 1, 2)
    assert 0 < report.peak_rss_mib <= peak_rss_mib()
    assert "MiB" not in report.summary()


def test_peak_memory_reads_the_unit_of_each_platform(monkeypatch):
    # ru_maxrss is KiB on Linux and bytes on macOS; without getrusage there is no reading
    usage = type("Usage", (), {"ru_maxrss": 2**30})()
    fake = type("Resource", (), {"RUSAGE_SELF": 0, "getrusage": staticmethod(lambda _: usage)})
    monkeypatch.setattr(report_module, "resource", fake)
    monkeypatch.setattr(report_module.sys, "platform", "linux")
    assert peak_rss_mib() == 2**20
    monkeypatch.setattr(report_module.sys, "platform", "darwin")
    assert peak_rss_mib() == 1024
    monkeypatch.setattr(report_module, "resource", None)
    assert peak_rss_mib() is None
    (report,) = run_point("equiv", 1, 2)
    assert report.peak_rss_mib is None and report_to_dict(report)["peak_rss_mib"] is None


def test_unknown_theorem_is_rejected():
    # (1, 1, 2) is a grid without points: the name is checked before the walk
    assert grid_points(1, 1, 2) == () and run_theorem("equiv", (1, 1, 2)) == []
    for call in (lambda: run_point("nope", 1, 1),
                 lambda: run_theorem("nope", (1, 1, 10)),
                 lambda: run_theorem("nope", (1, 1, 2))):
        with pytest.raises(ValueError, match="expected one of") as info:
            call()
        assert all(name in str(info.value) for name in THEOREMS)


@pytest.mark.parametrize("d,n", [(1, 3), (2, 2)])
def test_compare_to_model_detects_wrong_model(d, n):
    base = module_model(d, n + 1)
    relf = relative_f_model(d, n)
    for q in (quotient(base, injproj_ideal(base)), quotient(relf, injproj_ideal(relf))):
        assert compare_to_model(q, almost_positive_model(d, n), {}) is None
        # the cluster model has the same labels but wraps its homs and exts
        assert compare_to_model(q, cluster_model(d, n), {})[0] in ("hom", "ext")
        assert compare_to_model(q, almost_positive_model(d, n + 1), {})[0] == "object-sets"


@pytest.mark.parametrize("d,n", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_a_quotient_is_a_model(d, n):
    # both quotients pass sanity as models in their own right, and count
    # what the almost-positive model they equal counts
    base = module_model(d, n + 1)
    relf = relative_f_model(d, n)
    want = verify_model_sanity(almost_positive_model(d, n))
    assert want.ok
    for q in (quotient(base, injproj_ideal(base)), quotient(relf, injproj_ideal(relf))):
        report = verify_model_sanity(q)
        assert report.ok, report.summary()
        assert report.counters == want.counters


def test_sanity_maps_each_exangle_to_indices_once(monkeypatch):
    # one index view per exangle: one _indices call per term, d + 2 terms
    calls = []
    indices = CategoryModel._indices
    monkeypatch.setattr(CategoryModel, "_indices",
                        lambda self, labels: calls.append(labels) or indices(self, labels))
    model = module_model(2, 3)
    report = verify_model_sanity(model)
    assert report.ok and report.counters["ext_pairs"] == 7
    assert len(calls) == (model.d + 2) * report.counters["ext_pairs"]


def test_run_verification_script_from_any_directory(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(script), "1:1:10"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "11/11 checks passed" in proc.stdout
    assert re.search(r"peak RSS \d+\.\d MiB$", proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("args", [["3:4"], ["1:1:10", "a"], ["0:4:200"], ["3:x:200"],
                                  ["1:1:1"], ["1:1:2"]])
def test_run_verification_script_usage_error(args):
    # a malformed grid, a grid with no point or an extra argument is a usage
    # error (2), not a failed check (1) nor a pass with nothing checked
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"
    proc = subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    lines = proc.stderr.splitlines()
    assert lines[0].startswith("usage: run_verification.py")
    assert [line for line in lines if "error:" in line] == [lines[-1]]
    assert lines[-1].startswith("run_verification.py: error: ")
    if len(args) == 1:
        # a malformed grid keeps parse_grid's reason, not argparse's bare "invalid value"
        assert lines[-1].endswith(f"DMAX:NMAX:OBJMAX, three integers, got {args[0]!r}") \
            or lines[-1].endswith(f"DMAX:NMAX:OBJMAX must be positive, got {args[0]!r}") \
            or lines[-1].endswith(f"has 3 objects, got {args[0]!r}")


def _corrupted(model, method, key, value):
    """The model as a CategoryModel subclass whose method answers value at key.

    A changed hom or ext value is put into the model's table as well, so
    that the pair answer and the rows that whole-table readers walk agree.
    For "compose_row" the key is a triple of labels (x, y, z), and the row
    of (x, y) gets value at z.
    """
    right = getattr(CategoryModel, method)

    class Corrupted(CategoryModel):
        pass

    if method == "compose_row":
        i, j, k = (model.index[x] for x in key)

        def compose_row(self, a, b):
            row = right(self, a, b)
            return row & ~(1 << k) | value << k if (a, b) == (i, j) else row

        Corrupted.compose_row = compose_row
    else:
        setattr(Corrupted, method, lambda self, *args: value if args == key else right(self, *args))
    if method in ("hom_dim", "ext_dim"):
        table = method.replace("_dim", "_rows")
        rows = getattr(CategoryModel, table).func
        i, j = (model.index[x] for x in key)
        corrupted_rows = cached_property(lambda self: with_bit(rows(self), i, j, value))
        setattr(Corrupted, table, corrupted_rows)
        corrupted_rows.__set_name__(Corrupted, table)
    return Corrupted(model.kind, model.d, model.n, model.window, model.objects)


def _sanity(objects, unit, triples, ext, shift):
    return {"objects": objects, "unit_checks": unit, "associativity_triples": triples,
            "ext_pairs": ext, "shift_checks": shift}


# One corrupted value per case, and the report it gives: the first
# counterexample and every counter, including the partial counts of the
# phase that failed and the zeros of the phases after it.  No single
# value reaches "shift-hom-invariance" (a changed cyclic hom breaks the
# unit law, associativity or exactness first).  Sanity has no check of
# the middle terms' membership: realize keeps only objects of the model.
FAULTS = [
    ("sanity-cluster", cluster_model, 1, 4, "hom_dim", ((3, 5), (3, 5)), 0,
     ("missing-identity", (3, 5)), _sanity(14, 0, 0, 0, 0)),
    ("sanity-cluster", cluster_model, 1, 4, "compose_row", ((2, 4), (2, 5), (2, 5)), 0,
     ("unit-law", (2, 4), (2, 5)), _sanity(14, 44, 0, 0, 0)),
    ("sanity-cluster", cluster_model, 1, 4, "hom_dim", ((1, 3), (1, 5)), 0,
     ("composite-off-hom", (1, 3), (1, 4), (1, 5)), _sanity(14, 138, 0, 0, 0)),
    ("sanity-module", module_model, 2, 2, "hom_dim", ((1, 3, 5), (1, 3, 6)), 0,
     ("differential-off-hom", (2, 4, 6), (1, 3, 5), (1, 3, 5), (1, 3, 6)),
     _sanity(4, 12, 13, 1, 0)),
    ("sanity-module", module_model, 2, 2, "ext_dim", ((1, 3, 5), (1, 3, 6)), 1,
     ("ext-without-lift", (1, 3, 5), (1, 3, 6)), _sanity(4, 14, 20, 1, 0)),
    ("sanity-cluster", cluster_model, 1, 4, "compose_row", ((2, 5), (2, 6), (2, 7)), 0,
     ("associativity", (2, 4), (2, 5), (2, 6), (2, 7)), _sanity(14, 140, 572, 0, 0)),
    ("sanity-derived", derived_model, 1, 2, "hom_dim", ((2, 4), (3, 5)), 1,
     ("not-a-complex", (3, 5), (2, 4)), _sanity(6, 24, 47, 5, 0)),
    ("sanity-cluster", cluster_model, 1, 4, "hom_dim", ((2, 6), (2, 7)), 0,
     ("hom-exactness", (1, 3), (2, 7), (((2, 6), "covariant", 1),)),
     _sanity(14, 138, 1828, 4, 0)),
    ("sanity-derived", derived_model, 1, 2, "ext_dim", ((2, 4), (1, 3)), 0,
     ("shift-invariance", (2, 4), (1, 3)), _sanity(6, 22, 36, 6, 7)),
    ("f-exangles", relative_f_model, 1, 3, "ext_dim", ((3, 5), (1, 4)), 0,
     ("distinguished-mismatch", (3, 5), (1, 4), True, False),
     {"ext_pairs": 21, "distinguished": 6, "objects": 9}),
    ("f-exangles", cluster_model, 1, 3, "hom_dim", ((3, 5), (1, 3)), 0,
     ("missing-connecting-morphism", (3, 5), (2, 4)),
     {"ext_pairs": 22, "distinguished": 7, "objects": 9}),
    ("equiv", almost_positive_model, 1, 3, "hom_dim", ((2, 6), (1, 5)), 1,
     ("hom", (2, 6), (1, 5), 0, 1),
     {"objects": 9, "hom_pairs": 48, "ext_pairs": 47, "exangles": 5}),
    ("main2", almost_positive_model, 1, 3, "ext_dim", ((3, 5), (1, 4)), 0,
     ("ext", (3, 5), (1, 4)),
     {"objects": 9, "hom_pairs": 56, "ext_pairs": 56, "exangles": 6}),
]


@pytest.mark.parametrize("name,factory,d,n,method,key,value,counterexample,counters", FAULTS,
                         ids=[f"{case[0]}-{case[7][0]}" for case in FAULTS])
def test_a_corrupted_value_gives_its_pinned_report(monkeypatch, name, factory, d, n, method,
                                                   key, value, counterexample, counters):
    monkeypatch.setattr(f"hicat.verify.{factory.__name__}",
                        lambda *args: _corrupted(factory(*args), method, key, value))
    theorem = "sanity" if name.startswith("sanity-") else name
    [report] = [r for r in run_point(theorem, d, n) if r.theorem == name]
    assert not report.ok
    assert report.counterexample == counterexample
    assert report.counters == counters


def test_correspondence_fails_on_a_hom_fault_of_the_almost_positive_model(monkeypatch):
    # the correspondence premise holds the whole quotient, hom table included,
    # to the almost-positive model with the comparer of equiv
    monkeypatch.setattr("hicat.rigidity.almost_positive_model", lambda *args: _corrupted(
        almost_positive_model(*args), "hom_dim", ((2, 6), (1, 5)), 1))
    [report] = run_point("correspondence", 1, 3)
    assert report.counterexample == ("hom", (2, 6), (1, 5), 0, 1)
    assert report.counters == {}


def test_sanity_detects_a_shift_that_breaks_cluster_homs(monkeypatch):
    # a reflection in place of the rotation reverses the cyclic homs
    monkeypatch.setattr("hicat.verify.shift_cluster",
                        lambda x, m: normalize_cyclic(tuple(m + 1 - v for v in x), m))
    report = verify_model_sanity(cluster_model(1, 4))
    assert not report.ok
    assert report.counterexample == ("shift-hom-invariance", (1, 3), (1, 4))
    assert report.counters == _sanity(14, 140, 1904, 70, 2)


@pytest.mark.parametrize("collapsed,onto,pair,checks", [
    ((1, 4), (1, 3), ((1, 4), (1, 3)), 15),
    ((2, 7), (1, 3), ((1, 3), (2, 7)), 8),
])
def test_sanity_detects_a_shift_that_is_not_a_permutation(monkeypatch, collapsed, onto,
                                                          pair, checks):
    # the shift sends two objects to one image, so moving whole rows by it
    # says nothing; the first pair whose hom differs from that of its shift
    # is reported, with the pairs counted up to it
    monkeypatch.setattr("hicat.verify.shift_cluster",
                        lambda x, m: shift_cluster(onto if x == collapsed else x, m))
    report = verify_model_sanity(cluster_model(1, 4))
    assert not report.ok
    assert report.counterexample == ("shift-hom-invariance", *pair)
    assert report.counters == _sanity(14, 140, 1904, 70, checks)
