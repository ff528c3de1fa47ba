import os
import subprocess
import sys
from pathlib import Path

import pytest

from hicat.models import (
    almost_positive_model,
    cluster_model,
    derived_model,
    module_model,
    relative_f_model,
)
from hicat.quotients import injproj_ideal, projinj_ideal, quotient
from hicat.verify import (
    THEOREMS,
    compare_exangles,
    compare_to_model,
    default_grid,
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
    assert c.compose_scalar(x, y, z) == 0


def test_compare_exangles_reports_mismatch():
    m = module_model(2, 3)
    from hicat.exangles import realize
    e1 = realize(m, (2, 4, 6), (1, 3, 5))
    e2 = realize(m, (2, 4, 7), (1, 3, 5))
    assert compare_exangles(e1, e1) is None
    assert compare_exangles(e1, e2) is not None


def test_grid_helpers():
    assert parse_grid("3:4:200") == (3, 4, 200)
    with pytest.raises(ValueError):
        parse_grid("3:4")
    with pytest.raises(ValueError):
        parse_grid("0:4:200")
    pts = grid_points(3, 4, 200)
    assert len(pts) == 12
    assert (1, 1) in pts and (3, 4) in pts
    assert grid_points(3, 4, 10) == ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1))


def test_default_grid_env_override(monkeypatch):
    monkeypatch.delenv("HICAT_GRID", raising=False)
    assert default_grid() == (3, 4, 200)
    monkeypatch.setenv("HICAT_GRID", "2:2:50")
    assert default_grid() == (2, 2, 50)


def test_run_theorem_with_extra_points():
    reports = run_theorem("equiv", (1, 2, 50), extra_points=((1, 3),))
    assert [r.ok for r in reports] == [True, True, True]
    assert {(r.d, r.n) for r in reports} == {(1, 1), (1, 2), (1, 3)}


def test_failure_reports_counterexample():
    # a deliberately broken comparison records the first mismatch
    from hicat.verify import VerificationReport
    rep = VerificationReport("demo", 1, 1, False, {"objects": 2},
                             ("hom", (1, 3), (2, 4)), 0.0)
    assert "FAIL" in rep.summary()
    assert "counterexample" in rep.summary()


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
    for theorem, q in (("equiv", quotient(base, projinj_ideal(base))),
                       ("main2", quotient(relf, injproj_ideal(relf)))):
        assert compare_to_model(theorem, d, n, q, almost_positive_model(d, n)).ok
        # the cluster model has the same labels but wraps its homs and exts
        report = compare_to_model(theorem, d, n, q, cluster_model(d, n))
        assert not report.ok
        assert report.counterexample[0] in ("hom", "ext")
        report = compare_to_model(theorem, d, n, q, almost_positive_model(d, n + 1))
        assert not report.ok
        assert report.counterexample[0] == "object-sets"


def test_run_verification_script_from_any_directory(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "HICAT_GRID")}
    proc = subprocess.run([sys.executable, str(script), "1:1:10"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "11/11 checks passed" in proc.stdout
