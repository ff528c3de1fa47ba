import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hicat.emit import (
    emit,
    exangle_to_dict,
    irreducible_arrows,
    node_id,
    render_label,
)
from hicat.exangles import realize
from hicat.models import almost_positive_model, cluster_model, derived_model, module_model
from hicat.quotients import projinj_ideal, quotient
from hicat.rigidity import mutation_graph_dot
from hicat.tuples import build_quiver
from hicat.verify import verify_equiv_module_ap
from pair_rules import composite

QUIVER_23_EDGES = {("13", "14"), ("14", "15"), ("14", "24"),
                   ("15", "25"), ("24", "25"), ("25", "35")}

MODULE_23_ARROWS = {
    ("135", "136"), ("136", "137"), ("136", "146"), ("137", "147"),
    ("146", "147"), ("147", "157"), ("146", "246"), ("147", "247"),
    ("157", "257"), ("246", "247"), ("247", "257"), ("257", "357"),
}

AP_23_NODES = {"135", "136", "137", "146", "147", "157", "246", "247", "257",
               "248", "258", "268", "357", "358", "368", "468"}

# the arrows of the almost-positive category at d=2, n=3: the twelve
# module-part arrows, three crossings into the shifted-projective part,
# and the six arrows among shifted projectives
AP_23_ARROWS = MODULE_23_ARROWS | {
    ("247", "248"), ("257", "258"), ("357", "358"),
    ("248", "258"), ("258", "268"), ("258", "358"),
    ("268", "368"), ("358", "368"), ("368", "468"),
}


def parse_dot(text):
    nodes, edges = set(), set()
    for line in text.splitlines():
        line = line.strip()
        if "->" in line:
            src, _, tgt = line.partition("->")
            edges.add((src.strip().strip('";'), tgt.strip().strip('";')))
        elif line.startswith('"'):
            nodes.add(line.split('"')[1])
    return nodes, edges


def id_pairs(label_pairs):
    def expand(s):
        return ",".join(s)
    return {(expand(a), expand(b)) for a, b in label_pairs}


def test_render_helpers():
    assert node_id((1, 3, 5)) == "1,3,5"
    assert render_label((1, 3, 5)) == "135"
    assert render_label((6, 11)) == "6,11"


def test_quiver_dot_matches_small_quiver():
    text = emit(build_quiver(2, 3))
    nodes, edges = parse_dot(text)
    assert len(nodes) == 6 and len(edges) == 6
    assert edges == id_pairs(QUIVER_23_EDGES)


def test_quiver_dot_other_sizes():
    nodes1, edges1 = parse_dot(emit(build_quiver(1, 3)))
    assert len(nodes1) == 3 and len(edges1) == 2
    nodes3, edges3 = parse_dot(emit(build_quiver(3, 3)))
    assert len(nodes3) == 10 and len(edges3) == 12


def test_module_category_irreducible_dot():
    model = module_model(2, 3)
    nodes, edges = parse_dot(emit(model, arrows="irreducible-only"))
    assert len(nodes) == 10
    assert edges == id_pairs(MODULE_23_ARROWS)


def test_almost_positive_irreducible_dot():
    model = almost_positive_model(2, 3)
    nodes, edges = parse_dot(emit(model, arrows="irreducible-only"))
    assert nodes == {",".join(s) for s in AP_23_NODES}
    assert edges == id_pairs(AP_23_ARROWS)


def test_irreducible_matches_bruteforce_definition():
    model = almost_positive_model(2, 3)
    got = set(irreducible_arrows(model))
    expected = set()
    for x in model.objects:
        for y in model.objects:
            if x == y or not model.hom_dim(x, y):
                continue
            if not any(z not in (x, y) and model.hom_dim(x, z)
                       and model.hom_dim(z, y) and composite(model, x, z, y)
                       for z in model.objects):
                expected.add((x, y))
    assert got == expected


def test_emission_is_deterministic():
    model = module_model(2, 3)
    assert emit(model, arrows="irreducible-only") == emit(model, arrows="irreducible-only")
    quiver = build_quiver(2, 3)
    assert emit(quiver) == emit(quiver)


def test_emit_figures_script_writes_what_emit_returns(tmp_path):
    # the script writes the five reference diagrams into out/ of its working directory
    script = Path(__file__).resolve().parent.parent / "scripts" / "emit_figures.py"
    run = subprocess.run([sys.executable, "-W", "error", str(script)], cwd=tmp_path,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    want = {f"quiver_{d}_{n}.dot": emit(build_quiver(d, n)) for d, n in ((1, 3), (2, 3), (3, 3))}
    want["module_2_3.dot"] = emit(module_model(2, 3), arrows="irreducible-only")
    want["almost_positive_2_3.dot"] = emit(almost_positive_model(2, 3), arrows="irreducible-only")
    written = {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()}
    assert written == {name: text.encode("utf-8") for name, text in want.items()}


def test_json_emissions():
    model = cluster_model(1, 2)
    payload = json.loads(emit(model, "json"))
    assert payload["kind"] == "cluster"
    assert [1, 3] in payload["objects"]
    assert "1,3" in payload["hom"]
    q = json.loads(emit(build_quiver(2, 3), "json"))
    assert len(q["vertices"]) == 6 and len(q["arrows"]) == 6
    e = realize(module_model(2, 3), (2, 4, 6), (1, 3, 5))
    d = exangle_to_dict(e)
    assert d["A"] == [1, 3, 5] and d["B"] == [2, 4, 6]
    assert d["middles"] == [[[1, 3, 6]], [[1, 4, 6]]]
    assert len(d["differentials"]) == 3


# the module quotient at d=1, n=3: the projective-injective (1, 5) is a zero
# object, so it is neither a node nor an end of an arrow
MODULE_13_QUOTIENT_DOT = """\
digraph {
  "1,3" [label="13"];
  "1,4" [label="14"];
  "2,4" [label="24"];
  "2,5" [label="25"];
  "3,5" [label="35"];
  "1,3" -> "1,4";
  "1,4" -> "2,4";
  "2,4" -> "2,5";
  "2,5" -> "3,5";
}
"""


def test_quotient_category_emission():
    base = module_model(1, 3)
    q = quotient(base, projinj_ideal(base))
    assert emit(q) == MODULE_13_QUOTIENT_DOT
    payload = json.loads(emit(q, "json"))
    # the tables are the quotient's, over its objects; objects lists the base's
    live = ["1,3", "1,4", "2,4", "2,5", "3,5"]
    assert list(payload["hom"]) == list(payload["ext"]) == live
    assert payload["hom"]["1,4"] == ["1,4", "2,4"]
    assert payload["objects"] == [list(x) for x in base.objects]
    assert payload["zero_objects"] == [[1, 5]]


def test_tikz_smoke():
    text = emit(build_quiver(2, 3), "tikz")
    assert text.startswith("\\begin{tikzpicture}")
    assert "\\draw[->]" in text
    # TikZ reads "(1,3)" in a path as a coordinate, so every arrow must join
    # two declared node names, and no name may hold a comma
    cases = [(build_quiver(2, 3), "all-nonzero-homs"),
             (module_model(1, 2), "all-nonzero-homs"),
             (almost_positive_model(2, 3), "irreducible-only"),
             (derived_model(1, 2, (-3, -1)), "all-nonzero-homs"),
             (realize(module_model(2, 3), (2, 4, 6), (1, 3, 5)), "all-nonzero-homs")]
    for obj, arrows in cases:
        text = emit(obj, "tikz", arrows)
        names = re.findall(r"\\node \(([^)]*)\) at", text)
        ends = re.findall(r"\\draw\[->\] \(([^)]*)\) -- \(([^)]*)\);", text)
        assert ends and len(names) == len(set(names))
        assert all("," not in name for name in names)
        assert {end for pair in ends for end in pair} <= set(names)
    assert "\\node (n1-3) at (0,1) {13};" in emit(module_model(1, 2), "tikz")


def test_mutation_graph_content():
    # emit draws no mutation graph: `hicat emit --content mutation-graph` takes it from rigidity
    text = mutation_graph_dot(almost_positive_model(1, 2))
    assert text.count("->") == 5


def test_report_emission():
    rep = verify_equiv_module_ap(1, 1)
    payload = json.loads(emit(rep, "json"))
    assert payload["ok"] is True and payload["theorem"] == "equiv"


def test_invalid_pairings():
    # an unknown format or arrow policy, a report drawn as a diagram, and an
    # object that is none of the four types emit draws
    with pytest.raises(ValueError, match="unknown format 'png'"):
        emit(build_quiver(1, 2), "png")
    with pytest.raises(ValueError, match="unknown arrow policy 'all'"):
        emit(module_model(1, 1), "dot", "all")
    for fmt in ("dot", "tikz"):
        with pytest.raises(ValueError, match="reports are emitted as JSON only"):
            emit(verify_equiv_module_ap(1, 1), fmt)
    with pytest.raises(ValueError, match="cannot emit a tuple"):
        emit((1, 3))
