import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hicat.cli import COMMANDS, CONTENTS, build_parser, main, parse_tuple


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_tuple():
    assert parse_tuple("246") == (2, 4, 6)
    assert parse_tuple("2,4,6") == (2, 4, 6)
    assert parse_tuple("6,11") == (6, 11)
    for text in ("x1", "1,,3", ""):
        with pytest.raises(ValueError, match="246 or 2,4,6"):
            parse_tuple(text)


def test_count_objects(capsys):
    code, out, _ = run_cli(capsys, "count", "--model", "almost-positive",
                           "--d", "2", "--n", "3")
    assert code == 0
    assert out.strip() == "16"


def test_count_rigid(capsys):
    code, out, _ = run_cli(capsys, "rigid", "--model", "almost-positive",
                           "--d", "1", "--n", "2", "--count")
    assert code == 0
    assert out.strip() == "5"


def test_objects_listing(capsys):
    code, out, _ = run_cli(capsys, "objects", "--model", "module",
                           "--d", "1", "--n", "3")
    assert code == 0
    assert json.loads(out) == [[1, 3], [1, 4], [1, 5], [2, 4], [2, 5], [3, 5]]


def test_hom_query(capsys):
    code, out, _ = run_cli(capsys, "hom", "--model", "cluster", "--d", "1",
                           "--n", "6", "--from", "15", "--to", "26")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(capsys, "hom", "--model", "cluster", "--d", "1",
                           "--n", "6", "--from", "15", "--to", "48")
    assert code == 0 and out.strip() == "0"


def test_ext_table(capsys):
    code, out, _ = run_cli(capsys, "ext", "--model", "module", "--d", "1", "--n", "2")
    assert code == 0
    table = json.loads(out)
    assert table["2,4"] == ["1,3"]


def test_exangle_json(capsys):
    code, out, _ = run_cli(capsys, "exangle", "--model", "module", "--d", "2",
                           "--n", "3", "--from", "246", "--to", "135")
    assert code == 0
    payload = json.loads(out)
    assert payload["A"] == [1, 3, 5]
    assert payload["B"] == [2, 4, 6]
    assert payload["middles"] == [[[1, 3, 6]], [[1, 4, 6]]]


def test_quotient_command(capsys):
    code, out, _ = run_cli(capsys, "quotient", "--model", "module",
                           "--d", "1", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["zero_objects"] == [[1, 5]]
    code, out, _ = run_cli(capsys, "quotient", "--model", "relative-f",
                           "--d", "1", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    # the killed morphisms factor through an arrow from a shifted projective
    # (a_1 = 6) to a projective image (a_0 = 1); no identity is killed
    assert payload["kind"] == "relative-f" and payload["zero_objects"] == []
    assert payload["killed"] == [[[3, 5], [1, 3]], [[3, 6], [1, 3]], [[3, 6], [1, 4]],
                                 [[4, 6], [1, 4]], [[4, 6], [2, 4]]]
    code, _, _ = run_cli(capsys, "quotient", "--model", "cluster",
                         "--d", "1", "--n", "3")
    assert code == 2


GOLDEN = Path(__file__).resolve().parent / "golden"
MODULE_23_EXANGLE = ["--model", "module", "--d", "2", "--n", "3", "--from", "246", "--to", "135"]


@pytest.mark.parametrize("name,argv", [
    ("exangle_module_2_3.json", ["exangle", *MODULE_23_EXANGLE]),
    ("quotient_module_1_3.json", ["quotient", "--model", "module", "--d", "1", "--n", "3"]),
    ("quotient_relative-f_1_3.json",
     ["quotient", "--model", "relative-f", "--d", "1", "--n", "3"]),
    ("emit_exangle_module_2_3.json",
     ["emit", "--content", "exangle", "--format", "json", *MODULE_23_EXANGLE]),
    *((f"emit_exangle_module_2_3.{fmt}",
       ["emit", "--content", "exangle", "--format", fmt, *MODULE_23_EXANGLE])
      for fmt in ("dot", "tikz")),
    *((f"emit_quiver_2_3.{fmt}",
       ["emit", "--content", "quiver", "--d", "2", "--n", "3", "--format", fmt])
      for fmt in ("dot", "tikz", "json")),
    *((f"emit_category_module_1_3.{fmt}",
       ["emit", "--content", "category", "--model", "module", "--d", "1", "--n", "3",
        "--format", fmt])
      for fmt in ("dot", "tikz", "json")),
    ("emit_mutation-graph_almost-positive_1_3.dot",
     ["emit", "--content", "mutation-graph", "--model", "almost-positive", "--d", "1",
      "--n", "3"]),
])
def test_output_bytes_match_the_goldens(capsys, name, argv):
    # the differentials' source and target lists, the key order, the
    # indentation and the node and edge order of the diagrams are pinned byte for byte
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("argv,message", [
    *((["emit", "--content", "mutation-graph", "--model", "almost-positive", "--d", "1",
        "--n", "3", "--format", fmt], "mutation graphs are emitted as DOT only")
      for fmt in ("tikz", "json")),
    *((["emit", "--content", "report", "--theorem", "equiv", "--d", "1", "--n", "2",
        "--format", fmt], "reports are emitted as JSON only")
      for fmt in ("dot", "tikz")),
    # a theorem that takes seconds here, and sanity, which gives five reports
    *((["emit", "--content", "report", "--theorem", theorem, "--d", "5", "--n", "3",
        "--format", "dot"], "reports are emitted as JSON only")
      for theorem in ("correspondence", "sanity")),
])
def test_emit_in_a_format_the_content_lacks_is_usage_error(capsys, monkeypatch, argv, message):
    # the format is refused before any theorem runs
    def never(*args):
        raise AssertionError("run_point ran")
    monkeypatch.setattr("hicat.cli.run_point", never)
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


#: a valid value of each emit option that only some contents read
CONTENT_OPTIONS = {"--arrows": "irreducible-only", "--model": "module", "--theorem": "equiv",
                   "--window": "0:1", "--from": "246", "--to": "135"}


@pytest.mark.parametrize("content,flag", [
    (content, flag) for content, reads in CONTENTS.items()
    for flag in CONTENT_OPTIONS if flag not in reads])
def test_emit_rejects_an_option_its_content_does_not_read(capsys, monkeypatch, content, flag):
    def never(*args):
        raise AssertionError("run_point ran")
    monkeypatch.setattr("hicat.cli.run_point", never)
    argv = ["emit", "--content", content, "--d", "2", "--n", "3", flag, CONTENT_OPTIONS[flag]]
    assert run_cli(capsys, *argv) == (2, "", f"error: --content {content} does not read {flag}\n")


def test_emit_category_in_json_rejects_arrows(capsys):
    argv = ["emit", "--content", "category", "--model", "module", "--d", "1", "--n", "3"]
    assert run_cli(capsys, *argv, "--format", "json")[0] == 0
    assert run_cli(capsys, *argv, "--format", "json", "--arrows", "all-nonzero-homs") == (
        2, "", "error: --content category in JSON writes the full tables "
        "and does not read --arrows\n")


@pytest.mark.parametrize("content", ["category", "mutation-graph"])
def test_emit_of_a_model_needs_the_model(capsys, content):
    assert run_cli(capsys, "emit", "--content", content, "--d", "1", "--n", "2") == (
        2, "", f"error: {content} emission needs --model\n")


def test_emit_category_json_carries_the_window(capsys):
    code, out, _ = run_cli(capsys, "emit", "--content", "category", "--model", "derived",
                           "--d", "1", "--n", "2", "--window", "1:2", "--format", "json")
    assert code == 0
    assert json.loads(out)["window"] == [1, 2]


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "equiv",
                           "--grid", "1:2:50")
    assert code == 0
    assert "pass" in out
    assert "2/2 checks passed" in out


def test_verify_all_theorems_tiny_grid(capsys):
    for theorem in ("f-exangles", "main2", "sanity", "correspondence"):
        code, out, _ = run_cli(capsys, "verify", "--theorem", theorem,
                               "--grid", "1:1:10")
        assert code == 0, (theorem, out)


def test_rigid_listing(capsys):
    code, out, _ = run_cli(capsys, "rigid", "--model", "almost-positive",
                           "--d", "1", "--n", "2")
    assert code == 0
    sets = json.loads(out)
    assert [[1, 3], [1, 4]] in sets and len(sets) == 5


def test_mutate_command(capsys):
    code, out, _ = run_cli(capsys, "mutate", "--model", "almost-positive",
                           "--d", "1", "--n", "2", "--summands", "13;14",
                           "--at", "14")
    assert code == 0
    payload = json.loads(out)
    assert payload["summands"] == [[1, 3], [3, 5]]
    assert payload["replaced_by"] == [3, 5]
    code, _, err = run_cli(capsys, "mutate", "--model", "almost-positive",
                           "--d", "1", "--n", "2", "--summands", "13;13;14",
                           "--at", "14")
    assert code == 2 and "repeated summands" in err
    # no object replaces (1, 3, 6): the answer is JSON null
    code, out, _ = run_cli(capsys, "mutate", "--model", "almost-positive",
                           "--d", "2", "--n", "2", "--summands", "135;136;146",
                           "--at", "136")
    assert code == 0 and json.loads(out) is None


def test_emit_to_file(tmp_path, capsys):
    out_path = tmp_path / "fig.dot"
    code, _, _ = run_cli(capsys, "emit", "--content", "quiver", "--d", "2",
                         "--n", "3", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8").startswith("digraph {")


def test_emit_category_stdout(capsys):
    code, out, _ = run_cli(capsys, "emit", "--content", "category",
                           "--model", "module", "--d", "2", "--n", "3",
                           "--arrows", "irreducible-only")
    assert code == 0
    assert out.count("->") == 12
    code, out, _ = run_cli(capsys, "emit", "--content", "category", "--format", "tikz",
                           "--model", "module", "--d", "2", "--n", "3",
                           "--arrows", "irreducible-only")
    assert code == 0
    assert out.count("\\draw[->]") == 12 and "(n1-3-5) -- (n1-3-6)" in out


@pytest.mark.parametrize("fmt", ["dot", "tikz", "json"])
def test_emit_exangle(capsys, fmt):
    argv = ("emit", "--content", "exangle", "--model", "module", "--d", "2", "--n", "3",
            "--from", "246", "--to", "135", "--format", fmt)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    # 135 -> 136 -> 146 -> 246, one summand per term
    if fmt == "dot":
        assert out.count('[label="') == 4
        assert '"1,3,6" -> "1,4,6";' in out and out.count("->") == 3
    elif fmt == "tikz":
        assert out.count("\\node") == 4
        assert "(n1-3-6) -- (n1-4-6);" in out and out.count("\\draw[->]") == 3
    else:
        payload = json.loads(out)
        assert payload["middles"] == [[[1, 3, 6]], [[1, 4, 6]]]
        assert [d["entries"] for d in payload["differentials"]] == [[[1]], [[-1]], [[1]]]
    assert run_cli(capsys, *argv[:-6], "--format", fmt)[0] == 2


def test_emit_report(capsys):
    code, out, _ = run_cli(capsys, "emit", "--content", "report",
                           "--theorem", "equiv", "--d", "1", "--n", "2",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["counters"]["objects"] == 5
    assert payload["peak_rss_mib"] > 0
    code, _, _ = run_cli(capsys, "emit", "--content", "report",
                         "--d", "1", "--n", "2", "--format", "json")
    assert code == 2
    # sanity gives one report per model, not one report
    code, _, err = run_cli(capsys, "emit", "--content", "report", "--theorem", "sanity",
                           "--d", "1", "--n", "2", "--format", "json")
    assert code == 2 and "5 reports" in err


def test_usage_errors(capsys):
    assert run_cli(capsys, "count", "--model", "bogus", "--d", "1", "--n", "1")[0] == 2
    assert run_cli(capsys, "verify", "--theorem", "nonsense")[0] == 2
    assert run_cli(capsys, "hom", "--model", "module", "--d", "1", "--n", "3",
                   "--from", "13")[0] == 2
    assert main([]) == 2


def test_membership_error_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "hom", "--model", "module", "--d", "1",
                           "--n", "3", "--from", "19", "--to", "13")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("grid", ["3:4", "0:4:200", "3:x:200", "1:1:1", "3:4:2"])
def test_malformed_grid_names_its_format(capsys, grid):
    code, out, err = run_cli(capsys, "verify", "--theorem", "equiv", "--grid", grid)
    assert (code, out) == (2, "")
    last = err.splitlines()[-1]
    assert last.startswith("hicat verify: error: argument --grid: grid ")
    assert "DMAX:NMAX:OBJMAX" in last and last.endswith(repr(grid))


@pytest.mark.parametrize("argv,flag,form", [
    (["count", "--model", "derived", "--d", "1", "--n", "2", "--window", "5"],
     "--window", "window must be LO:HI"),
    (["count", "--model", "derived", "--d", "1", "--n", "2", "--window", "1:x"],
     "--window", "window must be LO:HI"),
    (["hom", "--model", "module", "--d", "1", "--n", "3", "--from", "1,,3", "--to", "13"],
     "--from", "tuple must be 246 or 2,4,6"),
    (["exangle", "--model", "module", "--d", "1", "--n", "3", "--from", "24", "--to", "x1"],
     "--to", "tuple must be 246 or 2,4,6"),
])
def test_malformed_window_and_tuple_name_their_form(capsys, argv, flag, form):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    last = err.splitlines()[-1]
    assert last.startswith(f"hicat {argv[0]}: error: argument {flag}: {form}")
    assert last.endswith(repr(argv[argv.index(flag) + 1]))


def test_malformed_summand_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "mutate", "--model", "module", "--d", "1", "--n", "2",
                             "--summands", "13;1,,4", "--at", "13")
    assert (code, out) == (2, "")
    assert err == "error: tuple must be 246 or 2,4,6, single digits or integers " \
        "joined by commas, got '1,,4'\n"


def test_a_closed_stdout_ends_the_output_with_exit_0():
    # the 651 853-byte table is larger than a pipe buffer, so the writer
    # meets the closed pipe (EPIPE) once the reader has taken one line
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen([sys.executable, "-m", "hicat.cli", "hom", "--model", "derived",
                             "--d", "4", "--n", "6"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


#: the commands that take --out, each with a small query
WRITERS = {
    "exangle": ["exangle", "--model", "module", "--d", "2", "--n", "3",
                "--from", "246", "--to", "135"],
    "quotient": ["quotient", "--model", "module", "--d", "1", "--n", "3"],
    "emit": ["emit", "--content", "quiver", "--d", "1", "--n", "2"],
}


@pytest.mark.parametrize("command", WRITERS)
def test_empty_out_writes_to_stdout(capsys, command):
    code, want, _ = run_cli(capsys, *WRITERS[command])
    assert code == 0 and want
    assert run_cli(capsys, *WRITERS[command], "--out", "") == (0, want, "")


@pytest.mark.parametrize("command", WRITERS)
def test_unwritable_out_is_usage_error(capsys, tmp_path, command):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, *WRITERS[command], "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err
    assert not target.parent.exists()


@pytest.mark.parametrize("command", [["count"], ["hom"], ["rigid", "--count"]])
def test_reversed_window_is_usage_error(capsys, command):
    code, out, err = run_cli(capsys, *command, "--model", "derived", "--d", "1",
                             "--n", "2", "--window", "3:1")
    assert (code, out) == (2, "")
    assert "window 3:1 is empty" in err


ROOT_USAGE = """\
usage: hicat [-h]
             {objects,hom,ext,exangle,quotient,verify,rigid,mutate,emit,count}
             ...
"""

ROOT_HELP = ROOT_USAGE + """
Combinatorial higher cluster category toolkit

positional arguments:
  {objects,hom,ext,exangle,quotient,verify,rigid,mutate,emit,count}
    objects             list the objects of a model
    hom                 hom dimension or full hom table
    ext                 ext dimension or full ext table
    exangle             realize the exangle of an extension
    quotient            ideal quotient of a model
    verify              run a theorem verifier over the grid
    rigid               list maximal rigid sets
    mutate              mutate a maximal rigid set at one summand
    emit                emit a diagram or report
    count               count the objects of a model

options:
  -h, --help            show this help message and exit
"""

COUNT_USAGE = """\
usage: hicat count [-h] --model
                   {module,derived,cluster,almost-positive,relative-f} --d D
                   --n N [--window WINDOW]
"""

COUNT_HELP = COUNT_USAGE + """
options:
  -h, --help            show this help message and exit
  --model {module,derived,cluster,almost-positive,relative-f}
  --d D
  --n N
  --window WINDOW       LO:HI window of first entries (derived model only)
"""

CHOICES = "'objects', 'hom', 'ext', 'exangle', 'quotient', 'verify', 'rigid', 'mutate', " \
    "'emit', 'count'"
KINDS = "'module', 'derived', 'cluster', 'almost-positive', 'relative-f'"


@pytest.mark.parametrize("argv,code,out,err", [
    (["--help"], 0, ROOT_HELP, ""),
    (["count", "--help"], 0, COUNT_HELP, ""),
    ([], 2, "", ROOT_USAGE + "hicat: error: the following arguments are required: command\n"),
    (["bogus"], 2, "", ROOT_USAGE + "hicat: error: argument command: invalid choice: "
     f"'bogus' (choose from {CHOICES})\n"),
    (["count", "--model", "bogus", "--d", "1", "--n", "1"], 2, "",
     COUNT_USAGE + f"hicat count: error: argument --model: invalid choice: 'bogus' "
     f"(choose from {KINDS})\n"),
    # an argument the command leaves over is reported by the root parser
    (["count", "--model", "module", "--d", "1", "--n", "2", "extra"], 2, "",
     ROOT_USAGE + "hicat: error: unrecognized arguments: extra\n"),
])
def test_help_and_usage_error_texts(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize("tail", [
    ["--help"], [], ["--bogus"], ["--d", "x"], ["--model", "module", "--d", "1", "--n", "2", "extra"],
])
@pytest.mark.parametrize("command", COMMANDS)
def test_command_parser_matches_the_full_parser(capsys, monkeypatch, command, tail):
    # main parses a known command with that command's parser alone; what it
    # prints and returns must be what the parser with all ten subparsers gives
    monkeypatch.setenv("COLUMNS", "80")
    got = run_cli(capsys, command, *tail)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, *tail])
    assert got == (exc.value.code, *capsys.readouterr())


@pytest.mark.parametrize("tail,parsers", [
    ([], 1),
    # the leftover `extra` is reported by the full parser: root and ten subparsers
    (["extra"], 1 + 1 + len(COMMANDS)),
])
def test_a_known_command_builds_its_own_parser_alone(capsys, monkeypatch, tail, parsers):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, _, _ = run_cli(capsys, "count", "--model", "module", "--d", "1", "--n", "2", *tail)
    assert code == (2 if tail else 0)
    assert built[0] == "hicat count" and len(built) == parsers
