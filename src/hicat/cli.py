"""Command-line interface.

Exit codes: 0 on success or a passing verification, 1 on verification
failure, 2 on usage errors, an unwritable ``--out`` among them.  An
empty ``--out`` writes to stdout, as no ``--out`` does.  A reader that
closes stdout early ends the output and changes no exit code: ``verify``
computes all its reports before it writes its first line.
"""
from __future__ import annotations

import argparse
import json
import sys

from .emit import (
    ARROW_POLICIES,
    FORMATS,
    emit,
    exangle_to_dict,
    ext_table,
    hom_table,
    quotient_to_dict,
)
from .exangles import realize
from .models import KINDS, make_model
from .quotients import injproj_ideal, quotient
from .report import write_stdout
from .rigidity import count_maximal_rigid, maximal_rigid, mutate, mutation_graph_dot
from .tuples import IndexTuple, build_quiver
from .verify import DEFAULT_GRID, THEOREMS, FormatError, parse_grid, run_point, run_theorem


def parse_tuple(text: str) -> IndexTuple:
    """Parse '246' or '2,4,6' into (2, 4, 6); raises FormatError when malformed."""
    text = text.strip()
    try:
        if text:
            return tuple(int(p) for p in (text.split(",") if "," in text else text))
    except ValueError:
        pass
    raise FormatError(f"tuple must be 246 or 2,4,6, single digits or integers "
                      f"joined by commas, got {text!r}")


def parse_window(text: str) -> tuple[int, int]:
    """Parse a LO:HI window of first entries; raises FormatError when malformed."""
    try:
        lo, hi = (int(p) for p in text.split(":"))
    except ValueError:
        raise FormatError(f"window must be LO:HI, two integers, got {text!r}") from None
    return lo, hi


def _add_model_args(sub):
    sub.add_argument("--model", choices=KINDS, required=True)
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--window", type=parse_window, default=None,
                     help="LO:HI window of first entries (derived model only)")


def _add_query_args(p):
    _add_model_args(p)
    p.add_argument("--from", dest="src", type=parse_tuple, default=None)
    p.add_argument("--to", dest="tgt", type=parse_tuple, default=None)


def _add_exangle_args(p):
    _add_model_args(p)
    p.add_argument("--from", dest="src", type=parse_tuple, required=True,
                   help="the end the exangle terminates at")
    p.add_argument("--to", dest="tgt", type=parse_tuple, required=True,
                   help="the end the exangle starts from")
    p.add_argument("--out", default=None)


def _add_quotient_args(p):
    _add_model_args(p)
    p.add_argument("--out", default=None)


def _add_verify_args(p):
    p.add_argument("--theorem", choices=THEOREMS, required=True)
    p.add_argument("--grid", type=parse_grid, default=DEFAULT_GRID,
                   help="DMAX:NMAX:OBJMAX, default 3:4:200")


def _add_rigid_args(p):
    _add_model_args(p)
    p.add_argument("--count", action="store_true", help="print only the number of sets")


def _add_mutate_args(p):
    _add_model_args(p)
    p.add_argument("--summands", required=True,
                   help="semicolon-separated tuples, e.g. '13;14'")
    p.add_argument("--at", type=parse_tuple, required=True)


#: what `hicat emit --content` draws -> the options it reads besides --content,
#: --format, --d, --n and --out; all but the mutation graph are drawn by `emit`
CONTENTS = {"quiver": (), "category": ("--model", "--window", "--arrows"),
            "mutation-graph": ("--model", "--window"),
            "exangle": ("--model", "--window", "--from", "--to"), "report": ("--theorem",)}
#: the emit options some contents read -> where the parsed args hold them
_CONTENT_OPTIONS = {"--arrows": "arrows", "--model": "model", "--theorem": "theorem",
                    "--window": "window", "--from": "src", "--to": "tgt"}


def _add_emit_args(p):
    p.add_argument("--content", choices=CONTENTS, required=True)
    p.add_argument("--format", choices=FORMATS, default="dot")
    p.add_argument("--arrows", choices=ARROW_POLICIES, default=None)
    p.add_argument("--model", choices=KINDS, default=None)
    p.add_argument("--theorem", choices=THEOREMS, default=None)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--window", type=parse_window, default=None)
    p.add_argument("--from", dest="src", type=parse_tuple, default=None)
    p.add_argument("--to", dest="tgt", type=parse_tuple, default=None)
    p.add_argument("--out", default=None)


def _model(args):
    return make_model(args.model, args.d, args.n, args.window)


def _print(text: str, out: str | None = None) -> None:
    """Write text to the file out, or to stdout when out is None or empty.

    A reader that closes stdout ends the output, not the command
    (``write_stdout``).
    """
    if not out:
        write_stdout(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # reported as a usage error, exit 2
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _objects(args) -> None:
    _print(json.dumps([list(t) for t in _model(args).objects]) + "\n")


def _count(args) -> None:
    _print(f"{len(_model(args).objects)}\n")


def _pairs(args) -> None:
    """`hom` and `ext`: the dimension of one pair, or the whole table."""
    model = _model(args)
    if (args.src is None) != (args.tgt is None):
        raise ValueError("--from and --to must be given together")
    hom = args.command == "hom"
    if args.src is not None:
        dim = model.hom_dim if hom else model.ext_dim
        _print(f"{dim(args.src, args.tgt)}\n")
    else:
        table = hom_table(model) if hom else ext_table(model)
        _print(json.dumps(table, indent=2, sort_keys=True) + "\n")


def _exangle(args) -> None:
    e = realize(_model(args), args.src, args.tgt)
    _print(json.dumps(exangle_to_dict(e), indent=2) + "\n", args.out)


def _quotient(args) -> None:
    model = _model(args)
    q = quotient(model, injproj_ideal(model))
    _print(json.dumps(quotient_to_dict(q), indent=2) + "\n", args.out)


def _verify(args) -> int:
    reports = run_theorem(args.theorem, args.grid)
    failed = [r for r in reports if not r.ok]
    _print("".join(f"{report.summary()}\n" for report in reports)
           + f"{len(reports) - len(failed)}/{len(reports)} checks passed\n")
    return 1 if failed else 0


def _rigid(args) -> None:
    model = _model(args)
    if args.count:
        _print(f"{count_maximal_rigid(model)}\n")
    else:
        _print(json.dumps([[list(t) for t in s] for s in maximal_rigid(model)]) + "\n")


def _mutate(args) -> None:
    model = _model(args)
    summands = tuple(sorted(parse_tuple(p) for p in args.summands.split(";")))
    result = mutate(model, summands, args.at)
    if result is None:
        _print("null\n")
    else:
        payload = {"summands": [list(t) for t in result.summands],
                   "replaced_by": list(result.replaced_by),
                   "exchanges": [exangle_to_dict(e) for e in result.exchanges]}
        _print(json.dumps(payload, indent=2) + "\n")


def _emit(args) -> None:
    """Draw one content; an option the content does not read is a usage error."""
    reads = CONTENTS[args.content]
    for flag, name in _CONTENT_OPTIONS.items():
        if getattr(args, name) is not None and flag not in reads:
            raise ValueError(f"--content {args.content} does not read {flag}")
    if args.content == "category" and args.format == "json" and args.arrows is not None:
        raise ValueError("--content category in JSON writes the full tables "
                         "and does not read --arrows")
    if args.content == "quiver":
        obj = build_quiver(args.d, args.n)
    elif args.content == "exangle":
        if args.model is None or args.src is None or args.tgt is None:
            raise ValueError("exangle emission needs --model, --from and --to")
        obj = realize(_model(args), args.src, args.tgt)
    elif args.content == "report":
        if args.theorem is None:
            raise ValueError("report emission needs --theorem")
        if args.format != "json":
            # before the theorem runs, which can take seconds
            raise ValueError("reports are emitted as JSON only")
        if args.theorem == "sanity":  # the one theorem of several reports, one per kind
            raise ValueError(f"sanity gives {len(KINDS)} reports; "
                             "report emission takes a theorem with one")
        obj = run_point(args.theorem, args.d, args.n)[0]
    else:
        if args.model is None:
            raise ValueError(f"{args.content} emission needs --model")
        obj = _model(args)
        if args.content == "mutation-graph":
            if args.format != "dot":
                raise ValueError("mutation graphs are emitted as DOT only")
            _print(mutation_graph_dot(obj), args.out)
            return
    _print(emit(obj, args.format, args.arrows or "all-nonzero-homs"), args.out)


#: command -> (help line, function adding its arguments, handler), in the order
#: `hicat --help` lists them; a handler returns the exit code when it is not 0
COMMANDS = {
    "objects": ("list the objects of a model", _add_model_args, _objects),
    "hom": ("hom dimension or full hom table", _add_query_args, _pairs),
    "ext": ("ext dimension or full ext table", _add_query_args, _pairs),
    "exangle": ("realize the exangle of an extension", _add_exangle_args, _exangle),
    "quotient": ("ideal quotient of a model", _add_quotient_args, _quotient),
    "verify": ("run a theorem verifier over the grid", _add_verify_args, _verify),
    "rigid": ("list maximal rigid sets", _add_rigid_args, _rigid),
    "mutate": ("mutate a maximal rigid set at one summand", _add_mutate_args, _mutate),
    "emit": ("emit a diagram or report", _add_emit_args, _emit),
    "count": ("count the objects of a model", _add_model_args, _count),
}


def build_parser() -> argparse.ArgumentParser:
    """The root parser with all ten subparsers.

    `main` parses with it every argv but a known command its own parser reads whole.
    """
    parser = argparse.ArgumentParser(prog="hicat",
                                     description="Combinatorial higher cluster category toolkit")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_args, _) in COMMANDS.items():
        add_args(subs.add_parser(name, help=help_line))
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    A known command (``argv[0]`` in `COMMANDS`) is parsed by its own parser
    alone; ``--help``, no command, an unknown command and arguments that
    parser leaves over go to the full parser, `build_parser`.
    """
    if argv is None:
        argv = sys.argv[1:]
    known = bool(argv) and argv[0] in COMMANDS
    try:
        if known:
            parser = argparse.ArgumentParser(prog="hicat " + argv[0])
            COMMANDS[argv[0]][1](parser)
            args, extras = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not known or extras:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        return COMMANDS[args.command][2](args) or 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
