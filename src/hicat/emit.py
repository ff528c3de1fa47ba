"""Deterministic diagram and report emitters: DOT, TikZ, and JSON.

DOT node identifiers are the comma-joined tuple entries.  TikZ reads a
parenthesized name with a comma as a coordinate, so TikZ node names are
the entries joined by "-" after the letter n.  Display labels drop the
separators while every entry is a single digit.  Output is
byte-deterministic for fixed inputs: nodes are emitted in lexicographic
order and edges in sorted order.
"""
from __future__ import annotations

import json

from .exangles import Exangle
from .models import CategoryModel, bit_indices
from .quotients import QuotientModel
from .report import VerificationReport
from .tuples import IndexTuple, Quiver

FORMATS = ("dot", "tikz", "json")
ARROW_POLICIES = ("all-nonzero-homs", "irreducible-only")


def node_id(t: IndexTuple) -> str:
    return ",".join(str(v) for v in t)


def render_label(t: IndexTuple) -> str:
    """Compact concatenated rendering when all entries are single digits."""
    if all(1 <= v <= 9 for v in t):
        return "".join(str(v) for v in t)
    return node_id(t)


def irreducible_arrows(model) -> tuple[tuple[IndexTuple, IndexTuple], ...]:
    """Nonzero homs between distinct objects that are not nonzero composites
    of two nonzero non-identity basis morphisms.

    The composites from x are read a row at a time: the row of (x, k), for
    each k != x with a hom x -> k, without k itself.
    """
    objs, out = model.objects, model.hom_rows.out
    edges = []
    for i, x in enumerate(objs):
        arrows = out[i] & ~(1 << i)
        composites = 0
        for k in bit_indices(arrows):
            composites |= model.compose_row(i, k) & ~(1 << k)
        edges.extend((x, objs[j]) for j in bit_indices(arrows & ~composites))
    return tuple(edges)


def category_arrows(model, policy: str) -> tuple[tuple[IndexTuple, IndexTuple], ...]:
    """The arrows of a category diagram, in label order (rows and their bits are)."""
    if policy == "irreducible-only":
        return irreducible_arrows(model)
    objs = model.objects
    return tuple((x, objs[j]) for i, (x, row) in enumerate(zip(objs, model.hom_rows.out))
                 for j in bit_indices(row & ~(1 << i)))


def _dot_graph(nodes, edges) -> str:
    lines = ["digraph {"]
    for t in sorted(nodes):
        lines.append(f'  "{node_id(t)}" [label="{render_label(t)}"];')
    for src, tgt in sorted(edges):
        lines.append(f'  "{node_id(src)}" -> "{node_id(tgt)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _tikz_graph(nodes, edges) -> str:
    nodes = sorted(nodes)
    # simple deterministic layout: column by lexicographic index, row by first entry
    coords = {t: (i, t[0] if t else 0) for i, t in enumerate(nodes)}
    names = {t: "n" + "-".join(str(v) for v in t) for t in nodes}  # no comma, one to one
    lines = ["\\begin{tikzpicture}"]
    for t in nodes:
        x, y = coords[t]
        lines.append(f"  \\node ({names[t]}) at ({x},{y}) {{{render_label(t)}}};")
    for src, tgt in sorted(edges):
        lines.append(f"  \\draw[->] ({names[src]}) -- ({names[tgt]});")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def model_descriptor(model) -> dict:
    desc = {"kind": model.kind, "d": model.d, "n": model.n,
            "objects": [list(t) for t in model.objects]}
    if model.window:
        desc["window"] = list(model.window)
    return desc


def _table(objects, rows) -> dict:
    return {node_id(x): [node_id(objects[j]) for j in bit_indices(row)]
            for x, row in zip(objects, rows)}


def hom_table(model) -> dict:
    return _table(model.objects, model.hom_rows.out)


def ext_table(model) -> dict:
    return _table(model.objects, model.ext_rows.out)


def quiver_to_dict(q: Quiver) -> dict:
    def path_dict(p):
        start, i, j = p
        return {"start": list(start), "first": i, "second": j}

    return {
        "vertices": [list(v) for v in q.vertices],
        "arrows": [{"source": list(s), "target": list(t), "direction": i}
                   for s, t, i in q.arrows],
        "relations": [{"path": path_dict(p),
                       "equals": path_dict(partner) if partner else None}
                      for p, partner in q.relations],
    }


def exangle_to_dict(e: Exangle) -> dict:
    return {
        "A": list(e.x0),
        "B": list(e.xlast),
        "middles": [[list(t) for t in level] for level in e.middles],
        "differentials": [{"source": [list(t) for t in sources],
                           "target": [list(t) for t in targets],
                           "entries": [list(row) for row in diff]}
                          for diff, sources, targets
                          in zip(e.differentials, e.terms, e.terms[1:])],
    }


def report_to_dict(r: VerificationReport) -> dict:
    return {"theorem": r.theorem, "d": r.d, "n": r.n, "ok": r.ok,
            "counters": dict(sorted(r.counters.items())),
            "counterexample": repr(r.counterexample) if r.counterexample else None,
            "elapsed": round(r.elapsed, 4),
            "peak_rss_mib": None if r.peak_rss_mib is None else round(r.peak_rss_mib, 3)}


def quotient_to_dict(q: QuotientModel) -> dict:
    desc = model_descriptor(q.base)
    desc["killed"] = [[list(src), list(tgt)] for src, tgt in sorted(q.killed)]
    desc["zero_objects"] = [list(t) for t in q.zero_objects]
    return desc


def _json_dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit(obj, fmt: str = "dot", arrows: str = "all-nonzero-homs") -> str:
    """Draw a Quiver, a model (a quotient too), an Exangle or a report.

    What is drawn follows the object's type; a report is JSON only.  An
    unknown format or arrow policy, or any other type, raises ValueError.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if arrows not in ARROW_POLICIES:
        raise ValueError(f"unknown arrow policy {arrows!r}")
    if isinstance(obj, VerificationReport):
        if fmt != "json":
            raise ValueError("reports are emitted as JSON only")
        return _json_dump(report_to_dict(obj))
    if isinstance(obj, Quiver):
        if fmt == "json":
            return _json_dump(quiver_to_dict(obj))
        nodes, edges = obj.vertices, [(s, t) for s, t, _ in obj.arrows]
    elif isinstance(obj, CategoryModel):
        if fmt == "json":
            payload = model_descriptor(obj)
            payload["hom"] = hom_table(obj)
            payload["ext"] = ext_table(obj)
            if isinstance(obj, QuotientModel):
                payload.update(quotient_to_dict(obj))
            return _json_dump(payload)
        nodes, edges = obj.objects, category_arrows(obj, arrows)
    elif isinstance(obj, Exangle):
        if fmt == "json":
            return _json_dump(exangle_to_dict(obj))
        terms = obj.terms
        nodes = [x for term in terms for x in term]
        edges = [(src, tgt) for diff, sources, targets in zip(obj.differentials, terms, terms[1:])
                 for tgt, row in zip(targets, diff) for src, v in zip(sources, row) if v]
    else:
        raise ValueError(f"cannot emit a {type(obj).__name__}")
    return (_dot_graph if fmt == "dot" else _tikz_graph)(nodes, edges)
