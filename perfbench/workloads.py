"""The benchmark's workloads: inputs, timed rounds and output checks.

A workload runs in whole rounds.  Every round of a run does the same
operations, and module-level caches inside hicat are cleared before
each operation, so each operation pays what it would pay in a fresh
``hicat`` process and every round does the same work.  That makes the
traced counts of one round repeat exactly.

- grid-structure: ``equiv``, ``f-exangles`` and ``main2`` (the last two
  with the extra point (1, 6)) and ``sanity`` over the grid 3:4:200, one
  ``run_theorem`` call per theorem as ``scripts/run_verification.py``
  makes them; 98 reports a round.
- grid-mutation: ``correspondence`` over the same grid; 12 reports.
- cli-queries: single queries through ``hicat.cli.main(argv)`` with
  stdout captured; a fixed slot table of (query kind, model, point),
  with labels and rigid sets drawn from the seed.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import statistics
import sys
from math import comb
from time import perf_counter

import calibrate
import oracle

WORKLOADS = ("grid-structure", "grid-mutation", "cli-queries")

GRID = (3, 4, 200)
GRID_POINTS = tuple((d, n) for d in range(1, GRID[0] + 1) for n in range(1, GRID[1] + 1)
                    if comb(n + d + 1, d + 1) <= GRID[2])
EXTRA_POINT = (1, 6)
STRUCTURE_THEOREMS = ("equiv", "f-exangles", "main2", "sanity")
EXTRA_POINT_THEOREMS = ("f-exangles", "main2")

#: Points where maximal rigid sets are cheap to enumerate (never the derived model).
RIGID_POINTS = tuple(p for p in GRID_POINTS if p != (3, 4))
GRAPH_POINTS = tuple((d, n) for d, n in GRID_POINTS if d + n <= 5)
RIGID_KINDS = ("module", "cluster", "almost-positive", "relative-f")
QUERY_KINDS = ("hom", "ext", "hom-table", "ext-table", "exangle", "quotient", "count",
               "rigid", "mutate", "emit-category", "emit-mutation-graph")

#: Minimum rounds per run.  The timings take each operation's best latency
#: over the rounds, so a run needs several.
MIN_ROUNDS = {"grid-structure": 3, "grid-mutation": 3, "cli-queries": 5}
MIN_TRACE_ROUNDS = 2
#: Workloads timed against the calibration kernel, and before every how
#: many operations it runs: often enough to follow the host, sparse enough
#: to add about a tenth to a round.  A grid operation runs for seconds,
#: through host phases that no kernel run between operations sees, so the
#: grids are not calibrated (README.md).
CALIBRATE_EVERY = {"cli-queries": 8}
#: Draws per model and point of the single-answer queries, so that a round
#: holds over 1 000 queries and at least ten of their best latencies lie
#: beyond the 99th percentile.
PAIR_DRAWS = 5
EXTENSION_DRAWS = 2
MIN_STREAM = 1000


# ---------------------------------------------------------------- inputs

def make_inputs(workload: str, seed: int) -> dict:
    """The operations of one round.

    The grid is the input of the grid workloads, so they run the theorems
    in the order of ``scripts/run_verification.py`` whatever the seed; the
    seed draws the labels of the query stream and its order in each round.
    """
    rng = random.Random(seed)
    if workload == "grid-structure":
        units = [(th, (EXTRA_POINT,) if th in EXTRA_POINT_THEOREMS else ())
                 for th in STRUCTURE_THEOREMS]
    elif workload == "grid-mutation":
        units = [("correspondence", ())]
    elif workload == "cli-queries":
        return {"rng": rng, "ops": _query_stream(rng), "shuffle": True}
    else:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    return {"rng": rng, "ops": units, "shuffle": False}


def _fmt(t) -> str:
    return ",".join(str(v) for v in t)


def _ext_pair(rng, kind, d, n):
    """A pair (b, a) with ext(b, a) = 1, drawn from interleaving value sets."""
    objs = oracle.label_set(kind, d, n)
    m = oracle.modulus(d, n)
    for _ in range(10_000):
        if kind == "derived":
            a0 = rng.randint(1, m - 1)
            vals = sorted(rng.sample(range(a0 + 1, a0 + m), 2 * d + 1))
            a, b = (a0, *vals[1::2]), tuple(vals[0::2])
        else:
            top = n + 2 * d if kind == "module" else m
            vals = sorted(rng.sample(range(1, top + 1), 2 * d + 2))
            a, b = tuple(vals[0::2]), tuple(vals[1::2])
        if a in objs and b in objs:
            return b, a
    raise RuntimeError(f"no extension pair drawn for {kind} {d},{n}")


def _query_stream(rng) -> list[dict]:
    ops = []

    def add(kind, model, d, n, argv, **args):
        ops.append({"kind": kind, "model": model, "d": d, "n": n, "argv": argv, **args})

    for model in oracle.KINDS:
        for d, n in GRID_POINTS:
            base = ["--model", model, "--d", str(d), "--n", str(n)]
            objs = oracle.labels(model, d, n)
            for kind in ("hom", "ext"):
                for _ in range(PAIR_DRAWS):
                    src, tgt = rng.choice(objs), rng.choice(objs)
                    add(kind, model, d, n,
                        [kind, *base, "--from", _fmt(src), "--to", _fmt(tgt)],
                        src=src, tgt=tgt)
            add("hom-table", model, d, n, ["hom", *base])
            add("ext-table", model, d, n, ["ext", *base])
            for _ in range(EXTENSION_DRAWS if model != "module" or n >= 2 else 0):
                b, a = _ext_pair(rng, model, d, n)
                add("exangle", model, d, n,
                    ["exangle", *base, "--from", _fmt(b), "--to", _fmt(a)], src=b, tgt=a)
            if model in ("module", "relative-f"):
                add("quotient", model, d, n, ["quotient", *base])
            add("count", model, d, n, ["count", *base])
            add("emit-category", model, d, n,
                ["emit", "--content", "category", *base, "--arrows", "irreducible-only"])
    for model in RIGID_KINDS:
        for d, n in RIGID_POINTS:
            base = ["--model", model, "--d", str(d), "--n", str(n)]
            add("rigid", model, d, n, ["rigid", *base, "--count"])
            sets = oracle.maximal_rigid(model, d, n)
            for _ in range(2):
                t = rng.choice(sets)
                x = rng.choice(t)
                add("mutate", model, d, n, ["mutate", *base, "--summands",
                                            ";".join(_fmt(s) for s in t), "--at", _fmt(x)],
                    summands=t, at=x)
        for d, n in GRAPH_POINTS:
            add("emit-mutation-graph", model, d, n,
                ["emit", "--content", "mutation-graph", "--model", model,
                 "--d", str(d), "--n", str(n)])
    if len(ops) < MIN_STREAM:
        raise RuntimeError(f"{len(ops)} queries a round, fewer than {MIN_STREAM}")
    return ops


# ---------------------------------------------------------------- rounds

def module_caches():
    """hicat's module-level caches (functools caches), cleared before each operation."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "hicat" or name.startswith("hicat.")):
            continue
        for value in vars(module).values():
            wrapped = getattr(value, "__wrapped__", value)
            if callable(getattr(value, "cache_clear", None)) and \
                    getattr(wrapped, "__module__", "") == name:
                found.append(value)
    return found


def run_rounds(workload: str, inputs: dict, seconds: float, min_rounds: int,
               caches, tracer=None) -> list[dict]:
    """Whole rounds until the next one would end past ``seconds``.

    Before each operation, and outside its timer, hicat's caches are
    cleared and the collector is run, so every operation starts from the
    same heap state whatever ran before it.  Call ``gc.freeze()`` after
    set-up so that collecting only walks what the run itself allocated.
    The calibration kernel runs at the same positions in every round, also
    on a collected heap, so that no operation's garbage slows it.
    """
    run_op = _run_unit if workload != "cli-queries" else _run_query
    hicat = sys.modules["hicat.verify" if workload != "cli-queries" else "hicat.cli"]
    rng, ops = inputs["rng"], inputs["ops"]
    every = CALIBRATE_EVERY.get(workload)
    rounds = []
    start = perf_counter()
    while len(rounds) < min_rounds or \
            perf_counter() - start + statistics.median(r["wall"] for r in rounds) <= seconds:
        order = list(range(len(ops)))
        if inputs["shuffle"]:
            rng.shuffle(order)
        before = tracer.snapshot() if tracer else None
        results = [None] * len(ops)
        starts = [None] * len(ops)
        calibration = []
        t0 = perf_counter()
        for pos, i in enumerate(order):
            for cache in caches:
                cache.cache_clear()
            gc.collect()
            if every and pos % every == 0:  # on a clean heap, and clean it again after
                calibration.append(calibrate.timed())
                gc.collect()
            starts[i] = perf_counter()
            results[i] = run_op(hicat, ops[i], tracer)
        wall = perf_counter() - t0
        rounds.append({"wall": wall, "results": results, "starts": starts,
                       "calibration": calibration,
                       "trace": tracer.snapshot() if tracer else None, "before": before})
    return rounds


def _run_unit(verify, unit, tracer):
    theorem, extra = unit
    span = tracer.span(f"verify.{theorem}") if tracer else contextlib.nullcontext()
    t0 = perf_counter()
    try:
        with span:
            reports = verify.run_theorem(theorem, GRID, extra_points=extra)
    except Exception as exc:  # one failed operation must not end the run
        return {"latency": perf_counter() - t0, "error": repr(exc)}
    latency = perf_counter() - t0
    return {"latency": latency,
            "reports": [(r.theorem, r.d, r.n, r.ok, dict(r.counters)) for r in reports]}


def _run_query(cli, op, tracer):
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span("bench.query") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            with span:
                rc = cli.main(list(op["argv"]))
        except Exception as exc:  # one failed operation must not end the run
            rc = repr(exc)
        latency = perf_counter() - t0
    return {"latency": latency, "rc": rc, "out": out.getvalue(), "err": err.getvalue()}


# ---------------------------------------------------------------- accounting

SANITY_KINDS = ("module", "cluster", "almost-positive", "relative-f", "derived")


def expected_reports(unit) -> list[tuple[str, int, int]]:
    """(report name, d, n) of every report one run_theorem call must give."""
    theorem, extra = unit
    names = [f"sanity-{k}" for k in SANITY_KINDS] if theorem == "sanity" else [theorem]
    return [(name, d, n) for d, n in GRID_POINTS + tuple(extra) for name in names]


def count_ops(workload: str, ops, rounds) -> tuple[int, int, list[str]]:
    """(attempted, failed, first failure messages); grids count reports."""
    attempted = failed = 0
    errors = []
    for rnd in rounds:
        for op, res in zip(ops, rnd["results"]):
            if workload == "cli-queries":
                attempted += 1
                if res["rc"] != 0:
                    failed += 1
                    errors.append(f"{' '.join(op['argv'])}: rc={res['rc']} {res['err'].strip()}")
                continue
            want = len(expected_reports(op))
            attempted += want
            if "error" in res:
                failed += want
                errors.append(f"{op[0]}: {res['error']}")
                continue
            bad = [r for r in res["reports"] if not r[3]]
            failed += len(bad) + max(0, want - len(res["reports"]))
            errors.extend(f"{op[0]}: report not ok {r[:3]}" for r in bad)
    return attempted, failed, errors[:5]


# ---------------------------------------------------------------- checks

def check(workload: str, ops, rounds) -> list[str]:
    """Compare every answer with the independent oracle; returns problems found."""
    problems = []
    first = rounds[0]["results"]
    for rnd in rounds[1:]:
        for op, a, b in zip(ops, first, rnd["results"]):
            if _answer(workload, a) != _answer(workload, b):
                problems.append(f"{op[0] if workload != 'cli-queries' else op['argv']}: "
                                "answer differs between rounds")
    checker = _check_report if workload != "cli-queries" else _check_query
    for op, res in zip(ops, first):
        try:
            problems.extend(checker(op, res))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"{op[0] if workload != 'cli-queries' else op['argv']}: "
                            f"unreadable answer ({exc!r})")
    return problems


def _answer(workload, res):
    if workload == "cli-queries":
        return (res["rc"], res["out"])
    return res.get("reports"), res.get("error")


def _check_report(unit, res) -> list[str]:
    if "error" in res:
        return []  # counted as failed, not checked
    got = sorted(r[:3] for r in res["reports"])
    if got != sorted(expected_reports(unit)):
        return [f"{unit[0]}: reports {got}, expected {sorted(expected_reports(unit))}"]
    out = []
    for name, d, n, ok, counters in res["reports"]:
        if not ok:
            continue  # counted as failed
        m = oracle.modulus(d, n)
        pairs = comb(m, 2 * d + 2)
        objects = oracle.cyclic_count(d, n)
        if name in ("equiv", "main2"):
            expect = {"objects": objects, "hom_pairs": objects ** 2,
                      "ext_pairs": objects ** 2, "exangles": pairs}
        elif name == "f-exangles":
            expect = {"objects": objects, "ext_pairs": 2 * pairs, "distinguished": pairs}
        elif name == "correspondence":
            sets = oracle.maximal_rigid("almost-positive", d, n)
            sizes = [len(s) for s in sets]
            expect = {"tilting_sets": len(sets), "ap_maximal_rigid": len(sets),
                      "relf_maximal_rigid": len(sets), "set_size_min": min(sizes),
                      "set_size_max": max(sizes), "mutations_checked": 2 * sum(sizes)}
            if d == 1 and len(sets) != oracle.catalan(n + 1):
                out.append(f"{name} ({d}, {n}): {len(sets)} maximal rigid sets, "
                           f"not Catalan({n + 1})")
        else:
            kind = name.removeprefix("sanity-")
            window = (1, 3) if kind == "derived" else None
            expect = {"objects": oracle.object_count(kind, d, n, window),
                      "ext_pairs": oracle.ext_pair_count(kind, d, n, window),
                      "unit_checks": 2 * oracle.hom_pair_count(kind, d, n, window)}
        for key, value in expect.items():
            if counters.get(key) != value:
                out.append(f"{name} ({d}, {n}): {key}={counters.get(key)}, expected {value}")
    return out


def _dot(text: str) -> tuple[list[str], list[tuple[str, str]]]:
    nodes, edges = [], []
    for line in text.splitlines():
        line = line.strip()
        if "->" in line:
            u, v = line.rstrip(";").split(" -> ")
            edges.append((u.strip('"'), v.strip('"')))
        elif line.startswith('"'):
            nodes.append(line.split('"')[1])
    return nodes, edges


def _set_id(s) -> str:
    return "|".join(_fmt(t) for t in s)


def _check_query(op, res) -> list[str]:
    if res["rc"] != 0:
        return []  # counted as failed
    kind, model, d, n = op["kind"], op["model"], op["d"], op["n"]
    out = res["out"]
    where = " ".join(op["argv"])
    objs = oracle.labels(model, d, n)
    bad = []
    if kind in ("hom", "ext"):
        rule = oracle.hom if kind == "hom" else oracle.ext
        if int(out) != rule(model, d, n, op["src"], op["tgt"]):
            bad.append(f"{where}: answered {out.strip()}")
    elif kind in ("hom-table", "ext-table"):
        table = json.loads(out)
        if kind == "hom-table":
            want = {_fmt(x): [_fmt(y) for y in objs if oracle.hom(model, d, n, x, y)]
                    for x in objs}
        else:
            want = {_fmt(b): [_fmt(a) for a in objs if oracle.ext(model, d, n, b, a)]
                    for b in objs}
        if table != want:
            bad.append(f"{where}: table differs from the interleaving rule")
    elif kind == "count":
        if int(out) != oracle.object_count(model, d, n):
            bad.append(f"{where}: counted {out.strip()}")
    elif kind == "rigid":
        if int(out) != len(oracle.maximal_rigid(model, d, n)):
            bad.append(f"{where}: counted {out.strip()} maximal rigid sets")
    elif kind == "exangle":
        bad.extend(_check_exangle(op, json.loads(out)))
    elif kind == "quotient":
        bad.extend(_check_quotient(op, json.loads(out)))
    elif kind == "mutate":
        bad.extend(_check_mutate(op, out))
    elif kind == "emit-category":
        nodes, edges = _dot(out)
        ids = {_fmt(t): t for t in objs}
        if sorted(nodes) != sorted(ids):
            bad.append(f"{where}: {len(nodes)} DOT nodes for {len(ids)} objects")
        for u, v in edges:
            x, y = ids.get(u), ids.get(v)
            if x is None or y is None or x == y or not oracle.hom(model, d, n, x, y) or any(
                    z not in (x, y) and oracle.hom(model, d, n, x, z)
                    and oracle.hom(model, d, n, z, y) and oracle.compose(model, d, n, x, z, y)
                    for z in objs):
                bad.append(f"{where}: arrow {u} -> {v} is not irreducible")
                break
    elif kind == "emit-mutation-graph":
        nodes, edges = _dot(out)
        sets = oracle.maximal_rigid(model, d, n)
        want_edges = set()
        for t in sets:
            for x in t:
                others = oracle.exchanges(model, d, n, t, x)
                if len(others) == 1:
                    want_edges.add(tuple(sorted((_set_id(t), _set_id(others[0])))))
        if sorted(nodes) != sorted(_set_id(t) for t in sets):
            bad.append(f"{where}: {len(nodes)} DOT nodes for {len(sets)} maximal rigid sets")
        if set(edges) != want_edges or len(edges) != len(want_edges):
            bad.append(f"{where}: {len(edges)} mutation edges, expected {len(want_edges)}")
    return bad


def _check_exangle(op, e) -> list[str]:
    model, d, n = op["model"], op["d"], op["n"]
    where = " ".join(op["argv"])
    bad = []
    if tuple(e["A"]) != op["tgt"] or tuple(e["B"]) != op["src"]:
        bad.append(f"{where}: ends {e['A']} -> {e['B']}")
    if len(e["middles"]) != d or len(e["differentials"]) != d + 1:
        bad.append(f"{where}: {len(e['middles'])} middle terms, expected {d}")
    for level in e["middles"]:
        for t in level:
            if not oracle.in_family(model, d, n, tuple(t)):
                bad.append(f"{where}: middle term {t} outside the model")
    mats = [(list(map(tuple, m["source"])), list(map(tuple, m["target"])), m["entries"])
            for m in e["differentials"]]
    for src, tgt, entries in mats:
        for i, y in enumerate(tgt):
            for j, x in enumerate(src):
                if entries[i][j] and not oracle.hom(model, d, n, x, y):
                    bad.append(f"{where}: entry on a zero hom space {x} -> {y}")
    # the complex condition: consecutive differentials compose to zero
    for (src, mid, first), (mid2, tgt, second) in zip(mats, mats[1:]):
        if mid != mid2:
            bad.append(f"{where}: differentials do not chain")
            continue
        for k, x in enumerate(src):
            for i, z in enumerate(tgt):
                total = sum(second[i][j] * first[j][k] * oracle.compose(model, d, n, x, y, z)
                            for j, y in enumerate(mid) if second[i][j] and first[j][k])
                if total:
                    bad.append(f"{where}: composite {x} -> {z} is {total}, not 0")
    return bad


def _check_quotient(op, q) -> list[str]:
    """Both quotients must be the almost-positive model (the paper's two theorems)."""
    model, d, n = op["model"], op["d"], op["n"]
    where = " ".join(op["argv"])
    zero = {tuple(t) for t in q["zero_objects"]}
    killed = {(tuple(s), tuple(t)) for s, t in q["killed"]}
    objs = oracle.labels(model, d, n)
    # the module quotient at n is the almost-positive model at n - 1
    ap_n = n - 1 if model == "module" else n
    ap = oracle.labels("almost-positive", d, ap_n)
    alive = tuple(t for t in objs if t not in zero)
    bad = []
    if [tuple(t) for t in q["objects"]] != list(objs):
        bad.append(f"{where}: object list differs")
    if alive != ap:
        bad.append(f"{where}: {len(alive)} nonzero objects, expected {len(ap)}")
        return bad
    if any(not oracle.hom(model, d, n, s, t) for s, t in killed):
        bad.append(f"{where}: a killed morphism is not a morphism")
    left = {(s, t) for s in alive for t in alive
            if oracle.hom(model, d, n, s, t) and (s, t) not in killed}
    right = {(s, t) for s in ap for t in ap if oracle.hom("almost-positive", d, ap_n, s, t)}
    if left != right:
        bad.append(f"{where}: surviving homs differ from the almost-positive model")
    return bad


def _check_mutate(op, out) -> list[str]:
    """The replacement must be the other maximal rigid set through the rest,
    which makes mutation an involution."""
    model, d, n = op["model"], op["d"], op["n"]
    where = " ".join(op["argv"])
    t, x = op["summands"], op["at"]
    rest = [s for s in t if s != x]
    others = oracle.exchanges(model, d, n, t, x)
    if out.strip() == "null":
        return [f"{where}: no mutation, but {len(others)} exist"] if others else []
    result = json.loads(out)
    y = tuple(result["replaced_by"])
    new = tuple(tuple(s) for s in result["summands"])
    bad = []
    if len(others) != 1 or new != others[0] or new != tuple(sorted(rest + [y])):
        bad.append(f"{where}: mutated to {new}, expected {others}")
    for e in result["exchanges"]:
        ends = {tuple(e["A"]), tuple(e["B"])}
        middles = {tuple(s) for level in e["middles"] for s in level}
        if ends != {x, y} or not middles <= set(rest):
            bad.append(f"{where}: exchange exangle {sorted(ends)} does not fit the rest")
    return bad
