"""One benchmark run in a fresh interpreter; started by run.py.

Prints ``READY`` once hicat is imported and the inputs exist, then (unless
``--setup-only``) runs the workload and prints ``RESULT <json>``.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import json
import resource
import statistics
import sys
from pathlib import Path

import calibrate
import workloads
from tracer import Tracer, diff

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: (metric, tracer group, field) reported by a traced run, as counts per round.
LAYER_COUNTS = (
    ("tuples.predicate_calls", "tuples.predicate", "calls"),
    ("models.models_built", "models.build", "calls"),
    ("models.hom_dim_calls", "models.hom_dim", "calls"),
    ("models.ext_dim_calls", "models.ext_dim", "calls"),
    ("models.compose_calls", "models.compose", "calls"),
    ("exangles.realize_calls", "exangles.realize", "calls"),
    ("exangles.exactness_calls", "exangles.exactness", "calls"),
    ("exangles.exactness_positions", "exangles.exactness", "positions"),
    ("quotients.quotient_calls", "quotients.quotient", "calls"),
    ("quotients.killed", "quotients.quotient", "killed"),
    ("quotients.factors_through_calls", "quotients.factors_through", "calls"),
    ("rigidity.enumerate_calls", "rigidity.enumerate", "calls"),
    ("rigidity.maximal_sets", "rigidity.enumerate", "sets"),
    ("rigidity.mutations_checked", "rigidity.scan", "mutations_checked"),
    ("rigidity.exchange_exangles", "rigidity.scan", "exchange_exangles"),
    ("rigidity.mutate_calls", "rigidity.mutate", "calls"),
    ("emit.render_calls", "emit.render", "calls"),
    ("emit.bytes", "emit.render", "bytes"),
)
LAYER_SECONDS = (
    ("tuples.predicate_s", "tuples.predicate", "self_s"),
    ("models.build_s", "models.build", "self_s"),
    ("models.hom_dim_s", "models.hom_dim", "self_s"),
    ("models.ext_dim_s", "models.ext_dim", "self_s"),
    ("models.compose_s", "models.compose", "self_s"),
    ("exangles.realize_s", "exangles.realize", "self_s"),
    ("exangles.complex_s", "exangles.complex", "self_s"),
    ("exangles.exactness_s", "exangles.exactness", "self_s"),
    ("quotients.quotient_s", "quotients.quotient", "self_s"),
    ("quotients.factors_through_s", "quotients.factors_through", "self_s"),
    ("rigidity.enumerate_s", "rigidity.enumerate", "self_s"),
    ("rigidity.scan_s", "rigidity.scan", "self_s"),
    ("rigidity.mutate_s", "rigidity.mutate", "self_s"),
    ("emit.render_s", "emit.render", "self_s"),
    ("cli.self_s", "cli", "self_s"),
    *((f"verify.{th}_s", f"verify.{th}", "incl_s")
      for th in ("equiv", "f-exangles", "main2", "sanity", "correspondence")),
)


def _import_hicat():
    sys.path.insert(0, str(SRC))
    import hicat
    import hicat.cli  # noqa: F401  (the cli-queries entry point; imports emit)
    where = Path(hicat.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"hicat was imported from {where}, not from this checkout's src")


def reference_latencies(rounds) -> tuple[list[list[float]], float]:
    """Every latency of every round at reference speed, and the run's kernel time.

    A latency is multiplied by ``CALIBRATION_MS`` over the fastest of the
    kernel runs nearest it: the last two before it and the first after,
    about 0.1 s of cli-queries.  The host's phase changes every few
    seconds, and this follows it.  The run's kernel time is the median of
    those.  A workload without calibration keeps its raw latencies, and
    its kernel time is 0.
    """
    cal = [c for r in rounds for c in r["calibration"]]
    times = [t for t, _ in cal]
    latencies, kernels = [], []
    for r in rounds:
        row = []
        for res, start in zip(r["results"], r["starts"]):
            scale = 1.0
            if cal:
                j = bisect.bisect(times, start)
                kernel = min(s for _, s in cal[max(0, j - 2):j + 1])
                kernels.append(kernel)
                scale = calibrate.CALIBRATION_MS / 1000 / kernel
            row.append(res["latency"] * scale)
        latencies.append(row)
    return latencies, statistics.median(kernels) if kernels else 0.0


def best_latencies(latencies) -> list[float]:
    """Each operation's best latency over the rounds of a run.

    The host slows down for seconds at a time while other tenants run.
    Rounds are spread over the whole run, so an operation's best round
    skips those dips; a median over rounds follows them.
    """
    return [min(col) for col in zip(*latencies)]


def end_to_end(workload, rounds) -> dict:
    """Figures over the operations' best latencies at reference speed.

    A query of cli-queries is one CLI call.  A request on a grid workload
    is the whole grid, so its latency is the round's, and with fewer than
    forty rounds its tail is reported as the median.
    """
    best = best_latencies(reference_latencies(rounds)[0])
    wall = sum(best)
    if workload == "cli-queries":
        p50 = statistics.median(best)
        p99 = statistics.quantiles(best, n=100, method="inclusive")[98]
    else:
        p50 = p99 = wall
    return {
        "wall_s": (wall, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "query_p50_ms": (p50 * 1000, "ms"),
        "query_p99_ms": (p99 * 1000, "ms"),
    }


def per_layer(workload, ops, untraced, traced) -> tuple[dict, list[str]]:
    """Per-layer counts, and times at reference speed."""
    kernel = reference_latencies(untraced + traced)[1]
    scale = calibrate.CALIBRATION_MS / 1000 / kernel if kernel else 1.0
    rounds = [diff(r["trace"], r["before"]) for r in traced]
    problems = []
    metrics = {}
    for name, group, key in LAYER_COUNTS:
        values = [r.get(group, {}).get(key, 0) for r in rounds]
        if len(set(values)) != 1:
            problems.append(f"{name} differs between traced rounds: {values}")
        metrics[name] = (values[0], "bytes" if key == "bytes" else "count")
    for name, group, key in LAYER_SECONDS:
        metrics[name] = (scale * statistics.median(r.get(group, {}).get(key, 0.0)
                                           for r in rounds), "s")
    reports = [sum(len(res.get("reports", ())) for res in rnd["results"]) for rnd in traced] \
        if workload != "cli-queries" else [0]
    metrics["verify.reports"] = (reports[0], "count")
    best = best_latencies(reference_latencies(untraced)[0])
    for kind in workloads.QUERY_KINDS:
        mine = [b for op, b in zip(ops, best)
                if workload == "cli-queries" and op["kind"] == kind]
        metrics[f"cli.{kind}_p50_ms"] = (statistics.median(mine) * 1000 if mine else 0.0, "ms")
    traced_wall = sum(best_latencies(reference_latencies(traced)[0]))
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - sum(best), "s")
    metrics["host.calibration_ms"] = (kernel * 1000, "ms")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None, help="file for the traced run's spans")
    args = parser.parse_args(argv)

    _import_hicat()
    inputs = workloads.make_inputs(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    ops = inputs["ops"]
    caches = workloads.module_caches()
    min_rounds = workloads.MIN_ROUNDS[args.workload]
    gc.collect()
    gc.freeze()
    if not args.trace:
        rounds = workloads.run_rounds(args.workload, inputs, args.seconds, min_rounds, caches)
        metrics = end_to_end(args.workload, rounds)
        problems = []
    else:
        half = args.seconds / 2
        untraced = workloads.run_rounds(args.workload, inputs, half,
                                        workloads.MIN_TRACE_ROUNDS, caches)
        tracer = Tracer()
        missing = tracer.install()
        tracer.enabled = True
        try:
            traced = workloads.run_rounds(args.workload, inputs, half,
                                          workloads.MIN_TRACE_ROUNDS, caches, tracer)
        finally:
            tracer.enabled = False
            tracer.uninstall()
        metrics, problems = per_layer(args.workload, ops, untraced, traced)
        rounds = untraced + traced
        if args.trace_out:
            Path(args.trace_out).write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, "missing_targets": missing,
                "rounds": [diff(r["trace"], r["before"]) for r in traced],
                "spans": tracer.spans}) + "\n", encoding="utf-8")

    attempted, failed, errors = workloads.count_ops(args.workload, ops, rounds)
    problems += workloads.check(args.workload, ops, rounds)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "rounds": len(rounds), "kernel_ms": reference_latencies(rounds)[1] * 1000,
              "errors": errors, "problems": problems[:20],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
