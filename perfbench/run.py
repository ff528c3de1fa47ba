#!/usr/bin/env python3
"""hicat benchmark: one workload run, printed as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid-structure --seed 1 --seconds 25 --trace 0

Each run starts fresh interpreters with PYTHONHASHSEED=0, one at a time:
first a warm-up and four set-up probes that import hicat and build the
inputs, then the worker that measures the workload, then five more probes.
The median of the nine probes is ``setup_s``.  With ``--trace 0`` the last
line holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics
of a traced run.  Results and traces are also written under
``perfbench/out/``.  The exit code is not 0, and no result is printed, when
a run cannot be made.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
#: Set-up probes before and after the worker, so that they span the run.
SETUP_PROBES = (4, 5)
DEADLINE_S = 170.0


class RunError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("HICAT_GRID", None)
    return env


def _spawn(args, extra: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; returns (seconds until READY, the rest of its stdout)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise RunError(f"worker {' '.join(extra) or 'run'} failed with exit code {code}")
    return setup, rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an error, so _spawn kills and reaps its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = perf_counter() + DEADLINE_S

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        _spawn(args, ["--setup-only"], deadline)  # warm-up: bytecode caches
        setups = [_spawn(args, ["--setup-only"], deadline)[0] for _ in range(SETUP_PROBES[0])]
        extra = ["--trace-out", str(OUT / f"trace-{stem}.json")] if args.trace else []
        _, stdout = _spawn(args, extra, deadline)
        setups += [_spawn(args, ["--setup-only"], deadline)[0] for _ in range(SETUP_PROBES[1])]
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = [line for line in stdout.splitlines() if line.startswith("RESULT ")]
    if not lines:
        print("error: the worker printed no result", file=sys.stderr)
        return 1
    detail = json.loads(lines[-1][len("RESULT "):])
    metrics = detail["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    detail["setup_samples_s"] = setups
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n",
                                             encoding="utf-8")
    for problem in detail["problems"] + detail["errors"]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {detail['rounds']} rounds, "
          f"{detail['attempted']} operations, {detail['failed']} failed, "
          f"correct={detail['correct']}")
    print(json.dumps({"correct": detail["correct"], "attempted": detail["attempted"],
                      "failed": detail["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
