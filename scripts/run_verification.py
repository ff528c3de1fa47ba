#!/usr/bin/env python3
"""Run every verifier over the default grid and print a summary table.

Usage: python scripts/run_verification.py [DMAX:NMAX:OBJMAX]
The last line gives the checks passed, the time taken and, where the
platform reports it, the peak RSS of the process in MiB.  Exit code 0
when everything passes, 1 when a check fails, 2 on a usage error (a
malformed grid or an extra argument).  A reader that closes stdout early
(``| head -1``) ends the output, not the run, so the exit code still
follows the checks.
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hicat.report import peak_rss_mib, write_stdout
from hicat.verify import DEFAULT_GRID, THEOREMS, parse_grid, run_theorem


def main() -> int:
    parser = argparse.ArgumentParser(description="Run every verifier over a grid.")
    parser.add_argument("grid", nargs="?", type=parse_grid, default=DEFAULT_GRID,
                        metavar="DMAX:NMAX:OBJMAX", help="default 3:4:200")
    grid = parser.parse_args().grid
    write_stdout(f"verification grid: d <= {grid[0]}, n <= {grid[1]}, "
                 f"objects <= {grid[2]}\n")
    failures = 0
    total = 0
    start = time.perf_counter()
    for theorem in THEOREMS:
        extra = ((1, 6),) if theorem in ("f-exangles", "main2") else ()
        for report in run_theorem(theorem, grid, extra_points=extra):
            total += 1
            if not report.ok:
                failures += 1
            write_stdout(f"  {report.summary()}\n")
    peak = peak_rss_mib()
    memory = "" if peak is None else f", peak RSS {peak:.1f} MiB"
    write_stdout(f"{total - failures}/{total} checks passed "
                 f"in {time.perf_counter() - start:.1f}s{memory}\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
