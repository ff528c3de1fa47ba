#!/usr/bin/env python3
"""Run every verifier over the default grid and print a summary table.

Usage: python scripts/run_verification.py [DMAX:NMAX:OBJMAX]
Exit code 0 when everything passes, 1 otherwise.
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hicat.verify import DEFAULT_GRID, THEOREMS, parse_grid, run_theorem


def main() -> int:
    grid = parse_grid(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_GRID
    print(f"verification grid: d <= {grid[0]}, n <= {grid[1]}, "
          f"objects <= {grid[2]}")
    failures = 0
    total = 0
    start = time.perf_counter()
    for theorem in THEOREMS:
        extra = ((1, 6),) if theorem in ("f-exangles", "main2") else ()
        for report in run_theorem(theorem, grid, extra_points=extra):
            total += 1
            if not report.ok:
                failures += 1
            print("  " + report.summary())
    print(f"{total - failures}/{total} checks passed "
          f"in {time.perf_counter() - start:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
