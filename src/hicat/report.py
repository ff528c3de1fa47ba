"""Verification reports and the one rule that builds them.

A check adds what it verified to a counters dict and returns its first
counterexample, or None.  ``run_check`` times the check and builds the
report, which passes exactly when there is no counterexample; a check
that stops early keeps the partial counts it reached.  The report also
holds the process's peak resident memory when the check ended.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

try:
    import resource
except ImportError:  # Windows has no getrusage
    resource = None


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification run at a fixed grid point."""
    theorem: str
    d: int
    n: int
    ok: bool
    counters: dict[str, int]
    counterexample: Any | None
    elapsed: float
    #: ``peak_rss_mib()`` when the check ended.  It covers everything the process
    #: ran before, so a report of a grid's later point carries the earlier peak.
    peak_rss_mib: float | None

    def summary(self) -> str:
        status = "pass" if self.ok else "FAIL"
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        line = f"{self.theorem} (d={self.d}, n={self.n}): {status} [{counts}] {self.elapsed:.2f}s"
        if not self.ok:
            line += f" counterexample={self.counterexample}"
        return line


def peak_rss_mib() -> float | None:
    """The process's high-water resident memory in MiB, or None where it cannot be read.

    ``ru_maxrss`` is in KiB on Linux and in bytes on macOS.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024


def run_check(theorem: str, d: int, n: int,
              check: Callable[[dict[str, int]], Any]) -> VerificationReport:
    """Run check(counters) under a timer and report its counts and first counterexample."""
    start = time.perf_counter()
    counters: dict[str, int] = {}
    counterexample = check(counters)
    elapsed = time.perf_counter() - start
    return VerificationReport(theorem, d, n, counterexample is None, counters, counterexample,
                              elapsed, peak_rss_mib())
