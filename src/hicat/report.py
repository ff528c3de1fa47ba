"""Verification reports and the one rule that builds them.

A check adds what it verified to a counters dict and returns its first
counterexample, or None.  ``run_check`` times the check and builds the
report, which passes exactly when there is no counterexample; a check
that stops early keeps the partial counts it reached.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable


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

    def summary(self) -> str:
        status = "pass" if self.ok else "FAIL"
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        line = f"{self.theorem} (d={self.d}, n={self.n}): {status} [{counts}] {self.elapsed:.2f}s"
        if not self.ok:
            line += f" counterexample={self.counterexample}"
        return line


def run_check(theorem: str, d: int, n: int,
              check: Callable[[dict[str, int]], Any]) -> VerificationReport:
    """Run check(counters) under a timer and report its counts and first counterexample."""
    start = time.perf_counter()
    counters: dict[str, int] = {}
    counterexample = check(counters)
    return VerificationReport(theorem, d, n, counterexample is None, counters,
                              counterexample, time.perf_counter() - start)
