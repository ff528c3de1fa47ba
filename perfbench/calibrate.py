"""Host-speed calibration.

The shared host runs this benchmark up to half again slower, in phases
of a few seconds to tens of seconds, while other tenants load it.  CPU
time slows with wall time, so no clock of the process escapes it (see
README.md).  A
fixed kernel that shares no code with hicat, timed between operations,
measures that speed.  It builds an argparse parser and parses one argv,
as every CLI query does, and compares tuples of a small combinatorial
family, as the models do, so it slows as hicat's code slows.

The worker multiplies each latency by ``CALIBRATION_MS`` over the
kernel's time next to it.  A reported time is thus the time on a host on
which the kernel takes ``CALIBRATION_MS``: a change to hicat moves it, a
change of the host's speed does not.
"""
from __future__ import annotations

import argparse
import itertools
from time import perf_counter

#: The kernel's time on the reference host, in ms.  Near its time on the
#: 2-core VM of README.md in a quiet period, so scaled and raw times agree
#: there.
CALIBRATION_MS = 4.0

_COMMANDS = ("hom", "ext", "exangle", "quotient", "count", "rigid", "mutate", "emit")
_OPTIONS = ("--model", "--d", "--n", "--from", "--to", "--content", "--arrows")


def kernel() -> int:
    parser = argparse.ArgumentParser(prog="calibrate")
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        command = sub.add_parser(name, help=f"the {name} command")
        for option in _OPTIONS:
            command.add_argument(option, help="an option")
        command.add_argument("--count", action="store_true")
    parser.parse_args(["count", "--model", "m", "--d", "2", "--n", "3", "--count"])
    family = list(itertools.combinations(range(1, 9), 3))
    below = {a: [b for b in family if all(x <= y for x, y in zip(a, b)) and b[0] <= a[-1]]
             for a in family}
    return sum(map(len, below.values()))


def timed() -> tuple[float, float]:
    """(start, seconds) of one kernel run."""
    t0 = perf_counter()
    kernel()
    return t0, perf_counter() - t0
