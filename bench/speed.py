"""Reference probe for the speed of the machine at the moment.

The benchmark's machine can run the same Python code 1.5x faster or slower
from one minute to the next (other tenants share its cores); on a fixed
loop, the medians of 9-second windows ranged from 0.072 to 0.113 s.  So the
benchmark runs this probe, which does not touch polyassoc, after every
request and every SAMPLE_EVERY_S of CPU time inside it, and scales each
request's time to reference speed:

    time at reference speed = wall time * REFERENCE_S / local probe time

where the wall time leaves out the probes run inside the request, and the
local probe time is the median of the probes run within WINDOW_S of it.  One
probe jitters by about 10%; the median over a window does not.

The probe does the same kind of work as the package: small-int and
Fraction arithmetic, tuple keys and dict updates.  The wall times are kept
in the run record next to the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.001  # about what the probe takes on a 2.1 GHz Xeon core
SAMPLE_EVERY_S = 0.02
WINDOW_S = 0.05


def _work() -> int:
    table: dict = {}
    total = Fraction(0)
    for i in range(1, 1900):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + i * i
        if i % 50 == 0:
            total += Fraction(i, i + 1)
    return len(table) + total.denominator


def probe() -> float:
    """Wall seconds of one run of the fixed reference work."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def timed_probe() -> tuple[float, float]:
    """(time at the end, seconds) of one probe."""
    seconds = probe()
    return time.perf_counter(), seconds


def scaled(seconds: float, probe_s: float) -> float:
    """A wall time converted to reference speed."""
    return seconds * REFERENCE_S / probe_s


def local_probe_s(probes: list[tuple[float, float]], start: float, end: float) -> float:
    """Median probe time within WINDOW_S of [start, end]; probes sorted by time."""
    lo = bisect.bisect_left(probes, (start - WINDOW_S,))
    hi = bisect.bisect_right(probes, (end + WINDOW_S, float("inf")))
    return statistics.median(seconds for _, seconds in probes[lo:hi])


class Sampler:
    """Runs the probe every SAMPLE_EVERY_S of CPU time while it is on."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        signal.signal(signal.SIGVTALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        self.samples.append(timed_probe())

    def start(self) -> None:
        self.samples = []
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    @property
    def spent_s(self) -> float:
        return sum(seconds for _, seconds in self.samples)
