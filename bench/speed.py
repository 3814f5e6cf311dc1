"""A probe of how fast the machine runs Python at each moment.

The benchmark shares its cores with other tenants.  Measured on a 2-vCPU
virtual machine (Intel Xeon, Python 3.11): the probe slice below takes
0.36 ms in the machine's fast phases and 0.75-0.80 ms in its slow ones, the
phases switch within seconds, and slow phases can dominate for minutes.  The same work in
one process therefore takes anywhere between 1x and 2x its fast time, and
median wall times of consecutive runs differ by 30 %.

`SpeedProbe` runs a fixed slice of Fraction and dict work (the package's own
kind of work) every 10 ms from a SIGALRM handler and records how long each
slice took.  `reference_time(t0, t1)` turns a wall-clock interval into the
time it would have taken at the reference speed: its wall time minus the
probe's own slices, scaled by the reference slice time over the mean slice
time observed around the interval.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.01
WINDOW_S = 0.02               # slices within this distance of an interval count
REFERENCE_SLICE_S = 4e-4      # the slice's duration at the reference speed


def _slice() -> None:
    total = Fraction(0)
    seen = {}
    for i in range(1, 150):
        total += Fraction(i % 97, i % 13 + 1)
        seen[i % 100] = total


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _slice()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_time(self, t0: float, t1: float) -> float:
        """The reference-speed duration of the wall interval [t0, t1]."""
        starts, durations = self.starts, self.durations
        lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
        own = sum(durations[lo:hi])
        near = durations[bisect.bisect_left(starts, t0 - WINDOW_S):
                         bisect.bisect_left(starts, t1 + WINDOW_S)]
        if not near:
            near = durations[max(0, lo - 1):lo + 1] or [REFERENCE_SLICE_S]
        return (t1 - t0 - own) * REFERENCE_SLICE_S * len(near) / sum(near)
