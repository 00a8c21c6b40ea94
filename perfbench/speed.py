"""A speed probe that scales measured times to a fixed reference speed.

The shared machines this benchmark runs on drift in speed by 10-30 per
cent over a few seconds: the same work timed one second apart can differ
by a quarter.  Such drift swamps the differences the benchmark exists to
show.  So between operations, at most every ``PERIOD`` seconds, the
benchmark times a fixed pure-Python loop of Fraction arithmetic, the kind
of work treelines spends its time on.  An interval measured from
``start`` to ``end`` is scaled by ``NOMINAL_S / p``, where ``p`` is the
median time of the probes taken within ``WINDOW`` seconds of it: the
result is the time the interval takes on a machine where the loop takes
``NOMINAL_S`` (about its time on the reference machine of the README).
Raw times are kept next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction
from typing import List

PERIOD = 0.1
WINDOW = 0.3
NOMINAL_S = 0.002


def reference_work() -> Fraction:
    s = Fraction(0)
    for k in range(1, 350):
        s += Fraction(k, k * k + 1)
    return s


class Probe:
    def __init__(self):
        self.starts: List[float] = []
        self.durations: List[float] = []

    def tick(self) -> None:
        """Time the reference loop if the last probe is PERIOD old."""
        t0 = time.perf_counter()
        if self.starts and t0 - self.starts[-1] < PERIOD:
            return
        reference_work()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median probe near [start, end]; every
        interval has one, as a probe is due before and after each one."""
        lo = bisect.bisect_left(self.starts, start - WINDOW)
        hi = bisect.bisect_right(self.starts, end + WINDOW)
        return NOMINAL_S / statistics.median(self.durations[lo:hi])
