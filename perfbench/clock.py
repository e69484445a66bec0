"""A wall clock scaled to a fixed reference speed.

The benchmark runs on shared 2-core virtual machines whose speed drifts
by up to 2x over a few seconds: a fixed Fraction loop measured back to
back took between 17 and 34 ms over 40 s.  A second process sampling
the other core does not follow that drift, but a kernel run on the
benchmark's own thread does.  So while a ``SpeedClock`` is open, a
SIGALRM handler runs a small fixed integer kernel every ``PERIOD_S``
and records how long it took.  ``scaled`` then maps any timestamp taken
during the run onto a time axis on which the kernel always takes
``KERNEL_REF_S``: each stretch of work between two samples is weighted
by ``KERNEL_REF_S`` over the local kernel time (the median of the
neighbouring samples), and the samples themselves take no time.

Durations on that axis are "reference seconds": how long the work would
have taken at the reference speed.  They add up the way wall time does,
so the self times of nested spans still sum to their root.  On a phi(5)
face test repeated for 100 s, the variation between tests fell from 0.13
of their mean raw to 0.07 scaled; across five seeds, the spread of the
small-scans pass time fell from 0.38 of its median to 0.01.
"""

from __future__ import annotations

import bisect
import math
import random
import signal
import statistics
import time

PERIOD_S = 0.025
# Kernel time that defines the reference speed: about its median on a
# 2-core x86-64 VM with CPython 3.11, so reference seconds are close to
# raw ones there.
KERNEL_REF_S = 0.00035
SMOOTH = 2  # samples on each side in the median of local kernel times


class _Kernel:
    """Fixed integer-row work shaped like a simplex pivot: scaled row
    differences over a 256 x 170 table, then a gcd sweep.  It followed
    the speed of phi(5) face tests more closely than a Fraction loop
    (per-test variation 0.07 against 0.11 of the mean)."""

    def __init__(self) -> None:
        rng = random.Random(5)
        self.table = [[rng.randrange(-(10**12), 10**12) for _ in range(170)] for _ in range(256)]

    def __call__(self) -> None:
        t = self.table
        for k in range(0, 256, 32):
            a, b = t[k], t[(k * 7 + 3) % 256]
            pv, f = a[k % 170] | 1, b[k % 170]
            g = 0
            for x in [x * pv - f * y for x, y in zip(a, b)]:
                g = math.gcd(g, x)
                if g == 1:
                    break


class SpeedClock:
    """Context manager: samples the kernel while open; ``scaled`` after."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._cum: list[float] = []  # scaled time at each sample's start
        self._kernel = _Kernel()
        self._sampling = False

    def _sample(self, *_) -> None:
        if self._sampling:  # a signal that lands inside a sample is dropped
            return
        self._sampling = True
        t0 = time.perf_counter()
        self._kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self._sampling = False

    def __enter__(self) -> "SpeedClock":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        took = [e - s for s, e in zip(self.starts, self.ends)]
        self._weight = [
            KERNEL_REF_S / statistics.median(took[max(0, i - SMOOTH) : i + SMOOTH + 1])
            for i in range(len(took))
        ]
        # Work between sample i-1 and sample i is weighted by the mean of
        # the two samples' weights.
        cum = [0.0]
        for i in range(1, len(took)):
            w = (self._weight[i - 1] + self._weight[i]) / 2
            cum.append(cum[-1] + w * (self.starts[i] - self.ends[i - 1]))
        self._cum = cum
        return False

    def scaled(self, t: float) -> float:
        """Position of perf_counter time t on the reference axis."""
        i = bisect.bisect_right(self.starts, t) - 1
        last = len(self.starts) - 1
        if i < 0 or (i == last and t > self.ends[i]):
            raise ValueError("time outside the clock's run")
        if t <= self.ends[i]:
            return self._cum[i]
        w = (self._weight[i] + self._weight[i + 1]) / 2
        return self._cum[i] + w * (t - self.ends[i])

    def duration(self, t0: float, t1: float) -> float:
        return self.scaled(t1) - self.scaled(t0)

    @property
    def samples(self) -> int:
        return len(self.starts)

    def speed_range(self) -> tuple[float, float]:
        """Slowest and fastest local speed seen, as multiples of the reference."""
        return min(self._weight), max(self._weight)
