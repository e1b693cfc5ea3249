"""Follow the machine's speed with a fixed kernel timed during the run.

On a shared 2-core x86_64 VM the same computation ran up to 1.7x slower in
some stretches of seconds than in others, with the process never descheduled.
Raw run-to-run spreads of 20-28% followed.  ``Speedometer`` times a small
numpy/Python kernel (independent of csokit).  ``scale`` turns a request's time
into the time it would take on a machine where the kernel takes
``REFERENCE_S``: time x REFERENCE_S / (mean kernel time over the request).

Once ``start`` is called, an interval timer (SIGALRM) runs the kernel every
``EVERY_S`` seconds, also in the middle of a csokit call, so a long request is
scaled by the speed the machine had while it ran rather than by the speed at
its ends.  ``cost`` gives the time the kernel took inside an interval, which
the caller subtracts from the request's time (about 1%).  On eight 9 s
verify-paper replays in a row, the coefficient of variation was 8.8% for wall
time, 10.9% when scaled by samples taken just before and after each replay,
and 2.8% when scaled by the samples taken during it.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

REFERENCE_S = 0.5e-3  # the kernel's time in the fast stretches of the VM above
EVERY_S = 0.1  # timer period once started
MARGIN_S = 0.2  # samples this close to a request also count for it


class Speedometer:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self.times: list[float] = []
        self.values: list[float] = []
        self.costs: list[float] = []

    def _kernel(self) -> float:
        """Small SVDs and a pure-Python loop, like csokit's own mix of work."""
        t = time.perf_counter()
        X = self.A
        for _ in range(20):
            U, _, Vh = np.linalg.svd(X)
            X = U @ Vh + 0.5 * self.A
        acc = 0.0
        for i in range(1000):
            acc += (i * 0.5) % 7
        return time.perf_counter() - t

    def sample(self, *_) -> None:
        """Time the kernel once and record when, how long, and at what cost."""
        t = time.perf_counter()
        value = self._kernel()
        self.times.append(t)
        self.values.append(value)
        self.costs.append(time.perf_counter() - t)

    def start(self) -> None:
        """Sample every EVERY_S seconds from now on, whatever the process is doing."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time of the samples in or near [start, end].

        With no sample within MARGIN_S of the interval, the nearest sample on
        each side is used.
        """
        lo = bisect.bisect_left(self.times, start - MARGIN_S)
        hi = bisect.bisect_right(self.times, end + MARGIN_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.values))
        near = self.values[lo:hi]
        return REFERENCE_S / (sum(near) / len(near))

    def cost(self, start: float, end: float) -> float:
        """Seconds the kernel itself took in samples that began inside [start, end)."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        return sum(self.costs[lo:hi])
