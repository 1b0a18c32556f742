"""Host-speed calibration: a fixed piece of pure-Python work, timed between queries.

The shared hosts this benchmark runs on change speed by up to ~70% within
seconds, as neighbours come and go, and the same code's figures spread by
20-30% from run to run.  The slowdown hits the engine and any other Python
code alike: over two-second windows, a fixed engine query and this
calibration each varied by ~27% (interquartile range), their ratio by ~4%.

So a run times the calibration every ``EVERY_S`` seconds between queries,
and the end-to-end times are scaled to a host on which one calibration
takes ``REFERENCE_S``: a query's latency is multiplied by ``REFERENCE_S``
over the median calibration time around it.  The calibration is the
benchmark's own reference code (``reference.expected_value`` on fixed
programs), never the engine's, so no change to the engine moves it.  It
runs with the cyclic collector paused, so the engine's heap does not
reach it through collections that its allocations would trigger.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

import reference as ref

# one calibration on the reference host: the median on a 2-core x86-64
# Linux container with Python 3.11.7, in its more common, slower state
REFERENCE_S = 1.8e-3
EVERY_S = 0.1
# calibrations within this distance of a query set its scale, at least
# MIN_SAMPLES of them
WINDOW_S = 0.5
MIN_SAMPLES = 5

_NAMES = ("x", "y", "z")
_rng = random.Random(2010_14548)
_PROGRAMS = [ref.rand_loop_free(_rng, _NAMES) for _ in range(6)]
_POST = ref.rand_qf_exp(_rng, _NAMES)
_STATE = ref.rand_state(_rng, _NAMES)


def work():
    for prog in _PROGRAMS:
        ref.expected_value(prog, _POST, _STATE)


class Calibration:
    """Calibration samples of one process, and the scale they give a span."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self._last = -float("inf")
        work()  # warm-up

    def sample(self) -> float:
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            work()
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)
        self._last = end
        return end - start

    def maybe_sample(self):
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median calibration around [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return REFERENCE_S / statistics.median(self.durations[lo:hi])
