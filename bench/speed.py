"""Rescale wall times to a reference machine speed.

The reference machine, a 2-vCPU Xeon VM, shares its cores with other
machines, and its speed drifts by up to 1.5x over seconds to minutes, which
moved single corridor-sweep passes between 2.3 and 4.3 s.  So a fixed
calibration kernel, independent of nbsmell, runs about every 100 ms between
timed calls, and every timed interval is multiplied by
``REFERENCE_KERNEL_S / kernel time`` (the kernel time averaged over the
samples before and after the interval).  The results read as seconds at the
speed the kernel usually has on that VM and are reported next to the raw
wall times.  On five corridor-sweep runs this cut the quartile spread of
``run_s`` from 27% to 8%.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_KERNEL_S = 0.8e-3
CALIBRATE_EVERY_S = 0.1

_rng = np.random.default_rng(12345)
_VALUES = _rng.random(8192)
_INDEX = _rng.integers(0, 8192, 2820)


def _kernel() -> float:
    """A fixed mix of small numpy gathers and Python loops, like one FoS step."""
    total = 0.0
    for _ in range(25):
        v = _VALUES[_INDEX]
        total += float(v[v > 0.5].sum())
        total += sum([j * 0.5 for j in range(100)])
    return total


def kernel_time() -> float:
    """Median of three kernel runs, in seconds."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return sorted(times)[1]


class SpeedMeter:
    """Collects timed intervals and their rescaled values.

    Call :meth:`begin` before timed work, :meth:`step` with each timed call,
    :meth:`tick` between calls (it calibrates when due), and :meth:`end`
    after the work.  Time between ``end`` and the next ``begin`` is not
    counted.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.raw_steps: list[float] = []
        self.scaled_steps: list[float] = []
        self.samples: list[float] = []
        kernel_time()  # first run pays for lazy set-up inside numpy
        self._last = self._calibrate()
        self._start = perf_counter()
        self._pending: list[float] = []

    def _calibrate(self) -> float:
        t = kernel_time()
        self.samples.append(t)
        return t

    def begin(self) -> None:
        self._start = perf_counter()
        self._pending = []

    def step(self, seconds: float) -> None:
        self._pending.append(seconds)

    def tick(self) -> None:
        if perf_counter() - self._start >= CALIBRATE_EVERY_S:
            self.end()
            self.begin()

    def end(self) -> None:
        raw = perf_counter() - self._start
        now = self._calibrate()
        factor = REFERENCE_KERNEL_S / ((self._last + now) / 2)
        self._last = now
        self.raw_s += raw
        self.scaled_s += raw * factor
        self.raw_steps += self._pending
        self.scaled_steps += [s * factor for s in self._pending]
        self._pending = []

    def speed(self) -> float:
        """Median machine speed seen, relative to the reference machine."""
        return REFERENCE_KERNEL_S / float(np.median(self.samples))
