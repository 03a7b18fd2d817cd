"""Sample statistics, the run deadline and the calibration kernel."""

from __future__ import annotations

import statistics
import time
from typing import Callable, Sequence

import numpy as np


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return (values[0],) * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def lower_quartile(values: Sequence[float]) -> float:
    """The value a timing metric reports.

    Everything that disturbs a timing on a shared machine (a busy
    neighbour, a descheduled worker process) adds time and nothing takes
    any away, so the lower quartile of the calibrated samples repeats
    better than their median: over three ten-run studies its worst
    interquartile spread was 0.13 / 0.15 / 0.18 against the median's
    0.09 / 0.16 / 0.32.  The median and both quartiles are reported
    beside it.
    """
    return quartiles(values)[0]


def summarize(values: Sequence[float]) -> dict[str, float]:
    """The per-metric record: median, quartiles, extremes, sample count."""
    q1, median, q3 = quartiles(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "min": min(values), "max": max(values), "n": len(values),
    }


class DeadlineExceeded(RuntimeError):
    """A workload ran past its budget; ``args[0]`` names what was running."""


class Deadline:
    """Wall-clock budget checked cooperatively between iterations."""

    def __init__(self, seconds: float, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._end = clock() + seconds
        self.seconds = seconds

    def remaining(self) -> float:
        return self._end - self._clock()

    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, what: str) -> None:
        if self.expired():
            raise DeadlineExceeded(
                f"{what}: over its {self.seconds:g} s budget"
            )


#: ``Calibration.run`` on the machine the first numbers were taken on
CALIB_REFERENCE_S = 0.175


class Calibration:
    """A fixed kernel timed beside the iterations (``bench.calib_s``).

    The sandbox's speed drifts by 20-40% over minutes (the same game
    reads 1.15 s, then 1.65 s, with CPU time moving equally), far more
    than any bound a regression gate can use.  The same numpy
    gather/bincount/repeat + interpreter loop runs between iterations,
    and each timing is divided by the slowdown the two calibrations
    around it show against ``CALIB_REFERENCE_S``: end-to-end timings are
    seconds *at the reference machine's speed*.  The raw samples are
    reported beside them.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(2011)
        self._idx = rng.integers(0, 1 << 19, size=1 << 19)
        self._vals = rng.random(1 << 19)
        self._counts = rng.integers(1, 4, size=1 << 17)
        self.samples: list[float] = []

    def run(self) -> float:
        start = time.perf_counter()
        for _ in range(25):
            gathered = self._vals[self._idx]
            np.bincount(self._idx & 4095, weights=gathered, minlength=4096)
            np.repeat(self._counts, self._counts)
            acc = 0
            for i in range(60_000):
                acc += i & 7
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def slowdown(self, last: int = 2) -> float:
        """The last ``last`` samples against the reference machine (1 = as fast).

        Two samples (either side of an iteration) are averaged; more are
        reduced by their median, which one disturbed sample cannot move.
        """
        recent = self.samples[-last:]
        level = statistics.fmean(recent) if last <= 2 else statistics.median(recent)
        return level / CALIB_REFERENCE_S

    def median(self) -> float:
        return statistics.median(self.samples)
