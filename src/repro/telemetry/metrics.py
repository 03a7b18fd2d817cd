"""Process-local metrics: counters, gauges, fixed-bucket histograms.

The registry model is deliberately two-tier:

- :data:`NULL_REGISTRY` (the default) hands out shared no-op
  instruments.  Instrumented hot paths — ``_play_round``, the routing
  cache hit path — pay one attribute lookup and one no-op call per
  event, which is within noise of un-instrumented code (asserted by
  ``tests/telemetry/test_overhead.py``).
- :class:`MetricsRegistry` (installed via :func:`set_registry` /
  :func:`use_registry`, e.g. by ``sbgp-sim --metrics-out``) records for
  real and snapshots to plain dicts (rendered and written by
  :mod:`repro.telemetry.export`).

Instruments are identified by dotted names (``routing.tree_builds``);
asking a registry twice for the same name returns the same instrument,
so call sites may re-resolve freely or cache handles, whichever reads
better.
"""

from __future__ import annotations

import contextlib
import math
import time
from typing import Iterator, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "DEFAULT_BUCKETS",
    "get_registry",
    "set_registry",
    "use_registry",
]

#: default histogram bucket upper bounds, in seconds: sub-millisecond
#: cache hits through multi-minute sweep cells (last bucket is +inf).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0,
)


class Counter:
    """Monotonically increasing count of events."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount


class Gauge:
    """A value that goes up and down (queue depth, live workers)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram of observations (durations, sizes).

    ``bounds`` are inclusive upper bounds of the finite buckets; one
    implicit +inf bucket catches the rest, so ``counts`` has
    ``len(bounds) + 1`` slots.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS):
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name}: bounds must be strictly increasing")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1

    @contextlib.contextmanager
    def time(self) -> Iterator[None]:
        """Observe the wall time of a ``with`` block, in seconds."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - start)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan


class MetricsRegistry:
    """A process-local, name-keyed collection of instruments.

    ``enabled`` is True; call sites that want to skip even the cost of
    a ``perf_counter`` pair in disabled mode branch on it.
    """

    enabled = True

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, bounds)
        elif metric.bounds != tuple(float(b) for b in bounds):
            raise ValueError(
                f"histogram {name} re-registered with different bounds"
            )
        return metric

    def snapshot(self) -> dict:
        """Plain-dict snapshot (JSON-serialisable)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.count,
                }
                for n, h in sorted(self._histograms.items())
            },
        }


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram (the disabled mode)."""

    __slots__ = ()
    name = "<null>"
    value = 0.0
    bounds: tuple[float, ...] = ()
    counts: list[int] = []
    total = 0.0
    count = 0
    mean = math.nan

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def time(self):
        return _NULL_CONTEXT


_NULL_CONTEXT = contextlib.nullcontext()
_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """The default registry: every instrument is a shared no-op."""

    enabled = False

    def __init__(self):
        super().__init__()

    def counter(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def gauge(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_REGISTRY = NullRegistry()

_active: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The process-wide active registry (no-op unless one was installed)."""
    return _active


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install ``registry`` (None restores the no-op); returns the previous."""
    global _active
    previous = _active
    _active = registry if registry is not None else NULL_REGISTRY
    return previous


@contextlib.contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scoped :func:`set_registry` for tests and embedded callers."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
