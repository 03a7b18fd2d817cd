"""The benchmark's in-memory span recorder.

Spans are recorded around calls *into* the program from the benchmark's
own files; the program carries no instrumentation for it.  Each span is
``(id, name, start, end, parent)``; they stay in memory until the run
ends and are written out once.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Callable, Iterator


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class SpanRecorder:
    """Nested timed spans with self-time arithmetic."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = Span(
            id=len(self.spans), name=name, start=self._clock(), end=float("nan"),
            parent=self._stack[-1] if self._stack else None,
        )
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self._clock()

    def add(self, name: str, start: float, end: float) -> Span:
        """Record a span observed from outside (e.g. between two callbacks)."""
        record = Span(
            id=len(self.spans), name=name, start=start, end=end,
            parent=self._stack[-1] if self._stack else None,
        )
        self.spans.append(record)
        return record

    def self_time(self, span: Span) -> float:
        """Duration minus the part of the interval its child spans cover."""
        children = [
            (s.start, s.end) for s in self.spans if s.parent == span.id
        ]
        return span.duration - _covered(children, span.start, span.end)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + self.self_time(span)
        return out

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def to_dicts(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]
