"""Nested timed spans with Chrome-trace / Perfetto export.

A :class:`Tracer` hands out ``span("round", index=3)`` context
managers; each records a complete event (name, start, duration, args)
when its block exits.  Spans nest naturally — Perfetto and
``chrome://tracing`` stack complete events that overlap in time on the
same process/thread track, so a ``sweep`` span encloses its ``cell``
spans which enclose their ``round`` spans with no parent bookkeeping
on our side.

Export targets:

- :meth:`Tracer.to_chrome_trace` / :meth:`Tracer.write_chrome_trace` —
  the Chrome Trace Event JSON object format (``{"traceEvents": [...]}``
  with ``ph: "X"`` complete events, microsecond timestamps), loadable
  in https://ui.perfetto.dev or ``chrome://tracing``;
- :meth:`Tracer.write_jsonl` — one span per line for streaming
  consumers and ``grep``-ability.

Both writers go through :mod:`repro.runtime.atomic`, so a crash
mid-export never leaves a torn trace shadowing an older good one.

As with metrics, the default tracer (:data:`NULL_TRACER`) is a no-op
whose ``span()`` returns a shared null context manager.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import threading
import time
from pathlib import Path
from typing import Iterator

from repro.runtime.atomic import atomic_write_text

__all__ = [
    "SpanEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]


@dataclasses.dataclass(frozen=True)
class SpanEvent:
    """One completed span: microseconds relative to the tracer epoch."""

    name: str
    start_us: float
    duration_us: float
    pid: int
    tid: int
    args: dict

    def to_chrome(self) -> dict:
        """Chrome Trace Event Format "complete" (``ph: "X"``) event."""
        event = {
            "name": self.name,
            "ph": "X",
            "ts": self.start_us,
            "dur": self.duration_us,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.args:
            event["args"] = self.args
        return event


class _Span:
    """Context manager recording one timed span on exit."""

    __slots__ = ("_tracer", "_name", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._args = args
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self._tracer._record(self._name, self._start, end, self._args)


class Tracer:
    """Collects spans in memory; export when the run is over.

    The epoch is the tracer's creation instant: timestamps are relative,
    which keeps traces comparable across runs and avoids wall-clock
    skew inside one.
    """

    enabled = True

    def __init__(self):
        self._epoch = time.perf_counter()
        self._events: list[SpanEvent] = []
        self._lock = threading.Lock()

    def span(self, name: str, **args) -> _Span:
        """A context manager that records ``name`` with ``args`` on exit."""
        return _Span(self, name, args)

    def _record(self, name: str, start: float, end: float, args: dict) -> None:
        event = SpanEvent(
            name=name,
            start_us=(start - self._epoch) * 1e6,
            duration_us=(end - start) * 1e6,
            pid=os.getpid(),
            tid=threading.get_ident() & 0xFFFF,
            args=args,
        )
        with self._lock:
            self._events.append(event)

    def events(self) -> list[SpanEvent]:
        """Recorded spans, in completion order."""
        with self._lock:
            return list(self._events)

    # -- export -------------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """The Chrome Trace Event JSON object for all recorded spans."""
        return {
            "traceEvents": [e.to_chrome() for e in self.events()],
            "displayTimeUnit": "ms",
        }

    def write_chrome_trace(self, path: str | Path) -> None:
        """Atomically write a Perfetto/``chrome://tracing`` loadable file."""
        atomic_write_text(path, json.dumps(self.to_chrome_trace(), indent=1))

    def write_jsonl(self, path: str | Path) -> None:
        """Atomically write one JSON span object per line."""
        lines = [json.dumps(e.to_chrome(), sort_keys=True) for e in self.events()]
        atomic_write_text(path, "\n".join(lines) + "\n" if lines else "")


class NullTracer(Tracer):
    """The default tracer: ``span()`` is a shared no-op context manager."""

    enabled = False

    def __init__(self):
        super().__init__()

    def span(self, name: str, **args):  # type: ignore[override]
        return _NULL_SPAN

    def _record(self, name: str, start: float, end: float, args: dict) -> None:
        pass


_NULL_SPAN = contextlib.nullcontext()

NULL_TRACER = NullTracer()

_active: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The process-wide active tracer (no-op unless one was installed)."""
    return _active


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` (None restores the no-op); returns the previous."""
    global _active
    previous = _active
    _active = tracer if tracer is not None else NULL_TRACER
    return previous


@contextlib.contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:  # repro-lint: disable=RPR017 -- how tests swap in a tracer to read
    """Scoped :func:`set_tracer` for tests and embedded callers."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
