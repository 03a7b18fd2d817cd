"""Observability for the simulation pipeline: metrics, spans, export.

The paper's evaluation ran an ``O(N^3)`` game over ~36K ASes on a
200-node cluster; at that scale a run you cannot see into is a run you
cannot tune or trust.  This package is the repo's eyes:

- :mod:`repro.telemetry.metrics` — process-local counters, gauges and
  fixed-bucket histograms behind a registry whose default is a true
  no-op (disabled mode costs ~nothing on hot paths);
- :mod:`repro.telemetry.spans` — nested timed spans exporting to
  Chrome-trace/Perfetto JSON and JSONL;
- :mod:`repro.telemetry.export` — Prometheus text rendering, atomic
  file output and summary tables.

Enable with :func:`enable` (or ``sbgp-sim ... --metrics-out/--trace-out``);
everything stays a no-op otherwise.
"""

from __future__ import annotations

from repro.telemetry.export import (
    load_metrics,
    render_prometheus,
    summary_rows,
    write_metrics,
)
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from repro.telemetry.spans import (
    NULL_TRACER,
    NullTracer,
    SpanEvent,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "get_registry",
    "set_registry",
    "use_registry",
    "SpanEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "render_prometheus",
    "write_metrics",
    "load_metrics",
    "summary_rows",
    "enable",
    "disable",
]


def enable() -> tuple[MetricsRegistry, Tracer]:
    """Install a fresh live registry + tracer; returns both.

    Idempotent in spirit: calling again replaces the previous pair, so
    a CLI invocation always starts from zeroed instruments.
    """
    registry = MetricsRegistry()
    tracer = Tracer()
    set_registry(registry)
    set_tracer(tracer)
    return registry, tracer


def disable() -> None:
    """Restore the no-op registry and tracer."""
    set_registry(None)
    set_tracer(None)
