"""Snapshot export: Prometheus text, files, summary tables.

A *snapshot* is the plain-dict form produced by
:meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot`::

    {"counters": {...}, "gauges": {...},
     "histograms": {name: {"bounds": [...], "counts": [...],
                           "sum": s, "count": n}}}
"""

from __future__ import annotations

import math
from pathlib import Path

from repro.runtime.atomic import atomic_write_json

__all__ = [
    "METRICS_FORMAT",
    "render_prometheus",
    "write_metrics",
    "summary_rows",
]

#: ``format`` marker embedded in metrics files (validated on load).
METRICS_FORMAT = "repro.metrics/1"


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    return repr(value) if isinstance(value, float) and value % 1 else str(int(value))


def render_prometheus(snapshot: dict, prefix: str = "repro") -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Dotted metric names become underscore-separated
    (``routing.tree_builds`` -> ``repro_routing_tree_builds``); histogram
    buckets render cumulatively with the standard ``le`` label.
    """
    lines: list[str] = []
    for name, value in snapshot.get("counters", {}).items():
        full = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {full} counter")
        lines.append(f"{full}_total {_prom_value(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        full = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {full} gauge")
        lines.append(f"{full} {_prom_value(value)}")
    for name, data in snapshot.get("histograms", {}).items():
        full = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {full} histogram")
        cumulative = 0
        for bound, count in zip(data["bounds"], data["counts"]):
            cumulative += count
            lines.append(f'{full}_bucket{{le="{_prom_value(float(bound))}"}} {cumulative}')
        cumulative += data["counts"][-1]
        lines.append(f'{full}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{full}_sum {data['sum']}")
        lines.append(f"{full}_count {data['count']}")
    return "\n".join(lines) + "\n"


def write_metrics(path: str | Path, snapshot: dict) -> None:
    """Atomically write a snapshot as checksummed JSON (loadable back)."""
    atomic_write_json(path, {"format": METRICS_FORMAT, **snapshot})


def summary_rows(snapshot: dict) -> list[list[object]]:
    """Rows for :func:`repro.experiments.report.format_table`.

    One row per instrument: counters show their total, gauges their
    value, histograms count/mean/max-bucket — the one-screen view the
    CLI prints after a telemetry-enabled run.
    """
    rows: list[list[object]] = []
    for name, value in snapshot.get("counters", {}).items():
        rows.append([name, "counter", _prom_value(value), ""])
    for name, value in snapshot.get("gauges", {}).items():
        rows.append([name, "gauge", _prom_value(value), ""])
    for name, data in snapshot.get("histograms", {}).items():
        count = data["count"]
        mean = data["sum"] / count if count else 0.0
        rows.append([name, "histogram", str(count), f"mean {mean:.4f}s"])
    return rows
