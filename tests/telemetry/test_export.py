"""Prometheus rendering, file round-trips and summary tables."""

from __future__ import annotations

import pytest

from repro.runtime.atomic import load_checked_json
from repro.telemetry.export import (
    METRICS_FORMAT,
    render_prometheus,
    summary_rows,
    write_metrics,
)
from repro.telemetry.metrics import MetricsRegistry


def _snap(counter=0.0, obs=()):
    reg = MetricsRegistry()
    if counter:
        reg.counter("work.items").inc(counter)
    for v in obs:
        reg.histogram("work.seconds", bounds=(1.0, 10.0)).observe(v)
    return reg.snapshot()


class TestPrometheus:
    def test_rendering(self):
        reg = MetricsRegistry()
        reg.counter("routing.tree_builds").inc(4)
        reg.gauge("engine.live_workers").set(2)
        reg.histogram("sim.round_seconds", bounds=(1.0,)).observe(0.5)
        text = render_prometheus(reg.snapshot())
        assert "# TYPE repro_routing_tree_builds counter" in text
        assert "repro_routing_tree_builds_total 4" in text
        assert "repro_engine_live_workers 2" in text
        assert 'repro_sim_round_seconds_bucket{le="1"} 1' in text
        assert 'repro_sim_round_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_sim_round_seconds_count 1" in text
        assert text.endswith("\n")


class TestFiles:
    def test_write_load_round_trip(self, tmp_path):
        snap = _snap(counter=5, obs=(0.5,))
        path = tmp_path / "metrics.json"
        write_metrics(path, snap)
        loaded = load_checked_json(path, expected_format=METRICS_FORMAT)
        assert loaded == {"format": METRICS_FORMAT, **snap}

    def test_load_rejects_wrong_format(self, tmp_path):
        from repro.runtime.atomic import atomic_write_json
        from repro.runtime.errors import SchemaError

        path = tmp_path / "bad.json"
        atomic_write_json(path, {"format": "something-else"})
        with pytest.raises(SchemaError):
            load_checked_json(path, expected_format=METRICS_FORMAT)


class TestSummary:
    def test_one_row_per_instrument(self):
        snap = _snap(counter=5, obs=(0.5, 2.0))
        rows = summary_rows(snap)
        names = [row[0] for row in rows]
        assert names == ["work.items", "work.seconds"]
        kinds = [row[1] for row in rows]
        assert kinds == ["counter", "histogram"]
