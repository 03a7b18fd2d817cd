"""Counter/gauge/histogram semantics and the registry model."""

from __future__ import annotations

import math

import pytest

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
    use_registry,
)


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("g")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13


class TestHistogram:
    def test_bucketing_is_upper_bound_inclusive(self):
        h = Histogram("h", bounds=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 10.0, 99.0):
            h.observe(v)
        assert h.counts == [2, 2, 1]  # <=1, <=10, +inf
        assert h.count == 5
        assert h.total == pytest.approx(115.5)
        assert h.mean == pytest.approx(23.1)

    def test_empty_mean_is_nan(self):
        assert math.isnan(Histogram("h").mean)

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            Histogram("h", bounds=(2.0, 1.0))

    def test_time_context_observes(self):
        h = Histogram("h")
        with h.time():
            pass
        assert h.count == 1
        assert h.total >= 0


class TestRegistry:
    def test_same_name_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")
        reg.counter("a").inc()
        reg.counter("a").inc()
        assert reg.counter("a").value == 2

    def test_rebucketing_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(1.0,))
        with pytest.raises(ValueError, match="different bounds"):
            reg.histogram("h", bounds=(2.0,))

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(7)
        reg.histogram("h", bounds=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 7}
        assert snap["histograms"]["h"] == {
            "bounds": [1.0], "counts": [1, 0], "sum": 0.5, "count": 1,
        }


class TestActiveRegistry:
    def test_default_is_noop(self):
        reg = get_registry()
        assert not reg.enabled
        reg.counter("anything").inc()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_null_instruments_are_shared_and_inert(self):
        c = NULL_REGISTRY.counter("a")
        assert c is NULL_REGISTRY.counter("b")
        assert c is NULL_REGISTRY.histogram("h")
        c.inc()
        c.observe(1.0)
        c.set(2.0)
        with c.time():
            pass

    def test_use_registry_restores_previous(self):
        mine = MetricsRegistry()
        with use_registry(mine) as active:
            assert active is mine
            assert get_registry() is mine
        assert get_registry() is NULL_REGISTRY

    def test_set_registry_none_restores_noop(self):
        previous = set_registry(MetricsRegistry())
        assert previous is NULL_REGISTRY
        set_registry(None)
        assert get_registry() is NULL_REGISTRY

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
