"""Serial and process map-reduce engines must agree."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel.engine import (
    ProcessEngine,
    SerialEngine,
    default_engine,
    parallel_warm_cache,
)
from repro.routing.cache import RoutingCache
from repro.topology.generator import generate_topology


def square(x: int) -> int:
    return x * x


class TestEngines:
    def test_serial_map(self):
        assert SerialEngine().map(square, [1, 2, 3]) == [1, 4, 9]

    def test_process_map_matches_serial(self):
        items = list(range(37))
        serial = SerialEngine().map(square, items)
        parallel = ProcessEngine(workers=3).map(square, items)
        assert serial == parallel

    def test_process_single_item_shortcut(self):
        assert ProcessEngine(workers=4).map(square, [5]) == [25]

    def test_map_reduce_fold(self):
        total = SerialEngine().map_reduce(square, [1, 2, 3], lambda a, r: a + r, 0)
        assert total == 14

    def test_default_engine_selection(self):
        assert isinstance(default_engine(1), SerialEngine)
        assert isinstance(default_engine(3), ProcessEngine)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ProcessEngine(workers=0)

    def test_order_preserved(self):
        items = list(range(50, 0, -1))
        assert ProcessEngine(workers=2).map(square, items) == [x * x for x in items]


class TestCacheWarming:
    def test_parallel_warm_matches_serial(self, small_chunks):
        top = generate_topology(n=120, seed=19)
        serial = RoutingCache(top.graph)
        parallel_warm_cache(serial, workers=1)
        parallel = RoutingCache(top.graph)
        parallel_warm_cache(parallel, workers=2)
        assert (serial.stats().installs, parallel.stats().installs) == (0, 120)
        for dest in (0, 13, 77):
            a, b = serial.dest_routing(dest), parallel.dest_routing(dest)
            assert (a.order == b.order).all()
            assert (a.indptr == b.indptr).all()
            assert (a.cands == b.cands).all()
            assert (a.cls == b.cls).all()

    def test_warm_is_incremental(self):
        top = generate_topology(n=60, seed=19)
        cache = RoutingCache(top.graph)
        first = cache.dest_routing(5)
        parallel_warm_cache(cache, workers=1)
        assert cache.dest_routing(5) is first  # not recomputed
