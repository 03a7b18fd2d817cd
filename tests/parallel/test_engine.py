"""The ``repro.parallel.engine`` import surface: serial, and ``workers``
ignored."""

from __future__ import annotations

from repro.parallel.engine import SerialEngine, default_engine, parallel_warm_cache
from repro.routing.cache import RoutingCache
from repro.topology.generator import generate_topology


def square(x: int) -> int:
    return x * x


class TestEngines:
    def test_serial_map(self):
        assert SerialEngine().map(square, [1, 2, 3]) == [1, 4, 9]

    def test_default_engine_selection(self):
        assert isinstance(default_engine(1), SerialEngine)
        assert isinstance(default_engine(3), SerialEngine)
        assert default_engine(3).map(square, [3, 1, 2]) == [9, 1, 4]


class TestCacheWarming:
    def test_parallel_warm_matches_serial(self, small_chunks):
        top = generate_topology(n=120, seed=19)
        serial = RoutingCache(top.graph)
        parallel_warm_cache(serial, workers=1)
        parallel = RoutingCache(top.graph)
        parallel_warm_cache(parallel, workers=2)
        assert serial.stats().builds == parallel.stats().builds == 120
        for dest in (0, 13, 77):
            a = serial.ensure_arena().view(serial.dest_pos(dest))
            b = parallel.ensure_arena().view(parallel.dest_pos(dest))
            assert (a.order == b.order).all()
            assert (a.indptr == b.indptr).all()
            assert (a.cands == b.cands).all()
            assert (a.cls == b.cls).all()
