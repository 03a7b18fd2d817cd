"""Shared-memory data plane: publish/attach semantics and the warm path.

The load-bearing guarantee: a parallel warm ships **no pickled**
:class:`~repro.routing.tree.DestRouting` over the result pipes — only
pipe-sized segment handles, or (warning + counter) the pickled pools of
a partition when shared memory is unavailable — and what the cache ends
up with is a serial warm's arena, byte for byte.
"""

from __future__ import annotations

import logging
import multiprocessing
import pickle

import numpy as np
import pytest

import repro.routing.tree as tree_module
from repro.parallel import shm
from repro.parallel.engine import parallel_warm_cache
from repro.routing.arena import ARENA_FIELDS, RoutingArena, compute_trees_batched
from repro.routing.cache import RoutingCache
from repro.routing.compiled import CompiledGraph
from repro.routing.tree import DestRouting, chunk_pools, compute_dest_routing
from repro.telemetry.metrics import MetricsRegistry, use_registry

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="shm warm backhaul exercised with the fork start method",
)


@pytest.fixture
def registry():
    with use_registry(MetricsRegistry()) as reg:
        yield reg


def _arena_for(graph, dests):
    return RoutingArena.build(
        graph.n, list(chunk_pools(CompiledGraph.from_graph(graph), dests))
    )


class TestPublishAttach:
    def test_attach_once_refcounted(self, small_graph):
        published = shm.publish_arena(_arena_for(small_graph, [0, 3, 9]))
        assert published is not None
        handle, segment = published
        try:
            a1 = shm.attach_arena(handle)
            a2 = shm.attach_arena(handle)
            assert a1 is a2  # one mapping per process
            assert shm.attachment_refs(handle.name) == 2
            np.testing.assert_array_equal(a1.dest_ids, [0, 3, 9])
            shm.release_arena(handle.name)
            assert shm.attachment_refs(handle.name) == 1
            del a1, a2  # drop the views so the mapping can close
            shm.release_arena(handle.name)
            assert shm.attachment_refs(handle.name) == 0
        finally:
            segment.close()
            segment.unlink()

    def test_attached_views_are_zero_copy(self, small_graph):
        arena = _arena_for(small_graph, [1, 5])
        published = shm.publish_arena(arena)
        assert published is not None
        handle, segment = published
        try:
            attached = shm.attach_arena(handle)
            assert np.shares_memory(
                attached.view(0).cands, attached.cands_pool
            )
            np.testing.assert_array_equal(attached.keys_pool, arena.keys_pool)
            del attached
            shm.release_arena(handle.name)
        finally:
            segment.close()
            segment.unlink()

    def test_consume_copies_and_unlinks(self, small_graph):
        arena = _arena_for(small_graph, [2, 4, 6])
        published = shm.publish_arena(arena)
        assert published is not None
        handle, segment = published
        segment.close()  # publisher side done; consumer owns the rest
        copy = shm.consume_published_arena(handle)
        assert copy is not None
        np.testing.assert_array_equal(copy.cands_pool, arena.cands_pool)
        assert copy.cands_pool.base is None or not isinstance(
            copy.cands_pool.base, memoryview
        )  # heap copy, not a view of the (now unlinked) segment
        # the segment is gone: a second consume reports it cleanly
        assert shm.consume_published_arena(handle) is None

    def test_trees_from_attached_arena_match(self, small_graph, small_cache):
        arena = small_cache.ensure_arena()
        published = shm.publish_arena(arena)
        assert published is not None
        handle, segment = published
        try:
            attached = shm.attach_arena(handle)
            rng = np.random.default_rng(11)
            secure = rng.random(small_graph.n) < 0.4
            a = compute_trees_batched(arena, arena.all_slots(), secure, secure)
            b = compute_trees_batched(attached, attached.all_slots(), secure, secure)
            np.testing.assert_array_equal(a.choice, b.choice)
            np.testing.assert_array_equal(a.secure, b.secure)
            del attached, b
            shm.release_arena(handle.name)
        finally:
            segment.close()
            segment.unlink()


def _poison_reduce(self, *args, **kwargs):
    raise AssertionError("DestRouting crossed a process pipe")


@pytest.fixture
def four_chunk_cache(small_graph, monkeypatch):
    """Twelve destinations in three-row chunks: a parallel warm has
    four runs to hand out.  (Forked workers inherit the patched size.)"""
    cg = CompiledGraph.from_graph(small_graph)
    cells = cg.n + len(cg.cust_idx) + len(cg.peer_idx) + len(cg.prov_idx)
    monkeypatch.setattr(tree_module, "_CHUNK_CELLS", 3 * cells)

    def make(policy="security_3rd"):
        cache = RoutingCache(small_graph, destinations=list(range(12)), policy=policy)
        assert cache.rows_per_chunk == 3
        return cache

    return make


def _assert_same_arena(cache: RoutingCache, serial: RoutingCache) -> None:
    got, want = cache.ensure_arena(), serial.ensure_arena()
    for name, dtype in ARENA_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert str(a.dtype) == str(b.dtype) == dtype, name
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@needs_fork
class TestWarmTransport:
    def test_shm_warm_pickles_no_trees(self, four_chunk_cache, registry, monkeypatch):
        monkeypatch.setattr(DestRouting, "__reduce__", _poison_reduce)
        with pytest.raises(AssertionError):
            pickle.dumps(compute_dest_routing(four_chunk_cache().graph, 0))  # poison armed
        cache = four_chunk_cache()
        parallel_warm_cache(cache, workers=2)
        stats = cache.stats()
        assert (stats.installs, stats.builds, stats.cached_fraction) == (12, 0, 1.0)
        snap = registry.snapshot()
        # a genuinely parallel map, with no worker failures quietly
        # degraded to in-parent serial execution (which would mask a
        # pickled tree)
        assert snap["counters"]["engine.dispatched"] >= 2
        assert snap["counters"].get("engine.worker_errors", 0) == 0
        assert snap["counters"].get("engine.serial_fallback_items", 0) == 0
        assert snap["counters"]["parallel.shm.attaches"] >= 2
        assert snap["counters"].get("parallel.shm.fallbacks", 0) == 0
        # built through the cache's own builder: one observation per tree
        assert snap["counters"]["routing.tree_builds"] == 12
        serial = four_chunk_cache()
        serial.warm()
        _assert_same_arena(cache, serial)

    def test_shm_warm_matches_serial_warm(self, four_chunk_cache):
        secure = np.zeros(four_chunk_cache().graph.n, dtype=bool)
        secure[::3] = True
        for policy in ("sticky_primaries", "security_2nd"):
            caches = four_chunk_cache(policy), four_chunk_cache(policy)
            for cache in caches:
                cache.ensure_state(secure, secure)
            parallel_warm_cache(caches[0], workers=2)
            assert caches[0].stats().installs == 12
            caches[1].warm()
            _assert_same_arena(*caches)
            assert caches[0].arena.policy == policy

    def test_fallback_when_shared_memory_unusable(
        self, four_chunk_cache, registry, monkeypatch, caplog
    ):
        class _Broken:
            def SharedMemory(self, *args, **kwargs):
                raise OSError("no /dev/shm in this sandbox")

        monkeypatch.setattr(shm, "_shared_memory", _Broken())
        monkeypatch.setattr(DestRouting, "__reduce__", _poison_reduce)
        cache = four_chunk_cache()
        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            parallel_warm_cache(cache, workers=2)
        assert cache.stats().installs == 12  # warm never fails because shm did
        counters = registry.snapshot()["counters"]
        assert counters["parallel.shm.fallbacks"] >= 2
        assert counters.get("engine.worker_errors", 0) == 0
        assert any("fell back to pickled pools" in r.message for r in caplog.records)
        serial = four_chunk_cache()
        serial.warm()
        _assert_same_arena(cache, serial)

    def test_a_run_whose_segment_vanished_is_rebuilt_in_the_parent(
        self, four_chunk_cache, monkeypatch
    ):
        consume, lost = shm.consume_published_arena, []

        def lose_the_first(handle):
            if lost:
                return consume(handle)
            lost.append(handle)
            shm.discard_published_arena(handle)
            return None

        monkeypatch.setattr(shm, "consume_published_arena", lose_the_first)
        cache = four_chunk_cache()
        parallel_warm_cache(cache, workers=2)
        stats = cache.stats()
        assert len(lost) == 1 and stats.cached == 12
        assert stats.builds > 0 and stats.builds + stats.installs == 12
        serial = four_chunk_cache()
        serial.warm()
        _assert_same_arena(cache, serial)
