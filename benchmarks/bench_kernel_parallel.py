"""Kernel ablation: serial vs process-pool cache warming.

The map step (DestRouting construction) is what the paper distributed
over DryadLINQ.  At laptop scales the serial engine often wins (fork +
pickle overhead); the bench quantifies the crossover, which is why
``workers=1`` is the default.  ``workers=1`` is ``RoutingCache.warm()``:
the chunk-batched structure build, one chunk at a time.
"""

from __future__ import annotations

from repro.parallel.engine import parallel_warm_cache
from repro.routing.cache import RoutingCache
from repro.topology.generator import generate_topology

_top = None


def _fresh_cache():
    global _top
    if _top is None:
        _top = generate_topology(n=300, seed=77)
    return RoutingCache(_top.graph)


def test_kernel_warm_serial(benchmark):
    def warm():
        cache = _fresh_cache()
        parallel_warm_cache(cache, workers=1)
        return cache

    # enough rounds that the min statistic survives scheduler noise on
    # shared machines (see scripts/bench_compare.py --stat)
    cache = benchmark.pedantic(warm, rounds=8, iterations=1)
    assert cache.stats().cached == cache.graph.n


def test_kernel_warm_processes(benchmark):
    def warm():
        cache = _fresh_cache()
        parallel_warm_cache(cache, workers=4)
        return cache

    cache = benchmark.pedantic(warm, rounds=8, iterations=1)
    assert cache.stats().cached == cache.graph.n
