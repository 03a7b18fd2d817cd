"""Backend tier benchmarks: numpy vs compiled kernels, same inputs.

One parametrised set of benches per loadable backend, same arena and
security state, so the per-backend numbers in the snapshot are directly
comparable.  ``make bench-compare`` asserts the compiled tier's
headline claims against the newest committed ``BENCH_*.json`` snapshot
— batched trees, and the all-destination structure build (warm plus
arena pack), each at least 2x faster than numpy — so a regression that
erodes a compiled speedup fails the gate the same way a numpy kernel
regression does.

Scale: ``REPRO_BENCH_BACKEND_N`` ASes (default 4000 — the CI smoke
size).  Destinations are sampled for the round kernels, as at paper
scale: they stream over ``[num_dests, n]`` blocks either way, so
per-call cost scales with both knobs independently.  The structure
build takes every destination, as a fresh environment does.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.experiments.setup import build_environment
from repro.routing import backends as kernel_backends
from repro.routing.arena import compute_trees_batched, subtree_weights_batched
from repro.routing.cache import RoutingCache
from repro.routing.errors import BackendUnavailable
from repro.routing.policy import get_policy

BACKEND_N = int(os.environ.get("REPRO_BENCH_BACKEND_N", "4000"))
BACKEND_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2011"))
NUM_DESTS = 64
FIXPOINT_DESTS = 16


def _loadable() -> list[str]:
    out = []
    for name in kernel_backends.usable_backends():
        try:
            kernel_backends.load_backend(name)
        except BackendUnavailable:
            continue
        out.append(name)
    return out


BACKENDS = _loadable()

_cache: dict[str, object] = {}


def _env():
    if "env" not in _cache:
        _cache["env"] = build_environment(
            n=BACKEND_N, seed=BACKEND_SEED, x=0.10, warm=True,
            sample_destinations=NUM_DESTS,
        )
    return _cache["env"]


@pytest.fixture(scope="module")
def bench_env():
    return _env()


@pytest.fixture(scope="module")
def bench_state(bench_env):
    secure = np.zeros(bench_env.graph.n, dtype=bool)
    secure[::3] = True
    return secure


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_backend_trees(benchmark, bench_env, bench_state, backend):
    """Batched all-destination tree resolution — the headline kernel."""
    arena = bench_env.cache.ensure_arena()
    arena.backend = backend
    slots = arena.all_slots()
    # warm outside the timer: numpy's first call builds its level-major mirror
    compute_trees_batched(arena, slots, bench_state, bench_state)
    bt = benchmark(
        lambda: compute_trees_batched(arena, slots, bench_state, bench_state)
    )
    assert bt.choice.shape == (len(slots), bench_env.graph.n)


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_backend_weights(benchmark, bench_env, bench_state, backend):
    arena = bench_env.cache.ensure_arena()
    arena.backend = backend
    slots = arena.all_slots()
    bt = compute_trees_batched(arena, slots, bench_state, bench_state)
    w = benchmark(
        lambda: subtree_weights_batched(
            arena, slots, bt.choice, bench_env.graph.weights
        )
    )
    assert w.shape == bt.choice.shape


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_backend_trees_and_weights(benchmark, bench_env, bench_state, backend):
    """Trees and subtree weights in one kernel call, as a round runs
    them; against ``..._trees`` plus ``..._weights``, the split."""
    arena = bench_env.cache.ensure_arena()
    arena.backend = backend
    slots = arena.all_slots()
    weights = bench_env.graph.weights
    compute_trees_batched(arena, slots, bench_state, bench_state, node_weights=weights)
    bt = benchmark(lambda: compute_trees_batched(
        arena, slots, bench_state, bench_state, node_weights=weights
    ))
    assert bt.weights.shape == (len(slots), bench_env.graph.n)


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_backend_structures(benchmark, bench_env, backend):
    """Every destination's structures built and packed into an arena:
    the warm plus pack a fresh cache pays before its first round."""
    graph = bench_env.graph

    def fresh():
        return (RoutingCache(graph, backend=backend),), {}

    arena = benchmark.pedantic(lambda cache: cache.ensure_arena(), setup=fresh, rounds=5)
    assert arena.num_dests == graph.n


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_backend_fixpoint(benchmark, bench_env, bench_state, backend):
    """Synchronous-Jacobi structure build (state-dependent policy)."""
    pol = get_policy("security_2nd")
    dests = list(bench_env.cache.destinations[:FIXPOINT_DESTS])
    pools = benchmark(
        lambda: pol.build_pools(
            bench_env.graph, dests, bench_env.cache.compiled,
            node_secure=bench_state, breaks_ties=bench_state,
            backend=backend,
        )
    )
    assert pools.dest_ids.tolist() == dests
