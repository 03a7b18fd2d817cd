"""Kernel benchmarks: the routing machinery of one deployment state.

One structure build, and the two stacked kernels that resolve a whole
destination set (the paper's own C# kernel ran in ~2 ms per destination
at 36K ASes after optimisation).  A round resolves the trees and sums
their subtree weights in one kernel call; the one-call and the
two-call path are timed side by side on every loadable tier, so the
split stays on record.  The per-destination twins these were
once compared with are references in ``tests/references.py`` now, and a
reference is not timed; their ids (``kernel_fast_tree_vectorised``,
``kernel_fast_tree_scalar``, ``kernel_subtree_weights``,
``kernel_per_dest_trees_all_dests``) end in the committed snapshots,
where ``scripts/bench_compare.py`` lists them as "baseline only".
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.routing import backends as kernel_backends
from repro.routing.arena import RoutingArena, compute_trees_batched, subtree_weights_batched
from repro.routing.tree import ARENA_FIELDS, compute_dest_routing

#: the user-facing tiers this machine can run
TIERS = kernel_backends.usable_backends()


@pytest.fixture(scope="module")
def secure_state(env):
    node_secure = np.zeros(env.graph.n, dtype=bool)
    node_secure[:: 3] = True
    return node_secure


def test_kernel_dest_routing_precompute(benchmark, env):
    dest = env.graph.index(env.tier1_asns[0])
    dr = benchmark(lambda: compute_dest_routing(env.graph, dest, env.cache.compiled))
    assert dr.num_reachable > 0.9 * env.graph.n


def test_kernel_batched_trees_all_dests(benchmark, env, secure_state):
    """Whole-destination-set resolution in one stacked kernel pass."""
    arena = env.cache.ensure_arena()
    slots = arena.all_slots()
    bt = benchmark(
        lambda: compute_trees_batched(arena, slots, secure_state, secure_state)
    )
    assert bt.choice.shape == (arena.num_dests, env.graph.n)


def test_kernel_batched_subtree_weights(benchmark, env, secure_state):
    arena = env.cache.ensure_arena()
    slots = arena.all_slots()
    bt = compute_trees_batched(arena, slots, secure_state, secure_state)
    w2d = benchmark(
        lambda: subtree_weights_batched(arena, slots, bt.choice, env.graph.weights)
    )
    assert w2d.shape == (arena.num_dests, env.graph.n)


def _on(env, backend: str) -> RoutingArena:
    """``env``'s arena on ``backend``: the same pools, no copy."""
    arena = env.cache.ensure_arena()
    arrays = {name: getattr(arena, name) for name, _ in ARENA_FIELDS}
    return RoutingArena(env.graph.n, arrays, policy=arena.policy, backend=backend)


@pytest.mark.parametrize("backend", TIERS)
def test_kernel_batched_trees_and_weights_one_call(benchmark, env, secure_state, backend):
    """Trees and subtree weights of every destination in one kernel
    call, as a round runs them."""
    arena = _on(env, backend)
    slots = arena.all_slots()
    weights = env.graph.weights
    # outside the timer: numpy's first call builds its level-major mirror
    compute_trees_batched(arena, slots, secure_state, secure_state, node_weights=weights)
    bt = benchmark(lambda: compute_trees_batched(
        arena, slots, secure_state, secure_state, node_weights=weights
    ))
    assert bt.weights.shape == (arena.num_dests, env.graph.n)


@pytest.mark.parametrize("backend", TIERS)
def test_kernel_batched_trees_then_weights(benchmark, env, secure_state, backend):
    """The same outputs in two kernel calls: the trees, then the weights."""
    arena = _on(env, backend)
    slots = arena.all_slots()
    weights = env.graph.weights

    def two_calls():
        bt = compute_trees_batched(arena, slots, secure_state, secure_state)
        return subtree_weights_batched(arena, slots, bt.choice, weights)

    two_calls()
    w2d = benchmark(two_calls)
    assert w2d.shape == (arena.num_dests, env.graph.n)
