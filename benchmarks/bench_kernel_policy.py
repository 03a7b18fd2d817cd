"""Per-policy kernel benchmarks: structure build + batched resolution.

The regression gate this feeds (``make bench-compare``) is what holds
the policy layer to its core promise: the default ``security_3rd``
policy keeps the state-independent arena fast path, so its numbers must
track the pre-policy-layer kernels.  The state-dependent rankings
(``security_2nd`` / ``security_1st``) pay a Jacobi fixpoint rebuild per
deployment state — deliberately more expensive; these benches make that
cost visible instead of anecdotal.  ``sp_first`` is built by the same
fixpoint, once and with nobody secure (its structure does not move with
the state), so its build tracks theirs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.routing.arena import RoutingArena, compute_trees_batched
from repro.routing.policy import get_policy

POLICIES = ("security_3rd", "security_2nd", "security_1st", "sp_first")

#: destinations per bench: enough to amortise the batched kernels,
#: small enough that the fixpoint builds stay sub-second
NUM_DESTS = 48


@pytest.fixture(scope="module")
def bench_state(env):
    secure = np.zeros(env.graph.n, dtype=bool)
    secure[::3] = True
    return secure


def _dests(env) -> list[int]:
    step = max(1, env.graph.n // NUM_DESTS)
    return list(range(0, env.graph.n, step))[:NUM_DESTS]


@pytest.mark.parametrize("policy", POLICIES)
def test_kernel_policy_structure_build(benchmark, env, bench_state, policy):
    pol = get_policy(policy)
    dests = _dests(env)
    pools = benchmark(
        lambda: pol.build_pools(
            env.graph, dests, env.cache.compiled,
            node_secure=bench_state, breaks_ties=bench_state,
        )
    )
    assert pools.dest_ids.tolist() == dests
    assert pools.policy == policy


@pytest.mark.parametrize("policy", POLICIES)
def test_kernel_policy_batched_trees(benchmark, env, bench_state, policy):
    pol = get_policy(policy)
    dests = _dests(env)
    pools = pol.build_pools(
        env.graph, dests, env.cache.compiled,
        node_secure=bench_state, breaks_ties=bench_state,
    )
    arena = RoutingArena.build(env.graph.n, [pools], policy=pol.name)
    slots = arena.all_slots()
    bt = benchmark(
        lambda: compute_trees_batched(arena, slots, bench_state, bench_state)
    )
    assert bt.choice.shape == (len(dests), env.graph.n)
