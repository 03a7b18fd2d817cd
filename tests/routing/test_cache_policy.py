"""Policy binding and deployment-state keying of :class:`RoutingCache`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.routing.arena import RoutingArena
from repro.routing.cache import RoutingCache, state_digest
from repro.routing.policy import get_policy


class TestPolicyBinding:
    def test_mixed_policy_install_rejected(self, small_graph):
        cache = RoutingCache(small_graph, policy="security_3rd")
        foreign = RoutingCache(small_graph, policy="sp_first")
        dests = cache.destinations[:cache.rows_per_chunk]
        run = foreign.arena_of([foreign.build_pools(dests)])
        with pytest.raises(ValueError, match="sp_first"):
            cache.install_pools(0, run)
        assert cache.stats().installs == 0
        # the cache's own policy, but not a run of its chunks
        own = cache.arena_of([cache.build_pools(dests[1:])])
        with pytest.raises(ValueError, match="whole chunks"):
            cache.install_pools(1, own)
        with pytest.raises(ValueError, match="do not match"):
            cache.install_pools(0, cache.arena_of([cache.build_pools(dests[::-1])]))

    def test_mixed_policy_arena_rejected(self, small_graph):
        cache = RoutingCache(small_graph, policy="security_3rd")
        pools = get_policy("sp_first").build_pools(small_graph, cache.destinations)
        arena = RoutingArena.build(small_graph.n, [pools], policy="sp_first")
        with pytest.raises(ValueError, match="mixed-policy"):
            cache.install_arena(arena)

    def test_wrong_state_arena_rejected(self, small_graph):
        secure = np.zeros(small_graph.n, dtype=bool)
        secure[::2] = True
        cache = RoutingCache(small_graph, policy="security_2nd")
        pol = get_policy("security_2nd")
        pools = pol.build_pools(
            small_graph, cache.destinations,
            node_secure=secure, breaks_ties=secure,
        )
        arena = RoutingArena.build(
            small_graph.n, [pools],
            policy="security_2nd", state_key=state_digest(secure, secure),
        )
        # the cache is still at the all-insecure default state
        with pytest.raises(ValueError, match="deployment state"):
            cache.install_arena(arena)
        cache.ensure_state(secure, secure)
        cache.install_arena(arena)  # now the keys agree
        assert cache.stats().installs == len(cache.destinations)

    def test_stats_report_policy_and_arena(self, small_graph):
        cache = RoutingCache(small_graph, policy="gao-rexford")
        assert cache.policy_name == "security_3rd"
        assert cache.stats().arena_bytes == 0
        cache.ensure_arena()
        stats = cache.stats()
        assert stats.policy == "security_3rd"
        assert stats.arena_bytes > 0
        assert stats.arena_bytes == cache.arena.nbytes


class TestStateKeying:
    def test_state_independent_ignores_state(self, small_graph):
        cache = RoutingCache(small_graph, policy="security_3rd")
        cache.warm()
        secure = np.ones(small_graph.n, dtype=bool)
        assert cache.ensure_state(secure, secure) is False
        assert cache.stats().state_rebuilds == 0
        assert cache.state_key is None

    def test_state_dependent_rebuilds_on_flip(self, small_graph):
        cache = RoutingCache(small_graph, policy="security_2nd")
        cache.warm()
        before = cache.dest_routing(3)
        empty = np.zeros(small_graph.n, dtype=bool)
        # round 0 of a pre-warmed simulation: all-insecure is what the
        # structures were built under, so nothing should rebuild
        assert cache.ensure_state(empty, empty) is False
        assert cache.stats().state_rebuilds == 0

        secure = np.zeros(small_graph.n, dtype=bool)
        secure[::4] = True
        assert cache.ensure_state(secure, secure) is True
        assert cache.stats().state_rebuilds == 1
        assert cache.state_key == state_digest(secure, secure)
        after = cache.dest_routing(3)
        assert after is not before
        assert after.policy == "security_2nd"
        # same state again: a no-op
        assert cache.ensure_state(secure.copy(), secure.copy()) is False
        assert cache.stats().state_rebuilds == 1

    def test_rebuild_restores_arena_when_one_existed(self, small_graph):
        cache = RoutingCache(small_graph, policy="security_2nd")
        cache.ensure_arena()
        secure = np.zeros(small_graph.n, dtype=bool)
        secure[1::3] = True
        assert cache.ensure_state(secure, secure) is True
        assert cache.arena is not None
        assert cache.arena.state_key == state_digest(secure, secure)
        assert cache.arena.policy == "security_2nd"

    def test_structures_actually_differ_across_states(self, small_graph):
        """The point of state keying: under security_2nd a deployment
        flip changes selected classes/lengths for some destination."""
        cache = RoutingCache(small_graph, policy="security_2nd")
        insecure = {d: cache.dest_routing(d).lengths.copy()
                    for d in range(0, small_graph.n, 7)}
        secure = np.zeros(small_graph.n, dtype=bool)
        secure[::2] = True
        cache.ensure_state(secure, secure)
        changed = any(
            (cache.dest_routing(d).lengths != lengths).any()
            for d, lengths in insecure.items()
        )
        assert changed
