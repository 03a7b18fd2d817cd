"""Policy binding and deployment-state keying of :class:`RoutingCache`."""

from __future__ import annotations

import numpy as np

from repro.routing.cache import RoutingCache, state_digest


class TestPolicyBinding:
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
        before = cache.ensure_arena().view(cache.dest_pos(3))
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
        after = cache.ensure_arena().view(cache.dest_pos(3))
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
        insecure = {d: cache.ensure_arena().view(cache.dest_pos(d)).lengths.copy()
                    for d in range(0, small_graph.n, 7)}
        secure = np.zeros(small_graph.n, dtype=bool)
        secure[::2] = True
        cache.ensure_state(secure, secure)
        changed = any(
            (cache.ensure_arena().view(cache.dest_pos(d)).lengths != lengths).any()
            for d, lengths in insecure.items()
        )
        assert changed
