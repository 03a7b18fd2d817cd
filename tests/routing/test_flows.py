"""Tests for per-link load accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adopters import cps_plus_top_isps
from repro.core.config import SimulationConfig, UtilityModel
from repro.core.dynamics import run_deployment
from repro.core.engine import compute_round_data
from repro.core.state import DeploymentState, StateDeriver
from repro.routing.cache import RoutingCache
from repro.routing.flows import (
    deployment_traffic_shift,
    link_loads,
    traffic_shift,
)
from repro.topology.graph import ASGraph


def chain_graph() -> ASGraph:
    g = ASGraph()
    for asn in (1, 2, 3):
        g.add_as(asn)
    g.add_customer_provider(provider=1, customer=2)
    g.add_customer_provider(provider=2, customer=3)
    return g


class TestLinkLoads:
    def test_chain_loads(self):
        g = chain_graph()
        cache = RoutingCache(g)
        deriver = StateDeriver(g)
        rd = compute_round_data(
            cache, deriver, DeploymentState(frozenset(), frozenset()),
            UtilityModel.OUTGOING,
        )
        loads = link_loads(rd, g.weights)
        i1, i2, i3 = g.index(1), g.index(2), g.index(3)
        # dest 3: 1 sends via 2 (load 1 on 1->2, then 2 carries 1+1=2 on 2->3)
        # dest 2: 1 and 3 send directly; dest 1: 2 carries 3's + its own
        assert loads[(i1, i2)] == pytest.approx(1 + 1)   # dests 3 and 2
        assert loads[(i2, i3)] == pytest.approx(2)       # dest 3: subtree {1}+own
        assert loads[(i2, i1)] == pytest.approx(2)       # dest 1: 3's + own
        assert loads[(i3, i2)] == pytest.approx(1 + 1)   # dests 1 and 2

    def test_conservation(self, small_graph, small_cache):
        """Total load equals the sum over pairs of weight x path length."""
        deriver = StateDeriver(small_graph)
        rd = compute_round_data(
            small_cache, deriver, DeploymentState(frozenset(), frozenset()),
            UtilityModel.OUTGOING,
        )
        loads = link_loads(rd, small_graph.weights)
        total = sum(loads.values())
        lengths = np.maximum(rd.arena.lengths, 0)  # unreachable: -1
        expected = float((small_graph.weights * lengths).sum())
        assert total == pytest.approx(expected)

    def test_equals_the_walk_over_every_destination_and_node(self, small_graph, small_cache):
        """The loop ``link_loads`` was: one dict update per (destination,
        node) pair, destinations outermost — the same links, and the
        same float sums to the last bit."""
        secure = frozenset(small_graph.isp_indices[:8])
        rd = compute_round_data(
            small_cache, StateDeriver(small_graph), DeploymentState(secure, secure),
            UtilityModel.OUTGOING,
        )
        weights = small_graph.weights
        want: dict[tuple[int, int], float] = {}
        for pos in range(len(small_cache.destinations)):
            ds = rd.dest_state(pos)
            for node in ds.dr.order.tolist():
                nxt = int(ds.tree.choice[node])
                if nxt >= 0:
                    want[node, nxt] = want.get((node, nxt), 0.0) + float(
                        ds.weights[node] + weights[node]
                    )
        got = link_loads(rd, weights)
        assert got.keys() == want.keys() and len(got) > small_graph.n
        assert all(got[link].hex() == want[link].hex() for link in want)
        assert all(type(a) is int and type(b) is int for a, b in got)


class TestTrafficShift:
    def test_identical_states_no_shift(self):
        loads = {(0, 1): 5.0, (1, 2): 3.0}
        shift = traffic_shift(loads, dict(loads))
        assert shift.moved_load == 0.0
        assert shift.links_changed == 0
        assert shift.moved_fraction == 0.0

    def test_moved_load_counts_once(self):
        before = {(0, 1): 10.0}
        after = {(0, 2): 10.0}
        shift = traffic_shift(before, after)
        assert shift.moved_load == pytest.approx(10.0)
        assert shift.new_links == 1
        assert shift.dropped_links == 1

    def test_deployment_shifts_traffic(self, small_graph, small_cache):
        """The cascade reroutes a measurable share of traffic — the
        provisioning concern the paper's conclusion raises."""
        deriver = StateDeriver(small_graph, compiled=small_cache.compiled)
        empty = DeploymentState(frozenset(), frozenset())
        result = run_deployment(
            small_graph, cps_plus_top_isps(small_graph, 3),
            SimulationConfig(theta=0.05), small_cache,
        )
        shift = deployment_traffic_shift(
            small_cache, deriver, empty, result.final_state
        )
        assert shift.moved_load > 0
        assert 0 < shift.moved_fraction < 1
