"""Tests for per-link deployment (§8.3, Theorems 8.2 / J.1 / J.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.config import UtilityModel
from repro.core.perlink import (
    best_link_deployment,
    routes_with_link_security,
    utility_with_links,
)
from repro.core.state import DeploymentState, StateDeriver
from repro.gadgets.dilemma import build_dilemma
from repro.routing.tree import compute_dest_routing
from repro.topology.graph import ASGraph

from tests.references import compute_tree
from tests.strategies import graphs_with_security


def chain() -> ASGraph:
    g = ASGraph()
    for asn in (1, 2, 3):
        g.add_as(asn)
    g.add_customer_provider(provider=1, customer=2)
    g.add_customer_provider(provider=2, customer=3)
    return g


class TestLinkSecurity:
    def test_all_links_active_matches_node_security(self):
        g = chain()
        secure = np.ones(g.n, dtype=bool)
        sel = routes_with_link_security(g, g.index(3), secure, secure)
        assert sel[g.index(1)].secure

    def test_disabled_link_breaks_security(self):
        g = chain()
        secure = np.ones(g.n, dtype=bool)
        disabled = {g.index(2): {g.index(3)}}
        sel = routes_with_link_security(g, g.index(3), secure, secure, disabled)
        assert not sel[g.index(2)].secure
        assert not sel[g.index(1)].secure  # poisoned upstream

    def test_disabling_is_symmetric(self):
        g = chain()
        secure = np.ones(g.n, dtype=bool)
        a = routes_with_link_security(
            g, g.index(3), secure, secure, {g.index(2): {g.index(3)}}
        )
        b = routes_with_link_security(
            g, g.index(3), secure, secure, {g.index(3): {g.index(2)}}
        )
        assert a[g.index(1)].secure == b[g.index(1)].secure

    def test_insecure_node_equivalent_to_all_links_off(self):
        g = chain()
        half = np.ones(g.n, dtype=bool)
        half[g.index(2)] = False
        sel = routes_with_link_security(g, g.index(3), half, half)
        assert not sel[g.index(1)].secure


@given(graphs_with_security(max_nodes=12))
@settings(max_examples=25, deadline=None)
def test_all_links_on_selects_as_the_trees(graph_and_secure):
    """With no link disabled, per-link security is node security: every
    destination's selection is the analytic structure resolved by the
    routing-tree reference, next hop and secure flag alike."""
    graph, secure_list = graph_and_secure
    secure = np.zeros(graph.n, dtype=bool)
    secure[secure_list] = True
    breaks = secure.copy()
    breaks[::3] = False  # some secure ASes do not break ties on security
    for dest in range(graph.n):
        tree = compute_tree(compute_dest_routing(graph, dest), secure, breaks)
        routes = routes_with_link_security(graph, dest, secure, breaks)
        for i in range(graph.n):
            if i == dest:
                continue
            route = routes.get(i)
            if route is None:
                assert tree.choice[i] == -1, (dest, i)
            else:
                assert route.next_hop == tree.choice[i], (dest, i)
                assert route.secure == bool(tree.secure[i]), (dest, i)


class TestDilemma:
    @pytest.fixture(scope="class")
    def setting(self):
        net = build_dilemma(w_a=100.0, w_b=60.0)
        g = net.graph
        deriver = StateDeriver(g, stub_breaks_ties=True)
        state = DeploymentState.initial(
            frozenset(g.index(a) for a in net.secure_asns)
        )
        sec = deriver.node_secure(state)
        return net, g, sec, deriver.breaks_ties(sec)

    def test_link_choice_is_either_or(self, setting):
        net, g, sec, brk = setting
        x, up = g.index(net.x), g.index(net.up)
        u_on = utility_with_links(g, sec, brk, x, None, UtilityModel.INCOMING)
        u_off = utility_with_links(g, sec, brk, x, {x: {up}}, UtilityModel.INCOMING)
        assert u_on != u_off  # the contested link moves real revenue

    def test_weights_flip_the_optimum(self):
        outcomes = {}
        for w_a, w_b in ((100.0, 60.0), (60.0, 400.0)):
            net = build_dilemma(w_a=w_a, w_b=w_b)
            g = net.graph
            deriver = StateDeriver(g, stub_breaks_ties=True)
            state = DeploymentState.initial(
                frozenset(g.index(a) for a in net.secure_asns)
            )
            sec = deriver.node_secure(state)
            brk = deriver.breaks_ties(sec)
            x, up = g.index(net.x), g.index(net.up)
            u_on = utility_with_links(g, sec, brk, x, None, UtilityModel.INCOMING)
            u_off = utility_with_links(
                g, sec, brk, x, {x: {up}}, UtilityModel.INCOMING
            )
            outcomes[(w_a, w_b)] = u_off - u_on
        assert outcomes[(100.0, 60.0)] > 0   # disable the link
        assert outcomes[(60.0, 400.0)] < 0   # keep it


class TestBruteForce:
    def test_finds_the_profitable_subset(self):
        net = build_dilemma(w_a=100.0, w_b=60.0)
        g = net.graph
        deriver = StateDeriver(g, stub_breaks_ties=True)
        state = DeploymentState.initial(
            frozenset(g.index(a) for a in net.secure_asns)
        )
        sec = deriver.node_secure(state)
        brk = deriver.breaks_ties(sec)
        best = best_link_deployment(g, sec, brk, g.index(net.x), UtilityModel.INCOMING)
        assert g.index(net.up) in best.disabled

    def test_outgoing_full_deployment_optimal(self):
        """Theorem J.2: under outgoing utility, securing every link is
        (weakly) optimal."""
        net = build_dilemma()
        g = net.graph
        deriver = StateDeriver(g, stub_breaks_ties=True)
        state = DeploymentState.initial(
            frozenset(g.index(a) for a in net.secure_asns)
        )
        sec = deriver.node_secure(state)
        brk = deriver.breaks_ties(sec)
        x = g.index(net.x)
        all_on = utility_with_links(g, sec, brk, x, None, UtilityModel.OUTGOING)
        best = best_link_deployment(g, sec, brk, x, UtilityModel.OUTGOING)
        assert best.utility <= all_on + 1e-9

    def test_neighbor_limit_enforced(self, small_graph):
        deriver = StateDeriver(small_graph)
        state = DeploymentState(frozenset(), frozenset())
        sec = deriver.node_secure(state)
        hub = max(range(small_graph.n), key=small_graph.degree_of_index)
        with pytest.raises(ValueError):
            best_link_deployment(
                small_graph, sec, sec, hub, neighbor_limit=2
            )
