"""The Figure-1 worked example must hold on its reconstruction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import UtilityModel
from repro.core.engine import compute_round_data, contributions
from repro.core.state import DeploymentState, StateDeriver
from repro.gadgets.fig1 import build_fig1
from repro.routing.cache import RoutingCache


@pytest.fixture(scope="module")
def fig1():
    net = build_fig1(w_cp=821.0)
    cache = RoutingCache(net.graph)
    deriver = StateDeriver(net.graph, stub_breaks_ties=True, compiled=cache.compiled)
    g = net.graph
    state = DeploymentState.initial(
        frozenset(g.index(a) for a in net.early_adopters)
    )
    rd = compute_round_data(cache, deriver, state, UtilityModel.OUTGOING)
    return net, cache, deriver, state, rd


class TestFig1:
    def test_initial_security(self, fig1):
        """Caption: 8866 and 22822 secure, stub 31420 simplex via 8866."""
        net, cache, deriver, state, rd = fig1
        g = net.graph
        assert rd.node_secure[g.index(8866)]
        assert rd.node_secure[g.index(22822)]
        assert rd.node_secure[g.index(31420)]   # simplex
        assert not rd.node_secure[g.index(8928)]
        assert not rd.node_secure[g.index(15169)]  # CP, not an adopter

    def test_worked_utility_example(self, fig1):
        """Five sources (2 CPs + 3 ASes) through 8866 toward 31420:
        the destination contributes exactly 2*w_CP + 3."""
        net, cache, deriver, state, rd = fig1
        g = net.graph
        pos = cache.dest_pos(g.index(31420))
        contribution = contributions(
            rd.arena.cls, rd.choice, rd.weights, g.index(8866), g.weights,
            UtilityModel.OUTGOING, rows=[pos],
        )
        assert contribution.tolist() == pytest.approx([2 * 821.0 + 3])

    def test_subtree_toward_limelight(self, fig1):
        """T_8866(22822, S) contains ASes 31420, 25076 and 34376."""
        net, cache, deriver, state, rd = fig1
        g = net.graph
        pos = cache.dest_pos(g.index(22822))
        tree = rd.dest_state(pos).tree
        through = set()
        for src in range(g.n):
            node = src
            while node != tree.dest and tree.choice[node] >= 0:
                node = int(tree.choice[node])
                if node == g.index(8866):
                    through.add(g.asn(src))
                    break
        assert through == {31420, 25076, 34376}

    def test_destination_not_via_customer_excluded(self, fig1):
        """'Destination 31420 is in D(n) but destination 22822 is not.'"""
        net, cache, deriver, state, rd = fig1
        g = net.graph
        from repro.routing.policy import RouteClass

        n = g.index(8866)
        cls_31420 = cache.dest_routing(g.index(31420)).cls[n]
        cls_22822 = cache.dest_routing(g.index(22822)).cls[n]
        assert cls_31420 == int(RouteClass.CUSTOMER)
        assert cls_22822 != int(RouteClass.CUSTOMER)
