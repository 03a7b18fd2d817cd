"""Tests for the fast routing-tree algorithm (Appendix C.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.tree import compute_dest_routing
from repro.topology.graph import ASGraph

from tests.references import compute_tree, compute_tree_scalar, subtree_weights
from tests.strategies import graphs_with_security


def secure_flags(n: int, secure: list[int]) -> np.ndarray:
    out = np.zeros(n, dtype=bool)
    out[secure] = True
    return out


def diamond_graph() -> ASGraph:
    """source 1 -> {2, 3} -> stub 4: the canonical tiebreak situation."""
    g = ASGraph()
    for asn in (1, 2, 3, 4):
        g.add_as(asn)
    g.add_customer_provider(provider=1, customer=2)
    g.add_customer_provider(provider=1, customer=3)
    g.add_customer_provider(provider=2, customer=4)
    g.add_customer_provider(provider=3, customer=4)
    return g


class TestSecP:
    def test_secure_node_prefers_secure_path(self):
        g = diamond_graph()
        dr = compute_dest_routing(g, g.index(4))
        for mid in (2, 3):
            secure = secure_flags(g.n, [g.index(1), g.index(mid), g.index(4)])
            tree = compute_tree(dr, secure, secure)
            assert tree.choice[g.index(1)] == g.index(mid)
            assert tree.secure[g.index(1)]

    def test_insecure_node_ignores_security(self):
        g = diamond_graph()
        dr = compute_dest_routing(g, g.index(4))
        secure_via_2 = secure_flags(g.n, [g.index(2), g.index(4)])
        tree_sec = compute_tree(dr, secure_via_2, secure_via_2)
        none = secure_flags(g.n, [])
        tree_plain = compute_tree(dr, none, none)
        # node 1 is insecure in both states: identical hash-based choice
        assert tree_sec.choice[g.index(1)] == tree_plain.choice[g.index(1)]

    def test_breaks_ties_flag_respected(self):
        g = diamond_graph()
        dr = compute_dest_routing(g, g.index(4))
        none = secure_flags(g.n, [])
        tree_plain = compute_tree(dr, none, none)
        hash_choice = int(tree_plain.choice[g.index(1)])
        other = g.index(2) if hash_choice == g.index(3) else g.index(3)
        # secure via the non-hash-preferred middle; node 1 secure but
        # does NOT apply SecP -> sticks with the hash choice
        secure = secure_flags(g.n, [g.index(1), other, g.index(4)])
        no_breaks = secure_flags(g.n, [])
        tree = compute_tree(dr, secure, no_breaks)
        assert tree.choice[g.index(1)] == hash_choice

    def test_path_secure_requires_every_hop(self):
        g = diamond_graph()
        dr = compute_dest_routing(g, g.index(4))
        # destination insecure -> nothing is secure
        secure = secure_flags(g.n, [g.index(1), g.index(2), g.index(3)])
        tree = compute_tree(dr, secure, secure)
        assert not tree.secure.any()

    def test_any_secure_candidate_flag(self):
        g = diamond_graph()
        dr = compute_dest_routing(g, g.index(4))
        secure = secure_flags(g.n, [g.index(2), g.index(4)])
        tree = compute_tree(dr, secure, secure)
        # node 1's candidate 2 has a secure chosen path (2, 4); node 2's
        # candidate is the (secure) destination itself
        assert tree.any_secure_candidate[g.index(1)]
        assert tree.any_secure_candidate[g.index(2)]
        # an insecure destination leaves no secure candidates anywhere
        insecure_dest = secure_flags(g.n, [g.index(1), g.index(2)])
        tree2 = compute_tree(dr, insecure_dest, insecure_dest)
        assert not tree2.any_secure_candidate.any()


class TestPathReconstruction:
    def test_path_from_source(self):
        g = diamond_graph()
        dr = compute_dest_routing(g, g.index(4))
        none = secure_flags(g.n, [])
        tree = compute_tree(dr, none, none)
        path = tree.path_from(g.index(1))
        assert path[0] == g.index(1)
        assert path[-1] == g.index(4)
        assert len(path) == 3

    def test_unreachable_path_empty(self):
        g = diamond_graph()
        g.add_as(99)
        dr = compute_dest_routing(g, g.index(4))
        none = secure_flags(g.n, [])
        tree = compute_tree(dr, none, none)
        assert tree.path_from(g.index(99)) == []


class TestSubtreeWeights:
    def test_diamond_weights(self):
        g = diamond_graph()
        g.set_weight(1, 5.0)
        dr = compute_dest_routing(g, g.index(4))
        none = secure_flags(g.n, [])
        tree = compute_tree(dr, none, none)
        w = subtree_weights(dr, tree, g.weights)
        chosen_mid = int(tree.choice[g.index(1)])
        other_mid = g.index(2) if chosen_mid == g.index(3) else g.index(3)
        # the chosen middle carries 1's weight plus the other mid's unit
        # traffic? no: the other mid routes directly to its customer 4.
        assert w[chosen_mid] == 5.0
        assert w[other_mid] == 0.0
        # the destination's subtree excludes itself but includes everyone else
        assert w[g.index(4)] == pytest.approx(5.0 + 1.0 + 1.0)

    def test_weights_exclude_self(self, small_graph, small_cache):
        dr = small_cache.ensure_arena().view(small_cache.dest_pos(11))
        none = np.zeros(small_graph.n, dtype=bool)
        tree = compute_tree(dr, none, none)
        w = subtree_weights(dr, tree, small_graph.weights)
        # total at the destination equals all reachable weight minus its own
        reachable = dr.order
        expected = float(small_graph.weights[reachable].sum()) - float(
            small_graph.weights[dr.dest]
        )
        assert w[dr.dest] == pytest.approx(expected)


class TestVectorisedVsScalar:
    @given(graphs_with_security())
    @settings(max_examples=60, deadline=None)
    def test_engines_agree(self, graph_and_secure):
        graph, secure_list = graph_and_secure
        secure = secure_flags(graph.n, secure_list)
        for dest in range(0, graph.n, max(1, graph.n // 4)):
            dr = compute_dest_routing(graph, dest)
            a = compute_tree(dr, secure, secure)
            b = compute_tree_scalar(dr, secure, secure)
            assert (a.choice == b.choice).all()
            assert (a.secure == b.secure).all()
            assert (a.any_secure_candidate == b.any_secure_candidate).all()
