"""Property tests: the fast engine must match the fixpoint simulator.

The reference simulator knows nothing about tiebreak sets or
Observation C.1 — it just runs BGP to convergence with full paths — so
agreement here validates the entire analytic pipeline (route classes,
lengths, tiebreak sets, SecP, and path-security propagation).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings

from repro.routing.reference import secure_flags_from_selection, simulate_bgp
from repro.routing.tree import compute_dest_routing

from tests.references import compute_tree
from tests.strategies import graphs_with_security


@given(graphs_with_security(max_nodes=14))
@settings(max_examples=50, deadline=None)
def test_fast_tree_matches_reference(graph_and_secure):
    graph, secure_list = graph_and_secure
    node_secure = np.zeros(graph.n, dtype=bool)
    node_secure[secure_list] = True

    for dest in range(graph.n):
        dr = compute_dest_routing(graph, dest)
        tree = compute_tree(dr, node_secure, node_secure)
        selection = simulate_bgp(graph, dest, node_secure, node_secure)
        sec = secure_flags_from_selection(selection, node_secure, graph.n)

        for i in range(graph.n):
            if i == dest:
                continue
            route = selection.get(i)
            if route is None:
                assert tree.choice[i] == -1, (dest, i)
            else:
                assert tree.choice[i] == route.path[1], (dest, i, route.path)
                assert bool(tree.secure[i]) == bool(sec[i]), (dest, i)


@given(graphs_with_security(max_nodes=14))
@settings(max_examples=30, deadline=None)
def test_selected_lengths_match_reference(graph_and_secure):
    graph, secure_list = graph_and_secure
    node_secure = np.zeros(graph.n, dtype=bool)
    node_secure[secure_list] = True
    for dest in range(0, graph.n, 2):
        dr = compute_dest_routing(graph, dest)
        selection = simulate_bgp(graph, dest, node_secure, node_secure)
        for i in range(graph.n):
            if i == dest:
                continue
            route = selection.get(i)
            if route is None:
                assert dr.lengths[i] == -1
            else:
                assert dr.lengths[i] == route.length
