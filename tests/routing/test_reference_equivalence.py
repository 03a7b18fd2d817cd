"""Property tests: the fast engine must match the scalar propagation.

:func:`repro.routing.reference.propagate` knows nothing about tiebreak
sets or Observation C.1 — it just sweeps every node's route labels to
convergence, one node and one offer at a time — so agreement here
validates the entire analytic pipeline (route classes, lengths,
tiebreak sets, SecP, and path-security propagation).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings

from repro.routing.policy import RouteClass
from repro.routing.tree import compute_dest_routing

from tests.references import compute_tree, propagate_toward
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
        cls, _, sec, _, hop = propagate_toward(graph, dest, node_secure, node_secure)

        for i in range(graph.n):
            if i == dest:
                continue
            if cls[i] == int(RouteClass.UNREACHABLE):
                assert tree.choice[i] == -1, (dest, i)
            else:
                assert tree.choice[i] == hop[i], (dest, i)
                assert bool(tree.secure[i]) == bool(sec[i]), (dest, i)


@given(graphs_with_security(max_nodes=14))
@settings(max_examples=30, deadline=None)
def test_selected_lengths_match_reference(graph_and_secure):
    graph, secure_list = graph_and_secure
    node_secure = np.zeros(graph.n, dtype=bool)
    node_secure[secure_list] = True
    for dest in range(0, graph.n, 2):
        dr = compute_dest_routing(graph, dest)
        cls, length, *_ = propagate_toward(graph, dest, node_secure, node_secure)
        assert np.array_equal(dr.cls, cls), dest
        assert np.array_equal(dr.lengths, length), dest
