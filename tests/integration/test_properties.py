"""Cross-cutting hypothesis properties over random AS graphs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import DeploymentState, StateDeriver
from repro.routing.tree import compute_dest_routing
from repro.topology.serialization import dumps_as_rel, loads_as_rel

from tests.references import compute_tree, subtree_weights
from tests.strategies import as_graphs, graphs_with_security


@given(as_graphs(with_cps=True))
@settings(max_examples=60, deadline=None)
def test_as_rel_roundtrip(graph):
    """Serialisation preserves edges, relationships and CP markers."""
    restored = loads_as_rel(dumps_as_rel(graph))
    assert sorted(restored.edges()) == sorted(graph.edges())
    assert restored.cp_asns & set(restored.asns) == graph.cp_asns & set(graph.asns)


@given(graphs_with_security())
@settings(max_examples=50, deadline=None)
def test_subtree_weight_conservation(graph_and_secure):
    """W[v] equals the sum of children subtrees plus their own weights,
    and W[dest] equals all reachable weight except the destination's."""
    graph, secure_list = graph_and_secure
    secure = np.zeros(graph.n, dtype=bool)
    secure[secure_list] = True
    for dest in range(0, graph.n, max(1, graph.n // 3)):
        dr = compute_dest_routing(graph, dest)
        tree = compute_tree(dr, secure, secure)
        w = subtree_weights(dr, tree, graph.weights)

        reachable = [int(v) for v in dr.order if v != dest]
        expected_root = sum(float(graph.weights[v]) for v in reachable)
        assert w[dest] == pytest.approx(expected_root)

        children: dict[int, list[int]] = {}
        for v in reachable:
            children.setdefault(int(tree.choice[v]), []).append(v)
        for v in dr.order:
            v = int(v)
            expected = sum(w[c] + float(graph.weights[c]) for c in children.get(v, []))
            assert w[v] == pytest.approx(expected)


@given(graphs_with_security(), st.integers(0, 10 ** 6))
@settings(max_examples=50, deadline=None)
def test_security_is_monotone_in_deployment(graph_and_secure, extra_seed):
    """Making one more node secure never shrinks the set of secure
    (source, destination) pairs — the engine of Theorem H.1's Case III."""
    graph, secure_list = graph_and_secure
    secure = np.zeros(graph.n, dtype=bool)
    secure[secure_list] = True
    insecure_nodes = np.flatnonzero(~secure)
    if not len(insecure_nodes):
        return
    newly = int(insecure_nodes[extra_seed % len(insecure_nodes)])
    more = secure.copy()
    more[newly] = True

    for dest in range(0, graph.n, max(1, graph.n // 3)):
        dr = compute_dest_routing(graph, dest)
        before = compute_tree(dr, secure, secure)
        after = compute_tree(dr, more, more)
        assert (after.secure | ~before.secure).all(), (
            f"dest {dest}: securing node {newly} broke a secure pair"
        )


@given(as_graphs(min_nodes=5), st.data())
@settings(max_examples=40, deadline=None)
def test_simplex_stub_derivation_monotone(graph, data):
    """More deployers can only secure more nodes."""
    deriver = StateDeriver(graph)
    candidates = list(range(graph.n))
    some = data.draw(
        st.lists(st.sampled_from(candidates), max_size=graph.n, unique=True)
    )
    fewer = DeploymentState(frozenset(some[: len(some) // 2]), frozenset())
    more = DeploymentState(frozenset(some), frozenset())
    sec_fewer = deriver.node_secure(fewer)
    sec_more = deriver.node_secure(more)
    assert (sec_more | ~sec_fewer).all()


@given(graphs_with_security())
@settings(max_examples=30, deadline=None)
def test_tree_has_no_cycles(graph_and_secure):
    """Every resolved routing tree is acyclic with paths ending at the
    destination."""
    graph, secure_list = graph_and_secure
    secure = np.zeros(graph.n, dtype=bool)
    secure[secure_list] = True
    for dest in range(0, graph.n, max(1, graph.n // 4)):
        dr = compute_dest_routing(graph, dest)
        tree = compute_tree(dr, secure, secure)
        for src in dr.order:
            path = tree.path_from(int(src))  # raises on a cycle
            if path:
                assert path[-1] == dest
