"""Unit tests for the annotated AS graph."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.topology.errors import (
    DuplicateASError,
    DuplicateEdgeError,
    RelationshipCycleError,
    UnknownASError,
)
from repro.topology.generator import generate_topology
from repro.topology.graph import ASGraph
from repro.topology.relationships import ASRole, Relationship


def build_triangle() -> ASGraph:
    g = ASGraph()
    for asn in (1, 2, 3):
        g.add_as(asn)
    g.add_customer_provider(provider=1, customer=2)
    g.add_customer_provider(provider=1, customer=3)
    g.add_peering(2, 3)
    return g


class TestConstruction:
    def test_add_as_returns_dense_indices(self):
        g = ASGraph()
        assert g.add_as(100) == 0
        assert g.add_as(7) == 1
        assert g.index(100) == 0
        assert g.asn(1) == 7

    def test_duplicate_as_rejected(self):
        g = ASGraph()
        g.add_as(1)
        with pytest.raises(DuplicateASError):
            g.add_as(1)

    def test_ensure_as_is_idempotent(self):
        g = ASGraph()
        assert g.ensure_as(5) == g.ensure_as(5) == 0
        assert g.n == 1

    def test_edges_require_known_ases(self):
        g = ASGraph()
        g.add_as(1)
        with pytest.raises(UnknownASError):
            g.add_customer_provider(provider=1, customer=2)

    def test_duplicate_edge_rejected(self):
        g = build_triangle()
        with pytest.raises(DuplicateEdgeError):
            g.add_peering(1, 2)
        with pytest.raises(DuplicateEdgeError):
            g.add_customer_provider(provider=2, customer=1)

    def test_self_loop_rejected(self):
        g = ASGraph()
        g.add_as(1)
        with pytest.raises(DuplicateEdgeError):
            g.add_peering(1, 1)

    def test_remove_edge(self):
        g = build_triangle()
        g.remove_edge(2, 3)
        assert not g.has_edge(2, 3)
        assert g.peers_of(2) == []
        g.add_peering(2, 3)  # can re-add after removal
        assert g.has_edge(2, 3)

    def test_remove_missing_edge_is_key_error(self):
        g = build_triangle()
        g.add_as(4)
        with pytest.raises(KeyError, match="no edge between AS 2 and AS 4") as exc:
            g.remove_edge(2, 4)
        assert not isinstance(exc.value, UnknownASError)
        assert g.degree(2) == 2 and g.degree(4) == 0

    def test_remove_edge_of_missing_as_is_unknown_as(self):
        g = build_triangle()
        with pytest.raises(UnknownASError, match="AS 9"):
            g.remove_edge(2, 9)
        with pytest.raises(UnknownASError, match="AS 9"):
            g.remove_edge(9, 2)


class TestAccessors:
    def test_relationship_views(self):
        g = build_triangle()
        assert g.relationship(1, 2) is Relationship.CUSTOMER
        assert g.relationship(2, 1) is Relationship.PROVIDER
        assert g.relationship(2, 3) is Relationship.PEER
        with pytest.raises(KeyError):
            g.relationship(2, 2)

    def test_neighbor_lists(self):
        g = build_triangle()
        assert g.customers_of(1) == [2, 3]
        assert g.providers_of(2) == [1]
        assert g.peers_of(3) == [2]

    def test_degree(self):
        g = build_triangle()
        assert g.degree(1) == 2
        assert g.degree(2) == 2

    def test_edge_iteration_counts(self):
        g = build_triangle()
        edges = list(g.edges())
        assert len(edges) == 3
        assert g.num_customer_provider_edges() == 2
        assert g.num_peering_edges() == 1

    def test_contains_and_len(self):
        g = build_triangle()
        assert 1 in g and 9 not in g
        assert len(g) == 3


class TestRolesAndWeights:
    def test_roles_match_the_per_as_rule(self):
        top = generate_topology(n=300, seed=3)
        g = top.graph
        g.set_content_providers(top.cp_asns + [10**9])  # an absent CP is ignored
        expected = [
            ASRole.CP if asn in top.cp_asns
            else ASRole.ISP if g.customers[i] else ASRole.STUB
            for i, asn in enumerate(g.asns)
        ]
        assert g.roles.dtype == np.int8
        assert g.roles.tolist() == [int(r) for r in expected]

    def test_role_classification(self):
        g = ASGraph(cp_asns=[3])
        for asn in (1, 2, 3):
            g.add_as(asn)
        g.add_customer_provider(provider=1, customer=2)
        g.add_customer_provider(provider=1, customer=3)
        assert g.role(1) is ASRole.ISP
        assert g.role(2) is ASRole.STUB
        assert g.role(3) is ASRole.CP

    def test_roles_recomputed_after_mutation(self):
        g = ASGraph()
        g.add_as(1)
        g.add_as(2)
        assert g.role(1) is ASRole.STUB
        g.add_customer_provider(provider=1, customer=2)
        assert g.role(1) is ASRole.ISP

    def test_weights_default_unit(self):
        g = build_triangle()
        assert np.allclose(g.weights, 1.0)

    def test_set_weight(self):
        g = build_triangle()
        g.set_weight(2, 5.5)
        assert g.weights[g.index(2)] == 5.5

    def test_edge_edits_keep_assigned_weights(self):
        g = build_triangle()
        g.set_weight(2, 5.5)
        g.add_as(4)
        assert g.weights.tolist() == [1.0, 5.5, 1.0, 1.0]   # the new AS weighs one
        g.add_customer_provider(provider=1, customer=4)
        assert g.role(1) is ASRole.ISP
        g.add_peering(2, 4)
        g.remove_edge(1, 4)
        assert g.weights.tolist() == [1.0, 5.5, 1.0, 1.0]
        assert g.copy().weights.tolist() == [1.0, 5.5, 1.0, 1.0]

    def test_negative_weight_rejected(self):
        g = build_triangle()
        with pytest.raises(ValueError):
            g.set_weight(2, -1.0)

    def test_set_content_providers(self):
        g = build_triangle()
        g.set_content_providers([2])
        assert g.role(2) is ASRole.CP


class TestValidation:
    def test_valid_graph_passes(self):
        build_triangle().validate()

    def test_provider_cycle_detected(self):
        g = ASGraph()
        for asn in (1, 2, 3):
            g.add_as(asn)
        g.add_customer_provider(provider=1, customer=2)
        g.add_customer_provider(provider=2, customer=3)
        g.add_customer_provider(provider=3, customer=1)
        with pytest.raises(RelationshipCycleError) as exc:
            g.validate()
        assert len(exc.value.cycle) >= 3

    def test_copy_is_independent(self):
        g = build_triangle()
        g2 = g.copy()
        g2.add_as(99)
        g2.add_customer_provider(provider=1, customer=99)
        assert 99 not in g
        assert g.degree(1) == 2
        assert g2.degree(1) == 3


def _graph(asns, provider_customer=()):
    g = ASGraph()
    for asn in asns:
        g.add_as(asn)
    for provider, customer in provider_customer:
        g.add_customer_provider(provider=provider, customer=customer)
    return g


def _wire(g: ASGraph, provider: int, customer: int) -> None:
    """Write a customer->provider link straight into the adjacency lists.

    The edge set refuses a second edge between two ASes and a self-loop,
    but :meth:`ASGraph.validate` reads the lists, so it must still name
    such a cycle.
    """
    p, c = g.index(provider), g.index(customer)
    g.customers[p].append(c)
    g.providers[c].append(p)


def _dfs_cycle(g: ASGraph):
    """The first provider cycle of a recursive search in index order."""
    state = [0] * g.n  # 0 unseen, 1 on the path, 2 done
    path: list[int] = []

    def visit(u):
        state[u] = 1
        path.append(u)
        for v in g.providers[u]:
            if state[v] == 1:
                return path[path.index(v):] + [v]
            if state[v] == 0:
                found = visit(v)
                if found:
                    return found
        state[u] = 2
        path.pop()
        return None

    for start in range(g.n):
        if state[start] == 0:
            found = visit(start)
            if found:
                return [g.asn(i) for i in found]
    return None


class TestCycleReport:
    """``validate`` names the cycle a depth-first search in index order
    finds first: ``preflight`` drops that cycle's closing edge, so which
    cycle is named decides which edge a repair removes."""

    def _cycle(self, g):
        with pytest.raises(RelationshipCycleError) as exc:
            g.validate()
        return exc.value.cycle

    def test_two_cycle(self):
        g = _graph((1, 2, 3), [(3, 1)])
        _wire(g, 1, 2)
        _wire(g, 2, 1)
        assert self._cycle(g) == [1, 2, 1]

    def test_two_interleaved_cycles(self):
        g = _graph(range(1, 7), [
            (3, 1), (5, 3), (1, 5), (4, 2), (6, 4), (2, 6), (4, 3), (1, 6),
        ])
        assert self._cycle(g) == [1, 3, 5, 1]

    def test_cycle_closed_through_the_last_index(self):
        g = _graph(range(1, 8), [
            (1, 2), (1, 3), (2, 4), (6, 5), (7, 6), (5, 7), (4, 7),
        ])
        assert self._cycle(g) == [5, 6, 7, 5]

    def test_cycle_reachable_only_from_the_last_index(self):
        g = _graph(range(1, 5), [(1, 2), (2, 3)])
        _wire(g, 4, 4)
        assert self._cycle(g) == [4, 4]

    def test_peel_agrees_with_a_depth_first_search(self):
        rng = random.Random(5)
        cyclic = 0
        for _ in range(300):
            n = rng.randrange(2, 9)
            g = _graph(range(1, n + 1))
            for _ in range(rng.randrange(0, 2 * n)):
                _wire(g, rng.randrange(1, n + 1), rng.randrange(1, n + 1))
            expected = _dfs_cycle(g)
            if expected is None:
                g.validate()
            else:
                cyclic += 1
                assert self._cycle(g) == expected
        assert 50 < cyclic < 250  # both outcomes are exercised

    def test_acyclic_deep_chain_passes(self):
        g = _graph(range(1, 401), [(a, a + 1) for a in range(1, 400)])
        g.validate()
        g.add_customer_provider(provider=400, customer=1)
        assert self._cycle(g) == [1] + list(range(400, 1, -1)) + [1]
