"""Property tests: GR2 export invariants hold under *every* policy.

Whatever the preference ranking, export is governed by GR2: an AS
announces a route learned from neighbor ``c`` to neighbor ``a`` iff at
least one of ``a``, ``c`` is its customer.  Two consequences must hold
for every structure any registered policy builds:

- **no valley-free violations**: a node routing via a peer or provider
  must be using a route that its next hop learned from a customer (or
  the next hop's own prefix);
- **customer routes are always exported**: a node with a customer (or
  self) route makes *every* neighbor reachable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings

from repro.routing.policy import RouteClass, available_policies, get_policy
from repro.routing.reference import ConvergenceError

from tests.strategies import graphs_with_security

_CUSTOMER = int(RouteClass.CUSTOMER)
_SELF = int(RouteClass.SELF)
_UNREACHABLE = int(RouteClass.UNREACHABLE)


def _build_all(graph, policy, node_secure):
    """Structures for every destination (skip oscillating instances)."""
    try:
        return policy.build_pools(
            graph, list(range(graph.n)),
            node_secure=node_secure, breaks_ties=node_secure,
        ).views()
    except ConvergenceError:
        assume(False)


def _check_gr2(graph, dr, dest) -> None:
    n = graph.n
    for u in range(n):
        if u == dest or dr.cls[u] == _UNREACHABLE:
            continue
        for v in dr.tiebreak_set(u):
            v = int(v)
            cls_v = _SELF if v == dest else int(dr.cls[v])
            # the candidate must actually be a neighbor, with the class
            # the structure claims
            if dr.cls[u] == _CUSTOMER:
                assert v in graph.customers[u], (dest, u, v)
            elif dr.cls[u] == int(RouteClass.PEER):
                assert v in graph.peers[u], (dest, u, v)
            else:
                assert v in graph.providers[u], (dest, u, v)
            # GR2 at the announcer: v may send this route to u only if
            # u is v's customer or the route came from v's customer
            if v not in graph.providers[u]:  # u is not v's customer
                assert cls_v in (_CUSTOMER, _SELF), (
                    "valley-free violation", dest, u, v, cls_v,
                )


def _check_customer_routes_exported(graph, dr, dest) -> None:
    for v in range(graph.n):
        cls_v = _SELF if v == dest else int(dr.cls[v])
        if cls_v not in (_CUSTOMER, _SELF):
            continue
        for u in (
            list(graph.customers[v]) + list(graph.peers[v]) + list(graph.providers[v])
        ):
            if u == dest:
                continue
            assert dr.cls[u] != _UNREACHABLE, (
                "customer route not exported", dest, v, u,
            )


@pytest.mark.parametrize("policy_name", available_policies())
@given(graphs_with_security(max_nodes=12))
@settings(max_examples=20, deadline=None)
def test_gr2_invariants(policy_name, graph_and_secure):
    graph, secure_list = graph_and_secure
    node_secure = np.zeros(graph.n, dtype=bool)
    node_secure[secure_list] = True
    policy = get_policy(policy_name)
    routings = _build_all(graph, policy, node_secure)
    for dest, dr in enumerate(routings):
        _check_gr2(graph, dr, dest)
        _check_customer_routes_exported(graph, dr, dest)


@pytest.mark.parametrize("policy_name", available_policies())
@given(graphs_with_security(max_nodes=12))
@settings(max_examples=15, deadline=None)
def test_lengths_consistent_with_candidates(policy_name, graph_and_secure):
    """Tiebreak candidates sit exactly one level below their node, so
    the level-synchronous kernels are valid for every policy."""
    graph, secure_list = graph_and_secure
    node_secure = np.zeros(graph.n, dtype=bool)
    node_secure[secure_list] = True
    policy = get_policy(policy_name)
    routings = _build_all(graph, policy, node_secure)
    for dest, dr in enumerate(routings):
        for u in range(graph.n):
            if u == dest or dr.cls[u] == _UNREACHABLE:
                continue
            assert dr.lengths[u] >= 1, (dest, u)
            for v in dr.tiebreak_set(u):
                v = int(v)
                length_v = 0 if v == dest else int(dr.lengths[v])
                assert length_v == dr.lengths[u] - 1, (dest, u, v)
