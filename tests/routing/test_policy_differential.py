"""Differential tests pinning the policy layer to the reference.

Three tiers of guarantee, by how much convergence theory gives us:

- ``security_3rd`` (the default) is a *pure refactor*: structures built
  through :class:`~repro.routing.policy.RoutingPolicy` must be
  bit-identical to the pre-refactor scalar builder, and the scalar,
  vectorised and batched-arena kernels must all agree on it;
- ``security_2nd`` keeps LP first, so the fixpoint is unique and the
  batched fixpoint builder must match the scalar propagation exactly;
  so must ``sp_first``, which the same fixpoint builds with nobody
  secure (its structure does not move with the state);
- ``security_1st`` can admit multiple stable states (Lychev et al.,
  PAPERS.md), so its output is checked for *stability* — no node has a
  strictly better GR2-valid offer — rather than for exact equality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings

from repro.routing.arena import RoutingArena, compute_trees_batched
from repro.routing.policy import RouteClass, get_policy
from repro.routing.reference import ConvergenceError
from repro.routing.tree import compute_dest_routing

from tests.references import compute_tree, propagate_toward
from tests.strategies import graphs_with_security

_CUSTOMER = int(RouteClass.CUSTOMER)
_SELF = int(RouteClass.SELF)


def _route_class(graph, u: int, v: int) -> int:
    """Route class of a route ``u`` would learn from neighbor ``v``."""
    if v in graph.customers[u]:
        return int(RouteClass.CUSTOMER)
    if v in graph.peers[u]:
        return int(RouteClass.PEER)
    return int(RouteClass.PROVIDER)


def _neighbors(graph, u: int):
    return list(graph.customers[u]) + list(graph.peers[u]) + list(graph.providers[u])


def _assert_structures_identical(a, b, context) -> None:
    assert (a.cls == b.cls).all(), context
    assert (a.lengths == b.lengths).all(), context
    assert (a.order == b.order).all(), context
    assert (a.indptr == b.indptr).all(), context
    assert (a.cands == b.cands).all(), context


class TestDefaultPolicyIsPureRefactor:
    def test_structures_bit_identical(self, small_graph):
        pol = get_policy("security_3rd")
        for dest in range(0, small_graph.n, 17):
            base = compute_dest_routing(small_graph, dest)
            via_policy = pol.build_pools(small_graph, [dest]).view(0)
            _assert_structures_identical(base, via_policy, dest)
            assert via_policy.policy == "security_3rd"

    def test_alias_resolves_to_same_structures(self, small_graph):
        assert get_policy("gao-rexford") is get_policy("security_3rd")
        assert get_policy("default") is get_policy("security_3rd")

    def test_all_three_kernels_agree(self, small_graph):
        """Scalar tree, vectorised tree, and the batched arena kernel
        must produce identical choices on policy-built structures."""
        dests = list(range(0, small_graph.n, 11))
        pools = get_policy("security_3rd").build_pools(small_graph, dests)
        secure = np.zeros(small_graph.n, dtype=bool)
        secure[::3] = True
        arena = RoutingArena.build(small_graph.n, [pools], policy="security_3rd")
        bt = compute_trees_batched(arena, arena.all_slots(), secure, secure)
        for k, dr in enumerate(pools.views()):
            tree = compute_tree(dr, secure, secure)
            assert (bt.choice[k] == tree.choice).all(), dests[k]
            assert (bt.secure[k] == tree.secure).all(), dests[k]


def _assert_matches_propagate(graph_and_secure, policy_name: str) -> None:
    """The policy's built structures, resolved under the state, select
    what the scalar propagation selects: every label and every tree
    choice."""
    graph, secure_list = graph_and_secure
    node_secure = np.zeros(graph.n, dtype=bool)
    node_secure[secure_list] = True
    pol = get_policy(policy_name)
    dests = list(range(graph.n))
    routings = pol.build_pools(
        graph, dests, node_secure=node_secure, breaks_ties=node_secure
    ).views()
    for dest, dr in zip(dests, routings):
        try:
            cls, length, sec, _, hop = propagate_toward(
                graph, dest, node_secure, node_secure, pol
            )
        except ConvergenceError:  # pragma: no cover - LP-first converges
            assume(False)
        tree = compute_tree(dr, node_secure, node_secure)
        assert np.array_equal(dr.cls, cls), dest
        assert np.array_equal(dr.lengths, length), dest
        reached = cls != int(RouteClass.UNREACHABLE)
        assert (tree.choice[~reached] == -1).all(), dest
        reached[dest] = False
        assert np.array_equal(tree.choice[reached], hop[reached]), dest
        assert np.array_equal(tree.secure[reached], sec[reached]), dest


@given(graphs_with_security(max_nodes=12))
@settings(max_examples=25, deadline=None)
def test_security_2nd_matches_reference(graph_and_secure):
    """LP stays first, so the fixpoint is unique: batched Jacobi builder
    and the scalar propagation must agree on every label."""
    _assert_matches_propagate(graph_and_secure, "security_2nd")


@given(graphs_with_security(max_nodes=12))
@settings(max_examples=25, deadline=None)
def test_sp_first_matches_reference(graph_and_secure):
    """SP-first is built by the same Jacobi fixpoint, once, with nobody
    secure; resolved under any state it must still select what the
    scalar propagation selects under that state."""
    _assert_matches_propagate(graph_and_secure, "sp_first")


@given(graphs_with_security(max_nodes=12))
@settings(max_examples=25, deadline=None)
def test_security_1st_fixpoint_is_stable(graph_and_secure):
    """Every converged ``security_1st`` state must be *stable*: no node
    has a GR2-valid offer that strictly beats its selection on the
    ranked (SecP, LP, SP) key."""
    graph, secure_list = graph_and_secure
    node_secure = np.zeros(graph.n, dtype=bool)
    node_secure[secure_list] = True
    pol = get_policy("security_1st")
    dests = list(range(graph.n))
    try:
        routings = pol.build_pools(
            graph, dests, node_secure=node_secure, breaks_ties=node_secure
        ).views()
    except ConvergenceError:
        assume(False)  # oscillating instance: nothing to check
    for dest, dr in zip(dests, routings):
        tree = compute_tree(dr, node_secure, node_secure)
        for u in range(graph.n):
            if u == dest:
                continue
            applies = bool(node_secure[u])
            chosen = int(tree.choice[u])
            if chosen >= 0:
                selected = pol.rank_key(
                    route_class=int(dr.cls[u]), length=int(dr.lengths[u]),
                    secure=bool(tree.secure[chosen]), applies_secp=applies,
                )
            else:
                selected = None
            for v in _neighbors(graph, u):
                if v != dest and tree.choice[v] < 0:
                    continue  # v has no route to offer
                cls_v = _SELF if v == dest else int(dr.cls[v])
                if _route_class(graph, u, v) != int(RouteClass.PROVIDER) \
                        and cls_v not in (_CUSTOMER, _SELF):
                    continue  # GR2: v may not announce this route to u
                offered = pol.rank_key(
                    route_class=_route_class(graph, u, v),
                    length=int(dr.lengths[v]) + 1 if v != dest else 1,
                    secure=bool(node_secure[dest]) if v == dest
                    else bool(tree.secure[v]),
                    applies_secp=applies,
                )
                assert selected is not None, (dest, u, v)
                assert offered >= selected, (dest, u, v, offered, selected)


@pytest.mark.parametrize("policy", ["security_1st", "security_2nd"])
def test_state_dependent_builders_on_generated_topology(small_graph, policy):
    """Smoke at fixture scale: the fixpoint builder handles the 200-AS
    generated topology with a mixed security state, and its trees pass
    through the vectorised kernel."""
    pol = get_policy(policy)
    secure = np.zeros(small_graph.n, dtype=bool)
    secure[::4] = True
    dests = list(range(0, small_graph.n, 23))
    routings = pol.build_pools(
        small_graph, dests, node_secure=secure, breaks_ties=secure
    ).views()
    for dest, dr in zip(dests, routings):
        assert dr.policy == policy
        assert dr.cls[dest] == int(RouteClass.SELF)
        tree = compute_tree(dr, secure, secure)
        reachable = np.flatnonzero(dr.lengths > 0)
        assert (tree.choice[reachable] >= 0).all()
