"""Tests for deployment state and simplex-stub derivation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import UtilityModel
from repro.core.engine import compute_round_data
from repro.core.state import DeploymentState, StateDeriver
from repro.routing.cache import RoutingCache
from repro.topology.graph import ASGraph

from tests.strategies import as_graphs


@pytest.fixture()
def star_graph() -> ASGraph:
    """ISPs 1 and 2 share multihomed stub 10; 1 also owns stub 11."""
    g = ASGraph(cp_asns=[5])
    for asn in (1, 2, 5, 10, 11):
        g.add_as(asn)
    g.add_customer_provider(provider=1, customer=10)
    g.add_customer_provider(provider=2, customer=10)
    g.add_customer_provider(provider=1, customer=11)
    g.add_customer_provider(provider=1, customer=5)
    return g


class TestDeploymentState:
    def test_initial_state(self):
        s = DeploymentState.initial([3, 4])
        assert s.deployers == {3, 4}
        assert s.early_adopters == {3, 4}

    def test_with_flips(self):
        s = DeploymentState.initial([1])
        s2 = s.with_flips(turn_on=[2, 3])
        assert s2.deployers == {1, 2, 3}
        s3 = s2.with_flips(turn_off=[2])
        assert s3.deployers == {1, 3}

    def test_early_adopters_pinned(self):
        s = DeploymentState.initial([1]).with_flips(turn_off=[1])
        assert 1 in s.deployers

    def test_immutability(self):
        s = DeploymentState.initial([1])
        s.with_flips(turn_on=[9])
        assert s.deployers == {1}

    def test_is_deployer(self):
        s = DeploymentState.initial([1])
        assert s.is_deployer(1)
        assert not s.is_deployer(2)


class TestStateDeriver:
    def test_stub_secured_by_any_provider(self, star_graph):
        d = StateDeriver(star_graph)
        state = DeploymentState.initial([star_graph.index(2)])
        secure = d.node_secure(state)
        assert secure[star_graph.index(10)]       # multihomed: 2 secures it
        assert not secure[star_graph.index(11)]   # 1 is insecure

    def test_cp_not_secured_by_provider(self, star_graph):
        """Simplex upgrades apply to stubs only; CPs need to be adopters."""
        d = StateDeriver(star_graph)
        state = DeploymentState.initial([star_graph.index(1)])
        secure = d.node_secure(state)
        assert not secure[star_graph.index(5)]

    def test_early_adopter_stub_secure_alone(self, star_graph):
        d = StateDeriver(star_graph)
        state = DeploymentState.initial([star_graph.index(11)])
        assert d.node_secure(state)[star_graph.index(11)]

    def test_empty_state_all_insecure(self, star_graph):
        d = StateDeriver(star_graph)
        state = DeploymentState(frozenset(), frozenset())
        assert not d.node_secure(state).any()

    def test_breaks_ties_stub_policy(self, star_graph):
        state = DeploymentState.initial([star_graph.index(1)])
        with_stub = StateDeriver(star_graph, stub_breaks_ties=True)
        without = StateDeriver(star_graph, stub_breaks_ties=False)
        sec = with_stub.node_secure(state)
        assert with_stub.breaks_ties(sec)[star_graph.index(10)]
        assert not without.breaks_ties(without.node_secure(state))[star_graph.index(10)]
        # ISPs always break ties when secure
        assert without.breaks_ties(sec)[star_graph.index(1)]

    def test_newly_secured_stubs(self, star_graph):
        d = StateDeriver(star_graph)
        state = DeploymentState.initial([star_graph.index(2)])
        new = d.newly_secured_stubs(state, star_graph.index(1))
        assert new == [star_graph.index(11)]  # 10 already secure via 2

    def test_orphaned_stubs(self, star_graph):
        d = StateDeriver(star_graph)
        i1, i2 = star_graph.index(1), star_graph.index(2)
        state = DeploymentState(frozenset({i1, i2}), frozenset())
        # turning 1 off orphans 11 but not the multihomed 10
        assert d.orphaned_stubs(state, i1) == [star_graph.index(11)]
        assert d.orphaned_stubs(state, i2) == []

    def test_orphaned_stubs_for_non_deployer(self, star_graph):
        d = StateDeriver(star_graph)
        state = DeploymentState(frozenset(), frozenset())
        assert d.orphaned_stubs(state, star_graph.index(1)) == []


@st.composite
def graphs_with_states(draw: st.DrawFn) -> tuple[ASGraph, DeploymentState]:
    """A random GR1 graph and a random state over *any* of its nodes.

    Deployers are drawn from every role, so stubs deploy on their own
    (early-adopter stubs) and ISPs deploy with and without being pinned.
    """
    graph = draw(as_graphs(min_nodes=4, max_nodes=14, with_cps=True))
    deployers = draw(
        st.lists(st.integers(0, graph.n - 1), max_size=graph.n, unique=True)
    )
    early = [d for d in deployers if draw(st.booleans())]
    return graph, DeploymentState(frozenset(deployers), frozenset(early))


def _reference_node_secure(graph: ASGraph, state: DeploymentState) -> np.ndarray:
    """§2.3 read literally: deployers, plus stubs with a deploying provider."""
    secure = np.zeros(graph.n, dtype=bool)
    for node in range(graph.n):
        is_stub = not graph.customers[node] and graph.asn(node) not in graph.cp_asns
        secure[node] = node in state.deployers or (
            is_stub and any(p in state.deployers for p in graph.providers[node])
        )
    return secure


class TestRoundScopedFlipSets:
    """The O(deg) flip set read from round data vs re-deriving the state."""

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_states(), st.booleans())
    def test_flip_set_equals_state_based_reference(self, graph_state, stub_breaks):
        graph, state = graph_state
        cache = RoutingCache(graph)
        deriver = StateDeriver(graph, stub_breaks_ties=stub_breaks, compiled=cache.compiled)
        rd = compute_round_data(cache, deriver, state, UtilityModel.OUTGOING)
        np.testing.assert_array_equal(rd.node_secure, _reference_node_secure(graph, state))
        for node in range(graph.n):
            providers = [p for p in graph.providers[node] if p in state.deployers]
            assert rd.deploying_providers[node] == (
                len(providers) if deriver.is_stub[node] else 0
            )

        for isp in range(graph.n):
            for turning_on in (True, False):
                after = (
                    state.with_flips(turn_on=[isp])
                    if turning_on
                    else state.with_flips(turn_off=[isp])
                )
                secure_after = _reference_node_secure(graph, after)
                moved = set(np.flatnonzero(secure_after != rd.node_secure).tolist())

                flips, node_secure_new, breaks_new = rd.flipped(deriver, isp, turning_on)
                assert list(flips)[0] == isp
                assert set(flips.values()) == {turning_on}
                stubs = list(flips)[1:]
                assert set(stubs) == moved - {isp}, (isp, turning_on)
                # in the order stubs_of yields them
                order = deriver.stubs_of(isp).tolist()
                assert stubs == [s for s in order if s in moved]
                public = (
                    deriver.newly_secured_stubs(state, isp)
                    if turning_on
                    else deriver.orphaned_stubs(state, isp)
                )
                assert public == stubs
                if deriver.is_isp[isp] and after.is_deployer(isp) == turning_on:
                    # (only ISPs decide, and a pinned early adopter
                    # cannot really turn off)
                    np.testing.assert_array_equal(node_secure_new, secure_after)
                    np.testing.assert_array_equal(
                        breaks_new, deriver.breaks_ties(secure_after)
                    )
