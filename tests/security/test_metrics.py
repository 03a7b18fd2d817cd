"""Tests for attack-impact metrics over deployment states."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.state import DeploymentState, StateDeriver
from repro.security.metrics import (
    end_state_everyone_secure,
    impact_for_state,
    sample_attack_impact,
    sample_pairs,
)
from repro.topology.generator import generate_topology
from repro.topology.relationships import ASRole


@pytest.fixture(scope="module")
def world():
    top = generate_topology(n=200, seed=31)
    deriver = StateDeriver(top.graph, stub_breaks_ties=True)
    return top.graph, deriver


class TestSampling:
    def test_deterministic_given_seed(self, world):
        g, deriver = world
        none = np.zeros(g.n, dtype=bool)
        a = sample_attack_impact(g, none, none, samples=5, seed=7)
        b = sample_attack_impact(g, none, none, samples=5, seed=7)
        assert a == b
        assert sample_pairs(g, samples=5, seed=7) == sample_pairs(g, samples=5, seed=7)

    def test_sample_count(self, world):
        g, _ = world
        none = np.zeros(g.n, dtype=bool)
        imp = sample_attack_impact(g, none, none, samples=6, seed=1)
        assert imp.samples == 6
        assert len(sample_pairs(g, samples=6, seed=1)) == 6

    def test_insecure_world_impact_is_large(self, world):
        """§2.2.1: a random attacker fools about half the Internet."""
        g, _ = world
        none = np.zeros(g.n, dtype=bool)
        imp = sample_attack_impact(g, none, none, samples=10, seed=3)
        assert imp.mean_fraction_fooled > 0.2

    def test_pools_respected(self, world):
        g, _ = world
        none = np.zeros(g.n, dtype=bool)
        imp = sample_attack_impact(
            g, none, none, samples=4, seed=2,
            attacker_pool=[0], victim_pool=[5, 6],
        )
        assert imp.samples == 4
        pairs = sample_pairs(g, samples=4, seed=2, attacker_pool=[0], victim_pool=[5, 6])
        for victim, attacker in pairs:
            assert attacker == 0
            assert victim in (5, 6)


class TestEndState:
    def test_end_state_marks_everyone(self, world):
        g, deriver = world
        state = end_state_everyone_secure(g)
        secure = deriver.node_secure(state)
        assert secure.all()
        # stubs are simplex-secure, not deliberate deployers
        for i in range(g.n):
            if g.roles[i] == int(ASRole.STUB):
                assert i not in state.deployers

    def test_end_state_nearly_immune_with_filtering(self, world):
        """§2.2.1: the only vector left is the attacker's own stubs."""
        g, deriver = world
        state = end_state_everyone_secure(g)
        imp = impact_for_state(
            g, deriver, state, samples=10, seed=5, drop_unvalidated=True
        )
        assert imp.mean_fraction_fooled < 0.05

    def test_a_compiled_graph_passed_in_changes_no_impact(self, world):
        g, deriver = world
        for state in (DeploymentState(frozenset(), frozenset()), end_state_everyone_secure(g)):
            secure = deriver.node_secure(state)
            breaks = deriver.breaks_ties(secure)
            built = sample_attack_impact(g, secure, breaks, samples=10, seed=5)
            assert sample_attack_impact(
                g, secure, breaks, samples=10, seed=5, compiled=deriver.compiled
            ) == built
            assert impact_for_state(g, deriver, state, samples=10, seed=5) == built

    def test_deployment_reduces_impact(self, world):
        """More deployment, less attack surface (tie-break mode)."""
        g, deriver = world
        none_state = DeploymentState(frozenset(), frozenset())
        imp0 = impact_for_state(g, deriver, none_state, samples=10, seed=5)
        imp1 = impact_for_state(
            g, deriver, end_state_everyone_secure(g), samples=10, seed=5
        )
        assert imp1.mean_fraction_fooled <= imp0.mean_fraction_fooled + 0.05
