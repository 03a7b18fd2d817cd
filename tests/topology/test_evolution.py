"""Tests for topology evolution across deployment epochs (§8.4)."""

from __future__ import annotations

import pytest

from repro.core.config import SimulationConfig
from repro.topology.evolution import (
    EvolutionConfig,
    EvolvingDeployment,
    evolve_graph,
)
from repro.topology.generator import generate_topology
from repro.topology.relationships import ASRole
from repro.topology.traffic import apply_traffic_model


@pytest.fixture(scope="module")
def base():
    return generate_topology(n=120, seed=41)


class TestEvolveGraph:
    def test_original_untouched(self, base):
        n_before = base.graph.n
        evolve_graph(base.graph, EvolutionConfig(new_stubs=5), seed=1)
        assert base.graph.n == n_before

    def test_traffic_weights_survive_evolution(self):
        graph = generate_topology(n=120, seed=41).graph
        w_cp = apply_traffic_model(graph, 0.10)
        assert w_cp > 1.0
        before = dict(zip(graph.asns, graph.weights.tolist()))
        out = evolve_graph(
            graph, EvolutionConfig(new_stubs=6, new_peerings=4, rehomed_stubs=4), seed=3
        )
        after = dict(zip(out.asns, out.weights.tolist()))
        assert {asn: after[asn] for asn in before} == before
        assert {after[asn] for asn in set(after) - set(before)} == {1.0}
        assert [after[asn] for asn in graph.cp_asns] == [w_cp] * len(graph.cp_asns)

    def test_new_stubs_added(self, base):
        out = evolve_graph(base.graph, EvolutionConfig(new_stubs=7), seed=1)
        assert out.n == base.graph.n + 7
        new_asns = set(out.asns) - set(base.graph.asns)
        for asn in new_asns:
            assert out.role(asn) is ASRole.STUB
            assert out.providers_of(asn)

    def test_gr1_preserved(self, base):
        out = evolve_graph(
            base.graph,
            EvolutionConfig(new_stubs=10, new_peerings=5, rehomed_stubs=3),
            seed=2,
        )
        out.validate()

    def test_rehoming_never_disconnects(self, base):
        out = evolve_graph(
            base.graph, EvolutionConfig(new_stubs=0, rehomed_stubs=10), seed=3
        )
        for i in out.stub_indices:
            assert out.providers[i], f"stub {out.asn(i)} disconnected"

    def test_secure_attraction_biases_new_stubs(self, base):
        secure = [base.tier1_asns[0]]
        cfg = EvolutionConfig(new_stubs=40, secure_attraction=1.0)
        out = evolve_graph(base.graph, cfg, secure_provider_asns=secure, seed=4)
        new_asns = sorted(set(out.asns) - set(base.graph.asns))
        with_secure = sum(
            1 for asn in new_asns if secure[0] in out.providers_of(asn)
        )
        assert with_secure == len(new_asns)

    def test_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(secure_attraction=1.5)
        with pytest.raises(ValueError):
            EvolutionConfig(new_stubs=-1)


class TestEvolvingDeployment:
    def test_epochs_grow_and_deploy(self, base):
        driver = EvolvingDeployment(
            base.graph.copy(),
            early_adopter_asns=base.tier1_asns[:3],
            evolution=EvolutionConfig(new_stubs=6, new_peerings=2),
            simulation_config=SimulationConfig(theta=0.05, max_rounds=20),
            seed=7,
        )
        records = driver.run(epochs=3)
        assert len(records) == 3
        sizes = [r.num_ases for r in records]
        assert sizes == sorted(sizes)
        assert sizes[-1] > sizes[0]
        # deployers persist across epochs
        assert records[0].deployer_asns <= records[-1].deployer_asns
