"""Tests for the deployment game loop."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core import dynamics
from repro.core.config import SimulationConfig, UtilityModel
from repro.core.dynamics import DeploymentSimulation, Outcome, run_deployment
from repro.core.state import StateDeriver
from repro.gadgets.diamond import build_diamond
from repro.topology.generator import generate_topology
from repro.topology.traffic import apply_traffic_model


@pytest.fixture(scope="module")
def sim_graph():
    top = generate_topology(n=250, seed=17)
    apply_traffic_model(top.graph, 0.10)
    return top


class TestTermination:
    def test_reaches_stable_state_outgoing(self, sim_graph):
        from repro.core.adopters import cps_plus_top_isps

        result = run_deployment(
            sim_graph.graph,
            cps_plus_top_isps(sim_graph.graph, 3),
            SimulationConfig(theta=0.05),
        )
        assert result.outcome is Outcome.STABLE
        # last round is quiet by definition of stability
        assert result.rounds[-1].turned_on == []
        assert result.rounds[-1].turned_off == []

    def test_no_adopters_no_theta_zero_progress(self, sim_graph):
        result = run_deployment(
            sim_graph.graph, [], SimulationConfig(theta=0.30)
        )
        assert result.outcome is Outcome.STABLE
        assert not result.final_node_secure.any()

    def test_max_rounds_cap(self, sim_graph):
        from repro.core.adopters import top_degree_isps

        result = run_deployment(
            sim_graph.graph,
            top_degree_isps(sim_graph.graph, 3),
            SimulationConfig(theta=0.0, max_rounds=1),
        )
        assert result.outcome is Outcome.MAX_ROUNDS
        assert result.num_rounds == 1


class TestMonotonicity:
    def test_outgoing_deployment_monotone(self, sim_graph):
        """Theorem 6.2: nobody turns off, so security only grows."""
        from repro.core.adopters import cps_plus_top_isps

        result = run_deployment(
            sim_graph.graph,
            cps_plus_top_isps(sim_graph.graph, 3),
            SimulationConfig(theta=0.02),
        )
        counts = result.secure_ases_per_round()
        assert counts == sorted(counts)
        assert all(not r.turned_off for r in result.rounds)

    def test_lower_theta_at_least_as_much_adoption(self, sim_graph):
        from repro.core.adopters import cps_plus_top_isps
        from repro.routing.cache import RoutingCache

        cache = RoutingCache(sim_graph.graph)
        adopters = cps_plus_top_isps(sim_graph.graph, 3)
        fractions = []
        for theta in (0.0, 0.10, 0.50):
            result = run_deployment(
                sim_graph.graph, adopters, SimulationConfig(theta=theta), cache
            )
            fractions.append(int(result.final_node_secure.sum()))
        assert fractions[0] >= fractions[1] >= fractions[2]


class TestHistory:
    @pytest.fixture(scope="class")
    def result(self, sim_graph):
        from repro.core.adopters import cps_plus_top_isps

        return run_deployment(
            sim_graph.graph,
            cps_plus_top_isps(sim_graph.graph, 3),
            SimulationConfig(theta=0.05),
        )

    def test_round_records_consistent(self, result):
        for k, record in enumerate(result.rounds):
            assert record.index == k + 1
            for isp in record.turned_on:
                assert isp in record.projections

    def test_newly_secure_sums(self, result):
        total_new = sum(result.newly_secure_per_round())
        first = result.rounds[0].num_secure_ases
        final = int(result.final_node_secure.sum())
        assert first + total_new == final

    def test_utility_history_length(self, result):
        node = result.graph.isp_indices[0]
        assert len(result.utility_history(node)) == result.num_rounds + 1

    def test_adoption_round(self, result):
        adopted = [i for r in result.rounds for i in r.turned_on]
        if adopted:
            node = adopted[0]
            k = result.adoption_round(node)
            assert node in result.rounds[k - 1].turned_on
        never = [
            i for i in result.graph.isp_indices
            if i not in result.final_state.deployers
        ]
        if never:
            assert result.adoption_round(never[0]) is None

    def test_record_utilities_off(self, sim_graph):
        from repro.core.adopters import top_degree_isps

        result = run_deployment(
            sim_graph.graph,
            top_degree_isps(sim_graph.graph, 2),
            SimulationConfig(theta=0.05, record_utilities=False, max_rounds=3),
        )
        with pytest.raises(ValueError):
            result.utility_history(0)


class TestPlayers:
    def test_player_restriction(self):
        net = build_diamond()
        apply_traffic_model(net.graph, 0.0)
        cfg = SimulationConfig(theta=0.01)
        sim = DeploymentSimulation(
            net.graph, [net.source], cfg, player_asns=[net.left]
        )
        result = sim.run()
        g = net.graph
        # only `left` was allowed to move
        assert result.final_node_secure[g.index(net.left)]
        assert not result.final_node_secure[g.index(net.right)]


class TestOscillation:
    def test_chicken_oscillates(self):
        from repro.gadgets.oscillator import build_chicken

        net = build_chicken()
        cfg = SimulationConfig(
            theta=0.0, utility_model=UtilityModel.INCOMING, max_rounds=20
        )
        sim = DeploymentSimulation(
            net.graph, net.fixed_on, cfg, player_asns=list(net.players)
        )
        result = sim.run()
        assert result.outcome is Outcome.OSCILLATION
        assert any(r.turned_off for r in result.rounds)


class TestRoundScopedState:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_state_derived_once_per_round_never_per_projection(
        self, sim_graph, monkeypatch, workers
    ):
        """Pins the call count, not a timing: one derivation per
        ``compute_round_data``, in this process and in forked workers."""
        if workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("parallel projection needs the fork start method")
        from repro.core.adopters import cps_plus_top_isps

        # shared memory, so derivations inside forked workers count too;
        # node_secure goes through derive, so this sees either entry
        derivations = multiprocessing.Value("i", 0)
        derive = StateDeriver.derive

        def counting_derive(self, state):
            with derivations.get_lock():
                derivations.value += 1
            return derive(self, state)

        round_data_calls = []
        compute_round_data = dynamics.compute_round_data

        def counting_round_data(*args):
            round_data_calls.append(args)
            return compute_round_data(*args)

        monkeypatch.setattr(StateDeriver, "derive", counting_derive)
        monkeypatch.setattr(dynamics, "compute_round_data", counting_round_data)

        graph = sim_graph.graph
        result = run_deployment(
            graph, cps_plus_top_isps(graph, 3),
            SimulationConfig(theta=0.05, workers=workers),
        )
        flipping = sum(1 for r in result.rounds if r.turned_on or r.turned_off)
        projections = sum(len(r.projections) for r in result.rounds)
        # starting utilities + the initial state + one per flipping round
        assert len(round_data_calls) == 2 + flipping
        assert derivations.value == len(round_data_calls)
        assert projections > derivations.value
