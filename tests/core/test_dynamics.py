"""Tests for the deployment game loop."""

from __future__ import annotations

import multiprocessing.process
import struct

import numpy as np
import pytest

from repro.core import dynamics
from repro.core.config import ProjectionEngine, SimulationConfig, UtilityModel
from repro.core.dynamics import DeploymentSimulation, Outcome, run_deployment
from repro.core.state import StateDeriver
from repro.experiments.setup import build_environment
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
        ``compute_round_data``, whatever the worker count."""
        from repro.core.adopters import cps_plus_top_isps

        # node_secure goes through derive, so this sees either entry
        derivations = []
        derive = StateDeriver.derive

        def counting_derive(self, state):
            derivations.append(state)
            return derive(self, state)

        round_data_calls = []
        compute_round_data = dynamics.compute_round_data

        def counting_round_data(*args, **kwargs):
            round_data_calls.append(args)
            return compute_round_data(*args, **kwargs)

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
        assert len(derivations) == len(round_data_calls)
        assert projections > len(derivations)


def _projection_fields(result) -> list[list[tuple]]:
    """Every round's projections, ``utility`` as bytes and ``flips`` in
    order."""
    return [
        [
            (isp, p.turning_on, struct.pack("<d", p.utility), list(p.flips.items()),
             p.dests_recomputed, p.dests_delta)
            for isp, p in r.projections.items()
        ]
        for r in result.rounds
    ]


@pytest.fixture(scope="module", params=["security_3rd", "security_2nd"])
def policy_env(request):
    """``security_2nd`` rebuilds its structures per projected state."""
    return build_environment(n=150, seed=11, x=0.10, policy=request.param)


class TestWorkersIgnored:
    """``SimulationConfig.workers`` is accepted and ignored: a game plays
    in one process."""

    def test_simulation_agrees_with_serial(self, medium_env):
        adopters = medium_env.case_study_adopters()
        serial, parallel = (
            DeploymentSimulation(
                medium_env.graph, adopters,
                SimulationConfig(theta=0.02, max_rounds=6, workers=workers),
                medium_env.cache,
            ).run()
            for workers in (1, 2)
        )
        assert serial.outcome == parallel.outcome
        assert [r.turned_on for r in serial.rounds] == [
            r.turned_on for r in parallel.rounds
        ]
        assert [r.turned_off for r in serial.rounds] == [
            r.turned_off for r in parallel.rounds
        ]
        np.testing.assert_array_equal(
            serial.final_utilities, parallel.final_utilities
        )

    @pytest.mark.parametrize("engine", list(ProjectionEngine), ids=lambda e: e.name)
    def test_two_workers_play_in_one_process(self, policy_env, engine, monkeypatch):
        """A ``workers=2`` game starts no process, and every projection
        and the final utilities are the ``workers=1`` game's, byte for
        byte."""
        def refuse(self):
            raise AssertionError(f"a game started a process ({self.name})")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        serial, two = (
            DeploymentSimulation(
                policy_env.graph, policy_env.case_study_adopters(),
                SimulationConfig(
                    theta=0.02, max_rounds=6, projection=engine,
                    policy=policy_env.cache.policy_name, workers=workers,
                ),
                policy_env.cache,
            ).run()
            for workers in (1, 2)
        )
        assert serial.num_rounds >= 2
        assert _projection_fields(two) == _projection_fields(serial)
        assert two.final_utilities.tobytes() == serial.final_utilities.tobytes()
