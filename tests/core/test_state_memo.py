"""The theta-free state evaluation and the memo that shares it.

No timing here: a game with a memo must return *equal* results (``==``
and ``array_equal``, never approx) to one without, the memo must refuse
a simulation it was not filled by, and at most one ``RoundData`` may be
alive at a time.
"""

from __future__ import annotations

import dataclasses
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import dynamics
from repro.core.config import ProjectionEngine, SimulationConfig, UtilityModel
from repro.core.dynamics import (
    DeploymentSimulation,
    Outcome,
    SimulationResult,
    StateEvaluation,
    StateMemo,
    run_deployment,
)
from repro.core.pricing import Pricing, PricingModel
from repro.core.state import DeploymentState
from repro.gadgets.oscillator import build_chicken
from repro.routing.cache import RoutingCache
from repro.runtime.errors import StateMemoScopeError
from repro.topology.generator import generate_topology
from repro.topology.relationships import ASRole
from repro.topology.traffic import apply_traffic_model

from tests.strategies import as_graphs


def assert_same_game(a: SimulationResult, b: SimulationResult) -> None:
    """Every number two results carry compares equal, bit for bit."""
    assert a.outcome is b.outcome
    assert a.final_state == b.final_state
    assert (a.final_secure_pairs, a.num_dests) == (b.final_secure_pairs, b.num_dests)
    for x, y in (
        (a.final_node_secure, b.final_node_secure),
        (a.final_utilities, b.final_utilities),
        (a.starting_utilities, b.starting_utilities),
    ):
        assert np.array_equal(x, y)
    assert len(a.rounds) == len(b.rounds)
    for ra, rb in zip(a.rounds, b.rounds):
        assert (ra.index, ra.state) == (rb.index, rb.state)
        assert (ra.turned_on, ra.turned_off) == (rb.turned_on, rb.turned_off)
        # frozen dataclasses: utility, flips and counts all compare; so
        # does the job order
        assert list(ra.projections.items()) == list(rb.projections.items())
        assert np.array_equal(ra.node_secure, rb.node_secure)
        assert np.array_equal(ra.utilities, rb.utilities)


@given(
    as_graphs(min_nodes=6, max_nodes=18, with_cps=True),
    st.lists(st.sampled_from([0.0, 0.01, 0.05, 0.1, 0.3, 0.5]), min_size=1, max_size=4),
    st.sampled_from(list(UtilityModel)),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_cold_warm_and_no_memo_play_the_same_game(graph, thetas, model, rnd):
    if graph.cp_indices:
        apply_traffic_model(graph, 0.10)
    adopters = [graph.asn(i) for i in rnd.sample(range(graph.n), rnd.randint(0, 3))]
    cache = RoutingCache(graph)
    warm = StateMemo()
    for _ in range(2):  # the second pass finds every state in the memo
        for theta in thetas:
            config = SimulationConfig(theta=theta, utility_model=model, max_rounds=30)
            plain = run_deployment(graph, adopters, config, cache)
            cold = run_deployment(graph, adopters, config, cache, memo=StateMemo())
            shared = run_deployment(graph, adopters, config, cache, memo=warm)
            assert_same_game(plain, cold)
            assert_same_game(plain, shared)


@pytest.fixture(scope="module")
def env():
    top = generate_topology(n=120, seed=23)
    apply_traffic_model(top.graph, 0.10)
    cache = RoutingCache(top.graph)
    cache.warm()
    isps = top.graph.indices_with_role(ASRole.ISP)
    adopters = [top.graph.asn(i) for i in isps[:3]]
    return top.graph, cache, adopters


def test_oscillator_ends_in_the_same_round_with_and_without_a_memo():
    net = build_chicken()
    cache = RoutingCache(net.graph)
    cfg = SimulationConfig(theta=0.0, utility_model=UtilityModel.INCOMING, max_rounds=20)

    def play(memo):
        return DeploymentSimulation(
            net.graph, net.fixed_on, cfg, cache, player_asns=list(net.players), memo=memo
        ).run()

    plain = play(None)
    assert plain.outcome is Outcome.OSCILLATION
    assert any(r.turned_off for r in plain.rounds)
    memo = StateMemo()
    for _ in range(2):  # cold, then with every state already evaluated
        assert_same_game(plain, play(memo))


def test_workers_2_parity_through_a_shared_memo(env):
    graph, cache, adopters = env
    memo = StateMemo()
    for theta, workers in ((0.0, 2), (0.05, 1), (0.3, 2)):
        plain = run_deployment(graph, adopters, SimulationConfig(theta=theta), cache)
        shared = run_deployment(
            graph, adopters, SimulationConfig(theta=theta, workers=workers), cache,
            memo=memo,
        )
        assert_same_game(plain, shared)


class TestEvaluations:
    def test_an_evaluation_is_small_and_read_only(self, env):
        graph, cache, adopters = env
        memo = StateMemo()
        result = run_deployment(graph, adopters, SimulationConfig(theta=0.0), cache, memo=memo)
        assert result.final_state in memo
        for evaluation in memo.values():
            assert isinstance(evaluation, StateEvaluation)
            for array in (evaluation.node_secure, evaluation.utilities):
                # a few KB: no view into a [num_dests, n] matrix
                assert array.shape == (graph.n,) and array.base is None
                assert not array.flags.writeable
            assert 0 <= evaluation.secure_pairs <= result.num_dests * graph.n
        # the results share the memo's arrays instead of copying them
        assert result.final_utilities is memo[result.final_state].utilities
        assert result.rounds[0].utilities is memo[result.rounds[0].state].utilities

    def test_at_most_one_round_data_is_alive(self, env, monkeypatch):
        graph, cache, adopters = env
        issued: list[weakref.ref] = []
        compute_round_data = dynamics.compute_round_data

        def tracking(*args, **kwargs):
            assert not [ref for ref in issued if ref() is not None], (
                "a RoundData outlived its state evaluation"
            )
            rd = compute_round_data(*args, **kwargs)
            issued.append(weakref.ref(rd))
            return rd

        monkeypatch.setattr(dynamics, "compute_round_data", tracking)
        result = run_deployment(graph, adopters, SimulationConfig(theta=0.0), cache)
        assert len(issued) == len({r.state for r in result.rounds}) + 1
        assert all(ref() is None for ref in issued)

    def test_discard_trajectories_keeps_only_the_empty_state(self, env):
        graph, cache, adopters = env
        memo = StateMemo()
        run_deployment(graph, adopters, SimulationConfig(theta=0.0), cache, memo=memo)
        assert len(memo) > 2
        memo.discard_trajectories()
        assert list(memo) == [DeploymentState.initial(())]
        empty = StateMemo()
        empty.discard_trajectories()
        assert len(empty) == 0


class TestScope:
    """A memo refuses every simulation whose numbers it does not hold."""

    BASE = SimulationConfig(theta=0.05, utility_model=UtilityModel.INCOMING)

    @pytest.fixture()
    def filled(self, env):
        graph, cache, adopters = env
        memo = StateMemo()
        run_deployment(graph, adopters, self.BASE, cache, memo=memo)
        return memo

    def replace(self, **changes):
        return dataclasses.replace(self.BASE, **changes)

    def test_what_only_enters_the_comparison_may_differ(self, env, filled):
        graph, cache, adopters = env
        before = len(filled)
        run_deployment(
            graph, adopters, self.replace(theta=0.2, max_rounds=7),
            cache, thresholds=np.full(graph.n, 0.1),
            pricing=Pricing(model=PricingModel.CONCAVE), memo=filled,
        )
        assert len(filled) >= before

    @pytest.mark.parametrize("field, changes", [
        ("utility model", {"utility_model": UtilityModel.OUTGOING}),
        ("stub_breaks_ties", {"stub_breaks_ties": False}),
        ("projection engine", {"projection": ProjectionEngine.INCREMENTAL}),
    ])
    def test_other_config_raises(self, env, filled, field, changes):
        graph, cache, adopters = env
        with pytest.raises(StateMemoScopeError) as excinfo:
            run_deployment(graph, adopters, self.replace(**changes), cache, memo=filled)
        assert excinfo.value.differing == [field]
        assert field in str(excinfo.value)

    def test_other_cache_raises(self, env, filled):
        graph, _, adopters = env
        with pytest.raises(StateMemoScopeError) as excinfo:
            run_deployment(graph, adopters, self.BASE, RoutingCache(graph), memo=filled)
        assert excinfo.value.differing == ["cache"]

    def test_other_policy_raises(self, env, filled):
        graph, _, adopters = env
        cache = RoutingCache(graph, policy="sp_first")
        with pytest.raises(StateMemoScopeError) as excinfo:
            run_deployment(graph, adopters, self.BASE, cache, memo=filled)
        assert excinfo.value.differing == ["cache", "policy"]

    def test_other_player_set_raises(self, env, filled):
        graph, cache, adopters = env
        players = [graph.asn(i) for i in graph.indices_with_role(ASRole.ISP)[:4]]
        with pytest.raises(StateMemoScopeError) as excinfo:
            run_deployment(
                graph, adopters, self.BASE, cache, player_asns=players, memo=filled
            )
        assert excinfo.value.differing == ["player set"]

    def test_other_graph_weights_raise(self, env, filled):
        graph, cache, adopters = env
        apply_traffic_model(graph, 0.33)
        try:
            with pytest.raises(StateMemoScopeError) as excinfo:
                run_deployment(graph, adopters, self.BASE, cache, memo=filled)
        finally:
            apply_traffic_model(graph, 0.10)
        assert excinfo.value.differing == ["graph weights"]
        # the restored weights are the ones the memo was filled under
        run_deployment(graph, adopters, self.BASE, cache, memo=filled)
