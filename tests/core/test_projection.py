"""Projection engines must equal brute-force flipped-state utilities."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ProjectionEngine, UtilityModel
from repro.core.engine import compute_round_data
from repro.core.projection import per_destination_turn_off_gains, project_flip
from repro.core.state import DeploymentState, StateDeriver
from repro.experiments.setup import build_environment
from repro.gadgets.diamond import build_diamond
from repro.gadgets.oscillator import build_chicken
from repro.routing import backends as kernel_backends
from repro.routing.cache import RoutingCache
from repro.routing.errors import BackendUnavailable
from repro.topology.generator import generate_topology
from repro.topology.traffic import apply_traffic_model

from tests.references import project_flip_per_destination


def brute_force_utility(cache, deriver, state, isp, turning_on, model) -> float:
    flipped = (
        state.with_flips(turn_on=[isp])
        if turning_on
        else state.with_flips(turn_off=[isp])
    )
    rd = compute_round_data(cache, deriver, flipped, model)
    return float(rd.utilities[isp])


@pytest.fixture(scope="module")
def setup():
    top = generate_topology(n=160, seed=21)
    g = top.graph
    apply_traffic_model(g, 0.10)
    cache = RoutingCache(g)
    cache.warm()
    return g, cache


@pytest.fixture(scope="module", params=["numpy", "cext", "security_2nd"])
def sampled_cache(request, setup):
    """Every third destination, so most flipped stubs are *not*
    destinations — on the numpy and cext kernels, and under a
    state-dependent policy (the full-rebuild projection path)."""
    g, _ = setup
    options = {}
    if request.param == "cext":
        try:
            kernel_backends.load_backend("cext")
        except BackendUnavailable as exc:
            pytest.skip(f"cext backend not loadable here: {exc}")
        options["backend"] = "cext"
    if request.param == "security_2nd":
        options["policy"] = "security_2nd"
    return RoutingCache(g, destinations=list(range(0, g.n, 3)), **options)


def _assert_projections_equal_ground_truth(g, cache, model, stub_breaks):
    deriver = StateDeriver(g, stub_breaks_ties=stub_breaks, compiled=cache.compiled)
    rng = random.Random(5)
    isps = g.isp_indices
    ea = frozenset(rng.sample(isps, 3))
    extra = [i for i in rng.sample(isps, 12) if i not in ea][:6]
    state = DeploymentState.initial(ea).with_flips(turn_on=extra)
    rd = compute_round_data(cache, deriver, state, model)

    on_candidates = [i for i in isps if i not in state.deployers][:10]
    off_candidates = extra
    jobs = [(i, True) for i in on_candidates] + [(i, False) for i in off_candidates]
    # project first: under a state-dependent policy the brute force
    # below rebuilds the cache's structures for every flipped state
    projections = {
        (isp, on, engine): project_flip(cache, deriver, rd, isp, on, model, engine)
        for isp, on in jobs
        for engine in (ProjectionEngine.INCREMENTAL, ProjectionEngine.FULL)
    }
    for (isp, on, engine), proj in projections.items():
        truth = brute_force_utility(cache, deriver, state, isp, on, model)
        assert proj.utility == pytest.approx(truth, abs=1e-6), (isp, on, model, engine)
    return projections


@pytest.mark.parametrize("model", [UtilityModel.OUTGOING, UtilityModel.INCOMING])
@pytest.mark.parametrize("stub_breaks", [True, False])
def test_projection_equals_ground_truth(setup, model, stub_breaks):
    g, cache = setup
    _assert_projections_equal_ground_truth(g, cache, model, stub_breaks)


@pytest.mark.parametrize("model", [UtilityModel.OUTGOING, UtilityModel.INCOMING])
@pytest.mark.parametrize("stub_breaks", [True, False])
def test_projection_equals_ground_truth_sampled(setup, sampled_cache, model, stub_breaks):
    g, _ = setup
    projections = _assert_projections_equal_ground_truth(
        g, sampled_cache, model, stub_breaks
    )
    flipped = {node for proj in projections.values() for node in proj.flips}
    assert any(sampled_cache.position_of(node) is None for node in flipped)


def test_projection_reports_flips(setup):
    g, cache = setup
    deriver = StateDeriver(g, compiled=cache.compiled)
    state = DeploymentState(frozenset(), frozenset())
    rd = compute_round_data(cache, deriver, state, UtilityModel.OUTGOING)
    isp = g.isp_indices[0]
    proj = project_flip(cache, deriver, rd, isp, True, UtilityModel.OUTGOING)
    assert proj.flips[isp] is True
    stubs = deriver.stubs_of(isp)
    for s in stubs:
        assert proj.flips.get(int(s)) is True


def test_turn_on_never_hurts_outgoing(setup):
    """Theorem H.1's flip side: deploying cannot lose outgoing traffic."""
    g, cache = setup
    deriver = StateDeriver(g, compiled=cache.compiled)
    rng = random.Random(11)
    state = DeploymentState.initial(frozenset(rng.sample(g.isp_indices, 5)))
    rd = compute_round_data(cache, deriver, state, UtilityModel.OUTGOING)
    for isp in [i for i in g.isp_indices if i not in state.deployers][:20]:
        proj = project_flip(cache, deriver, rd, isp, True, UtilityModel.OUTGOING)
        assert proj.utility >= float(rd.utilities[isp]) - 1e-9


def test_per_destination_turn_off_gains(setup):
    g, cache = setup
    deriver = StateDeriver(g, stub_breaks_ties=False, compiled=cache.compiled)
    rng = random.Random(3)
    deployers = frozenset(rng.sample(g.isp_indices, 8))
    state = DeploymentState(deployers, frozenset())
    rd = compute_round_data(cache, deriver, state, UtilityModel.INCOMING)
    for isp in list(deployers)[:5]:
        gains = per_destination_turn_off_gains(cache, deriver, rd, isp)
        for dest, gain in gains.items():
            assert gain > 0
            assert dest != isp


def _assert_equals_the_per_destination_loop(cache, state, isps) -> int:
    """FULL projections of ``isps`` flipping out of ``state``, both
    utility models: the deltas read off the stacked matrices must be the
    per-destination loop's to the last bit, the counts equal.  Returns
    how many projections moved a utility at all."""
    graph = cache.graph
    deriver = StateDeriver(graph, stub_breaks_ties=True, compiled=cache.compiled)
    moved = 0
    for model in UtilityModel:
        rd = compute_round_data(cache, deriver, state, model)
        for isp in isps:
            on = isp not in state.deployers
            got = project_flip(cache, deriver, rd, isp, on, model)  # FULL by default
            utility, recomputed, touched = project_flip_per_destination(
                cache, deriver, rd, isp, on, model
            )
            assert got.utility.hex() == utility.hex(), (model, isp, on)
            assert (got.dests_recomputed, got.dests_delta) == (recomputed, touched)
            moved += got.utility != float(rd.utilities[isp])
    return moved


class TestMatrixDeltasEqualThePerDestinationLoop:
    @pytest.mark.parametrize("policy, jobs", [("security_3rd", None), ("security_2nd", 10)])
    def test_seeded_topology(self, policy, jobs):
        env = build_environment(n=300, seed=2011, policy=policy)
        graph = env.graph
        adopters = [graph.index(asn) for asn in env.case_study_adopters()]
        others = [i for i in graph.isp_indices if i not in adopters]
        state = DeploymentState.initial(adopters).with_flips(turn_on=others[:15])
        # every ISP that is not an early adopter, switching on or off
        moved = _assert_equals_the_per_destination_loop(env.cache, state, others[:jobs])
        assert moved >= len(others[:jobs])

    @pytest.mark.parametrize("policy", ["security_3rd", "security_2nd"])
    @pytest.mark.parametrize("gadget", [build_diamond, build_chicken])
    def test_gadgets(self, gadget, policy):
        graph = gadget().graph
        isps = list(graph.isp_indices)
        moved = 0
        for deployed in (isps[:0], isps[:1], isps[::2]):
            moved += _assert_equals_the_per_destination_loop(
                RoutingCache(graph, policy=policy),
                DeploymentState.initial(isps[-1:]).with_flips(turn_on=deployed),
                isps[:-1],
            )
        assert moved > 0

    def test_default_engine_is_the_one_games_run(self):
        from repro.core.config import SimulationConfig

        assert SimulationConfig(theta=0.05).projection is ProjectionEngine.FULL
        assert project_flip.__defaults__ == (ProjectionEngine.FULL,)
