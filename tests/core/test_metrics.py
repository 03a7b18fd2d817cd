"""Tests for security/deployment metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adopters import cps_plus_top_isps
from repro.core.config import SimulationConfig, UtilityModel
from repro.core.dynamics import run_deployment
from repro.core.engine import compute_round_data
from repro.core.metrics import (
    deployment_outcome,
    projection_accuracy,
    security_snapshot,
    snapshot_from_counts,
    zero_sum_analysis,
)
from repro.core.state import DeploymentState, StateDeriver


@pytest.fixture(scope="module")
def finished(small_graph, small_cache):
    adopters = cps_plus_top_isps(small_graph, 3)
    return run_deployment(
        small_graph, adopters, SimulationConfig(theta=0.05), small_cache
    )


class TestSecuritySnapshot:
    def test_empty_state_all_zero(self, small_graph, small_cache):
        deriver = StateDeriver(small_graph)
        rd = compute_round_data(
            small_cache, deriver, DeploymentState(frozenset(), frozenset()),
            UtilityModel.OUTGOING,
        )
        snap = security_snapshot(small_graph, rd)
        assert snap.fraction_secure_ases == 0.0
        assert snap.fraction_secure_paths == 0.0
        assert snap.f_squared == 0.0

    def test_everything_secure(self, small_graph, small_cache):
        deriver = StateDeriver(small_graph)
        all_nodes = frozenset(range(small_graph.n))
        rd = compute_round_data(
            small_cache, deriver, DeploymentState(all_nodes, frozenset()),
            UtilityModel.OUTGOING,
        )
        snap = security_snapshot(small_graph, rd)
        assert snap.fraction_secure_ases == 1.0
        # every reachable pair is secure; only unreachable pairs miss
        assert snap.fraction_secure_paths > 0.95

    def test_paths_track_f_squared(self, small_graph, small_cache, finished):
        deriver = StateDeriver(small_graph)
        rd = compute_round_data(
            small_cache, deriver, finished.final_state, UtilityModel.OUTGOING
        )
        snap = security_snapshot(small_graph, rd)
        # Fig. 9: secure-path fraction sits just below f^2
        assert snap.fraction_secure_paths <= snap.f_squared + 1e-9
        assert snap.fraction_secure_paths >= 0.5 * snap.f_squared
        # what the finished game carries is all the snapshot needs
        assert snap == snapshot_from_counts(
            small_graph, finished.final_node_secure,
            finished.final_secure_pairs, finished.num_dests,
        )


class TestDeploymentOutcome:
    def test_fractions_consistent(self, finished):
        out = deployment_outcome(finished)
        assert 0 <= out.fraction_isps_by_market <= out.fraction_secure_isps <= 1
        assert out.num_rounds == finished.num_rounds
        assert out.outcome == "stable"

    def test_most_ases_secure_at_low_theta(self, finished):
        out = deployment_outcome(finished)
        assert out.fraction_secure_ases > 0.5  # paper: 85% at theta=5%


class TestZeroSum:
    def test_holdouts_lose(self, finished):
        zs = zero_sum_analysis(finished)
        # §5.6: ISPs that stay insecure end below their starting utility
        assert zs.mean_final_over_start_insecure < 1.0
        assert zs.mean_final_over_start_secure > zs.mean_final_over_start_insecure

    def test_fraction_bounded(self, finished):
        zs = zero_sum_analysis(finished)
        assert 0.0 <= zs.fraction_isps_above_threshold <= 1.0


class TestProjectionAccuracy:
    def test_ratios_near_one(self, finished):
        ratios = projection_accuracy(finished)
        assert ratios, "no adopters recorded"
        # §8.1: projections are excellent estimates (within a few %)
        assert np.median(ratios) == pytest.approx(1.0, abs=0.15)

    def test_ratio_definition(self, finished):
        record = next(r for r in finished.rounds if r.turned_on)
        isp = record.turned_on[0]
        nxt = (
            finished.rounds[record.index].utilities
            if record.index < len(finished.rounds)
            else finished.final_utilities
        )
        expected = record.projections[isp].utility / float(nxt[isp])
        assert expected in [pytest.approx(r) for r in projection_accuracy(finished)]
