"""Tests for the experiment environment builder."""

from __future__ import annotations

import pytest

from repro.experiments.setup import build_environment
from repro.topology.traffic import traffic_fraction_of


class TestBuildEnvironment:
    def test_default_build(self, medium_env):
        assert medium_env.graph.n == 400
        assert len(medium_env.cache.destinations) == 400
        assert medium_env.x == 0.10

    def test_traffic_applied(self, medium_env):
        cps = medium_env.graph.cp_indices
        assert traffic_fraction_of(medium_env.graph, cps) == pytest.approx(0.10)

    def test_adopter_sets_menu(self, medium_env):
        sets = medium_env.adopter_sets()
        assert sets["none"] == []
        assert len(sets["top-5"]) == 5
        assert len(sets["5-cps"]) == 5
        assert len(sets["cps+top-5"]) == 10
        # every listed AS exists
        for name, adopters in sets.items():
            for asn in adopters:
                assert asn in medium_env.graph

    def test_case_study_adopters(self, medium_env):
        adopters = medium_env.case_study_adopters()
        assert len(adopters) == 10

    def test_augmented_environment(self):
        env = build_environment(n=200, seed=9, augmented=True, warm=False)
        assert env.augmented
        base = build_environment(n=200, seed=9, augmented=False, warm=False)
        cp = env.cp_asns[0]
        assert env.graph.degree(cp) > base.graph.degree(cp)

    def test_unwarmed_cache_lazy(self):
        env = build_environment(n=100, seed=9, warm=False)
        assert env.cache.stats().cached == 0
        assert env.cache.arena is None
        env.cache.ensure_arena()  # the first use runs the warm
        assert env.cache.stats().cached == 100


class TestDestinationSampling:
    def test_sampled_cache_size(self):
        env = build_environment(n=150, seed=9, warm=False, sample_destinations=40)
        assert len(env.cache.destinations) == 40

    def test_sample_larger_than_n_means_full(self):
        env = build_environment(n=100, seed=9, warm=False, sample_destinations=500)
        assert len(env.cache.destinations) == 100

    def test_sampled_game_runs(self):
        from repro.core.adopters import top_degree_isps
        from repro.core.config import SimulationConfig
        from repro.core.dynamics import run_deployment

        env = build_environment(n=150, seed=9, sample_destinations=50)
        result = run_deployment(
            env.graph, top_degree_isps(env.graph, 3),
            SimulationConfig(theta=0.05), env.cache,
        )
        assert result.outcome.value in ("stable", "max-rounds")
        assert result.final_node_secure.sum() > 0

    def test_sampling_deterministic(self):
        a = build_environment(n=150, seed=9, warm=False, sample_destinations=40)
        b = build_environment(n=150, seed=9, warm=False, sample_destinations=40)
        assert a.cache.destinations == b.cache.destinations
