"""Tests for the Section-5 case-study driver."""

from __future__ import annotations

import math

import pytest

from repro.experiments.case_study import run_case_study


@pytest.fixture(scope="module")
def report(medium_env):
    return run_case_study(medium_env, theta=0.05)


class TestCaseStudy:
    def test_majority_secured(self, report):
        # paper: 85% of ASes at theta = 5%
        assert report.fraction_secure_ases > 0.5

    def test_fig3_series_lengths(self, report):
        assert len(report.fig3_new_ases) == report.result.num_rounds
        assert len(report.fig3_new_isps) == report.result.num_rounds

    def test_fig3_first_round_surge(self, report):
        """§5.2: the first round secures many ASes at once (ISPs plus
        their simplex stubs)."""
        assert report.fig3_new_ases[0] > report.fig3_new_isps[0]

    def test_fig4_characters_found(self, report):
        assert report.fig4_utilities, "no focal ISPs identified"
        for label, series in report.fig4_utilities.items():
            assert len(series) == report.result.num_rounds + 1
            # normalised by *starting* (pre-deployment) utility; round 1
            # already includes the early adopters, so only approximately 1
            assert series[0] == pytest.approx(1.0, rel=0.5)

    def test_fig5_projected_exceeds_threshold(self, report):
        """Adopters' projections must exceed (1+theta) x current — that
        is the definition of the update rule."""
        for record in report.result.rounds:
            for isp in record.turned_on:
                proj = record.projections[isp].utility
                assert proj > 1.05 * float(record.utilities[isp]) - 1e-9

    def test_fig5_medians_finite_when_adopting(self, report):
        rounds_with_adopters = [
            k for k, r in enumerate(report.result.rounds) if r.turned_on
        ]
        for k in rounds_with_adopters:
            assert not math.isnan(report.fig5_median_projected[k])

    def test_fig6_buckets_monotone(self, report):
        """Cumulative adoption per degree bucket never decreases
        (outgoing model: Theorem 6.2)."""
        for label, series in report.fig6_adoption_by_bucket.items():
            assert series == sorted(series), label

    def test_fig6_high_degree_adopts_more(self, report):
        """§5.3: high-degree ISPs are more likely to deploy."""
        buckets = report.fig6_adoption_by_bucket
        labels = list(buckets)
        low, high = buckets[labels[0]], buckets[labels[-1]]
        assert high[-1] >= low[-1]

    def test_fig7_chains_exist(self, report):
        """§5.4: adoption propagates outward from earlier adopters."""
        assert report.fig7_chains
        for enabler, adopter, round_index in report.fig7_chains:
            assert round_index >= 2

    def test_table1_counts_positive(self, report):
        assert report.table1.total_contested > 0

    def test_zero_sum_insecure_lose(self, report):
        assert report.zero_sum.mean_final_over_start_insecure <= 1.0


class TestNoPerDestinationObjects:
    """Pools in, matrices out: on the default policy nothing between
    ``build_environment`` and the finished report makes a Python object
    per destination, or looks one up."""

    @pytest.fixture
    def constructed(self, monkeypatch):
        from repro.core.engine import DestState
        from repro.routing.paths import RoutingTree
        from repro.routing.tree import DestRouting

        counts = {}
        for cls in (DestRouting, DestState, RoutingTree):
            counts[cls.__name__] = 0

            def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                counts[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        return counts

    def test_a_game_and_its_report_construct_none(self, constructed):
        from repro.core.config import SimulationConfig
        from repro.core.dynamics import run_deployment
        from repro.experiments.setup import build_environment

        env = build_environment(n=300)
        result = run_deployment(
            env.graph, env.case_study_adopters(), SimulationConfig(theta=0.05),
            cache=env.cache,
        )
        assert result.num_rounds >= 2
        assert constructed == {"DestRouting": 0, "DestState": 0, "RoutingTree": 0}
        report = run_case_study(env)  # the census reads pools
        assert report.table1.total_contested > 0
        assert constructed == {"DestRouting": 0, "DestState": 0, "RoutingTree": 0}
        # the counters count: a per-destination consumer makes one view
        arena = env.cache.ensure_arena()
        arena.view(env.cache.dest_pos(5))
        arena.view(env.cache.dest_pos(5))
        assert constructed["DestRouting"] == 1

    def test_per_destination_turn_off_census_constructs_none(self, constructed):
        """§7.3's gains resolve every candidate destination of an ISP as
        one stack, and Fig 10's statistics read pooled chunks."""
        from repro.core.config import SimulationConfig
        from repro.core.dynamics import run_deployment
        from repro.experiments.setup import build_environment
        from repro.experiments.turnoff import per_destination_turn_off_census
        from repro.routing.tiebreak import collect_tiebreak_stats

        env = build_environment(n=300)
        result = run_deployment(
            env.graph, env.case_study_adopters(), SimulationConfig(theta=0.05),
            cache=env.cache,
        )
        for stub_breaks_ties in (False, True):
            census = per_destination_turn_off_census(
                env, result.final_state, stub_breaks_ties=stub_breaks_ties
            )
            assert census.num_secure_isps > 0
        assert collect_tiebreak_stats(env.graph, cache=env.cache).mean > 1.0
        assert constructed == {"DestRouting": 0, "DestState": 0, "RoutingTree": 0}
