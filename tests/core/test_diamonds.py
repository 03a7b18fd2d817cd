"""Tests for the DIAMOND census (Table 1)."""

from __future__ import annotations

import pytest

from repro.core.adopters import cps_plus_top_isps
from repro.core.diamonds import DiamondCensus, diamond_census
from repro.experiments.case_study import run_case_study
from repro.experiments.setup import build_environment
from repro.gadgets.diamond import build_diamond
from repro.routing.cache import RoutingCache
from repro.topology.graph import ASGraph


class TestGadgetCensus:
    def test_single_diamond_detected(self):
        net = build_diamond()
        census = diamond_census(net.graph, [net.source])
        assert census.contested_stubs[net.source] == 1
        assert census.competitor_pairs[net.source] == 1
        assert census.total_contested == 1

    def test_feeders_not_contested(self):
        net = build_diamond()
        census = diamond_census(net.graph, [net.source])
        # feeders are single-homed: only the shared stub is contested
        assert census.total_pairs == 1

    def test_three_way_competition_counts_pairs(self):
        g = ASGraph()
        for asn in (1, 2, 3, 4, 9):
            g.add_as(asn)
        for mid in (2, 3, 4):
            g.add_customer_provider(provider=1, customer=mid)
            g.add_customer_provider(provider=mid, customer=9)
        census = diamond_census(g, [1])
        assert census.contested_stubs[1] == 1
        assert census.competitor_pairs[1] == 3  # C(3, 2)


class TestGraphCensus:
    def test_tier1s_see_many_diamonds(self, small_graph, small_cache):
        from repro.core.adopters import top_degree_isps

        adopters = top_degree_isps(small_graph, 3)
        census = diamond_census(small_graph, adopters, small_cache)
        # the synthetic graph has multihomed stubs, so the structure
        # the paper's Table 1 counts must be plentiful
        assert census.total_contested > 0
        for asn in adopters:
            assert census.contested_stubs[asn] >= 0

    def test_destination_restriction(self, small_graph, small_cache):
        from repro.core.adopters import top_degree_isps

        adopters = top_degree_isps(small_graph, 2)
        stubs = small_graph.stub_indices[:10]
        census = diamond_census(
            small_graph, adopters, small_cache, destinations=stubs
        )
        full = diamond_census(small_graph, adopters, small_cache)
        assert census.total_contested <= full.total_contested

    def test_adopter_as_destination_skipped(self, small_graph, small_cache):
        """An adopter never counts itself as a contested destination."""
        stub_asn = small_graph.asn(small_graph.stub_indices[0])
        census = diamond_census(small_graph, [stub_asn], small_cache)
        assert stub_asn in census.contested_stubs


def census_by_destination(graph, early_adopter_asns, policy) -> DiamondCensus:
    """The census as a loop over one ``DestRouting`` per stub."""
    cache = RoutingCache(graph, policy=policy)
    adopters = [graph.index(asn) for asn in early_adopter_asns]
    contested = {asn: 0 for asn in early_adopter_asns}
    pairs = {asn: 0 for asn in early_adopter_asns}
    for dest in graph.stub_indices:
        dr = cache.dest_routing(dest)
        for a in adopters:
            size = len(dr.tiebreak_set(a)) if a != dest else 0
            if size >= 2:
                contested[graph.asn(a)] += 1
                pairs[graph.asn(a)] += size * (size - 1) // 2
    return DiamondCensus(contested_stubs=contested, competitor_pairs=pairs)


class TestCensusReadsPools:
    @pytest.mark.parametrize("policy", ["security_3rd", "sticky_primaries", "sp_first"])
    def test_same_integers_however_the_stubs_are_covered(self, small_graph, policy):
        adopters = cps_plus_top_isps(small_graph, 5) + [
            small_graph.asn(small_graph.stub_indices[3])
        ]
        want = census_by_destination(small_graph, adopters, policy)
        assert want.total_pairs > want.total_contested > 0
        stubs = small_graph.stub_indices
        for destinations in (None, stubs[::3] + [0, 1], []):
            cache = RoutingCache(small_graph, destinations=destinations, policy=policy)
            assert diamond_census(small_graph, adopters, cache) == want
            # the arena's rows for its own stubs, nothing kept for the others
            stats = cache.stats()
            assert stats.cached == stats.total == len(cache.destinations)
            assert stats.hits == 0
        if policy == "security_3rd":
            assert diamond_census(small_graph, adopters) == want

    def test_a_sampled_cache_does_not_grow_past_its_sample(self):
        sampled = build_environment(n=300, seed=2011, sample_destinations=32)
        assert sampled.cache.stats().cached == 32
        report = run_case_study(sampled)
        stats = sampled.cache.stats()
        assert (stats.cached, stats.total, stats.hits) == (32, 32, 0)
        full = build_environment(n=300, seed=2011)
        adopters = full.case_study_adopters()
        assert report.table1 == diamond_census(full.graph, adopters, full.cache)
        assert report.table1.total_contested > 32  # stubs far beyond the sample
