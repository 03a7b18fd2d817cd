"""Tests for tiebreak-set statistics (Fig. 10 / §6.6-6.7)."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings

from repro.routing.cache import RoutingCache
from repro.routing.tiebreak import (
    TiebreakStats,
    collect_tiebreak_stats,
    security_sensitive_decision_fraction,
)
from repro.routing.tree import compute_dest_routing
from repro.topology.augment import mean_cp_path_length
from repro.topology.graph import ASGraph
from repro.topology.relationships import ASRole

from tests.strategies import as_graphs


def _diamond() -> ASGraph:
    g = ASGraph()
    for asn in (1, 2, 3, 4):
        g.add_as(asn)
    g.add_customer_provider(provider=1, customer=2)
    g.add_customer_provider(provider=1, customer=3)
    g.add_customer_provider(provider=2, customer=4)
    g.add_customer_provider(provider=3, customer=4)
    return g


def _collect_tiebreak_stats_loop(graph: ASGraph, destinations=None) -> TiebreakStats:
    """The pair-by-pair loop ``collect_tiebreak_stats`` used to be, kept
    verbatim as the reference for the ``np.bincount`` version."""
    if destinations is None:
        destinations = range(graph.n)
    roles = graph.roles
    hist: Counter[int] = Counter()
    total = 0.0
    count = 0
    isp_total = 0.0
    isp_count = 0
    isp_multi = 0
    stub_total = 0.0
    stub_count = 0
    multi = 0

    for dest in destinations:
        dr = compute_dest_routing(graph, dest)
        sizes = dr.tiebreak_sizes()
        src_roles = roles[dr.order]
        for size, role, node in zip(sizes, src_roles, dr.order):
            if node == dest:
                continue
            size = int(size)
            hist[size] += 1
            total += size
            count += 1
            if size > 1:
                multi += 1
            if role == ASRole.ISP:
                isp_total += size
                isp_count += 1
                if size > 1:
                    isp_multi += 1
            elif role == ASRole.STUB:
                stub_total += size
                stub_count += 1

    return TiebreakStats(
        histogram=dict(hist),
        mean=total / count if count else 0.0,
        mean_isp=isp_total / isp_count if isp_count else 0.0,
        mean_stub=stub_total / stub_count if stub_count else 0.0,
        multi_path_fraction=multi / count if count else 0.0,
        multi_path_fraction_isp=isp_multi / isp_count if isp_count else 0.0,
    )


class TestBincountMatchesLoop:
    """Exactly equal, not approximately: the histogram and every count
    are integers and each mean is the same ``total / count``."""

    def test_diamond(self):
        g = _diamond()
        assert collect_tiebreak_stats(g) == _collect_tiebreak_stats_loop(g)
        subset = [g.index(4), g.index(1)]
        assert collect_tiebreak_stats(g, destinations=subset) == (
            _collect_tiebreak_stats_loop(g, destinations=subset)
        )

    def test_no_destinations(self):
        g = _diamond()
        assert collect_tiebreak_stats(g, destinations=[]) == (
            _collect_tiebreak_stats_loop(g, destinations=[])
        )

    @given(as_graphs(min_nodes=4, max_nodes=18, with_cps=True))
    @settings(max_examples=60, deadline=None)
    def test_random_gr1_graphs(self, graph):
        assert collect_tiebreak_stats(graph) == _collect_tiebreak_stats_loop(graph)


    def test_through_a_sampled_cache(self, small_graph, small_chunks):
        """The arena's slots for the cache's own destinations, transient
        chunks for the others — the same integers whoever covers a
        destination, and nothing kept for the ones off the list."""
        n = small_graph.n
        sampled = RoutingCache(small_graph, destinations=list(range(0, n, 9)))
        full = RoutingCache(small_graph)
        for dests in (
            list(range(0, n, 4)),        # partly on the sampled list
            [5, 3, 5, n - 1, 0, 9, 3],   # unsorted and repeated
            list(range(1, n, 9)),        # all off the sampled list
            None,
        ):
            want = _collect_tiebreak_stats_loop(small_graph, dests)
            for cache in (None, full, sampled):
                assert collect_tiebreak_stats(small_graph, dests, cache=cache) == want
        stats = sampled.stats()
        assert stats.cached == stats.total == len(sampled.destinations)


class TestSmallGraph:
    @pytest.fixture()
    def diamond(self) -> ASGraph:
        return _diamond()

    def test_histogram_counts_pairs(self, diamond):
        stats = collect_tiebreak_stats(diamond)
        total_pairs = sum(stats.histogram.values())
        # reachable (src, dest) pairs excluding src == dest
        assert total_pairs == 12

    def test_multipath_detected(self, diamond):
        stats = collect_tiebreak_stats(diamond)
        assert stats.histogram.get(2, 0) >= 1  # node 1 toward dest 4
        assert stats.multi_path_fraction > 0

    def test_ccdf_monotone(self, diamond):
        stats = collect_tiebreak_stats(diamond)
        ccdf = stats.ccdf()
        values = [p for _, p in ccdf]
        assert values == sorted(values, reverse=True)
        assert ccdf[0][1] == pytest.approx(1.0)

    def test_destination_subset(self, diamond):
        stats = collect_tiebreak_stats(diamond, destinations=[diamond.index(4)])
        assert sum(stats.histogram.values()) == 3

    def test_mean_path_length(self, diamond):
        # per destination the three other nodes sum to 4 hops (1+1+2),
        # e.g. dest 4: 2->4 and 3->4 direct, 1->4 two hops; 12 pairs total,
        # three per source, so the mean of the per-source means is 16/12
        means = [mean_cp_path_length(diamond, asn) for asn in diamond.asns]
        assert sum(means) / len(means) == pytest.approx(16 / 12)


class TestPaperStatistics:
    """The paper's headline tiebreak numbers at synthetic scale."""

    @pytest.fixture(scope="class")
    def stats(self, small_graph, small_cache):
        return collect_tiebreak_stats(small_graph, cache=small_cache)

    def test_mean_is_small(self, stats):
        # paper: mean 1.18 across pairs; generous bounds for synthetic
        assert 1.0 <= stats.mean <= 1.8

    def test_isps_have_larger_sets_than_stubs(self, stats):
        assert stats.mean_isp >= stats.mean_stub

    def test_most_pairs_single_path(self, stats):
        # paper: only ~20% of tiebreak sets have more than one path
        assert stats.multi_path_fraction < 0.5

    def test_security_sensitive_fraction(self, small_graph, stats):
        # paper (§6.7): ~3.5% of routing decisions
        frac = security_sensitive_decision_fraction(small_graph, stats)
        assert 0.0 < frac < 0.15
