"""Tests for early-adopter selection strategies."""

from __future__ import annotations

from repro.core.adopters import (
    content_providers,
    cps_plus_top_isps,
    random_isps,
    top_degree_isps,
)
from repro.topology.relationships import ASRole


class TestBasicStrategies:
    def test_top_degree_sorted_and_isps(self, small_graph):
        top = top_degree_isps(small_graph, 5)
        assert len(top) == 5
        degrees = [small_graph.degree(a) for a in top]
        assert degrees == sorted(degrees, reverse=True)
        for asn in top:
            assert small_graph.role(asn) is ASRole.ISP

    def test_content_providers(self, small_graph):
        cps = content_providers(small_graph)
        assert len(cps) == 5
        for asn in cps:
            assert small_graph.role(asn) is ASRole.CP

    def test_cps_plus_top(self, small_graph):
        combo = cps_plus_top_isps(small_graph, 5)
        assert len(combo) == 10
        assert set(content_providers(small_graph)) <= set(combo)

    def test_random_deterministic_per_seed(self, small_graph):
        a = random_isps(small_graph, 8, seed=1)
        b = random_isps(small_graph, 8, seed=1)
        c = random_isps(small_graph, 8, seed=2)
        assert a == b
        assert a != c
        for asn in a:
            assert small_graph.role(asn) is ASRole.ISP

    def test_random_k_larger_than_population(self, small_graph):
        isps = [small_graph.asn(i) for i in small_graph.isp_indices]
        assert len(random_isps(small_graph, 10 ** 6)) == len(isps)

