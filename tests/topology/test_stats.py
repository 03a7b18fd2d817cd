"""Tests for topology statistics (Tables 2-4 inputs)."""

from __future__ import annotations

from repro.topology.generator import generate_topology
from repro.topology.graph import ASGraph
from repro.topology.relationships import ASRole
from repro.topology.stats import (
    degree_array,
    stub_customer_counts,
    summarize,
    top_by_degree,
)


def simple_graph() -> ASGraph:
    g = ASGraph(cp_asns=[9])
    for asn in (1, 2, 3, 4, 9):
        g.add_as(asn)
    g.add_customer_provider(provider=1, customer=2)
    g.add_customer_provider(provider=1, customer=3)
    g.add_customer_provider(provider=2, customer=3)  # stub 3 multihomed
    g.add_customer_provider(provider=1, customer=4)
    g.add_customer_provider(provider=1, customer=9)
    return g


class TestSummary:
    def test_counts(self):
        s = summarize(simple_graph())
        assert s.num_ases == 5
        assert s.num_cps == 1
        assert s.num_isps == 2  # ASes 1, 2
        assert s.num_stubs == 2  # ASes 3, 4
        assert s.num_customer_provider_edges == 5
        assert s.num_peering_edges == 0

    def test_stub_fraction(self):
        assert summarize(simple_graph()).stub_fraction == 0.4

    def test_empty_graph(self):
        s = summarize(ASGraph())
        assert s.num_ases == 0
        assert s.stub_fraction == 0.0


class TestDegrees:
    def test_degree_array_matches_graph(self):
        g = simple_graph()
        degrees = degree_array(g)
        for asn in g.asns:
            assert degrees[g.index(asn)] == g.degree(asn)

    def test_top_by_degree_isps_only(self):
        g = simple_graph()
        assert top_by_degree(g, 2) == [1, 2]

    def test_top_by_degree_any_role(self):
        g = simple_graph()
        assert top_by_degree(g, 1, role=None) == [1]

    def test_top_k_larger_than_population(self):
        g = simple_graph()
        assert len(top_by_degree(g, 100)) == 2

    def test_ties_rank_by_as_number_as_the_sorted_reference_does(self):
        def reference(graph, role):
            candidates = range(graph.n) if role is None else graph.indices_with_role(role)
            ranked = sorted(candidates, key=lambda i: (-graph.degree_of_index(i), graph.asn(i)))
            return [graph.asn(i) for i in ranked]

        # equal degrees everywhere, AS numbers out of index order
        ring = ASGraph()
        for asn in (50, 7, 300, 12, 9, 41):
            ring.add_as(asn)
        for a, b in ((50, 7), (7, 300), (300, 12), (12, 9), (9, 41), (41, 50)):
            ring.add_peering(a, b)
        assert top_by_degree(ring, 6, role=None) == [7, 9, 12, 41, 50, 300]
        for seed in (1, 2011):
            g = generate_topology(n=300, seed=seed).graph
            degrees = degree_array(g)[g.isp_indices]
            assert len(set(degrees.tolist())) < len(degrees)  # ISPs tie on degree
            for role in (ASRole.ISP, ASRole.STUB, None):
                assert top_by_degree(g, g.n, role=role) == reference(g, role)


class TestStubStats:
    def test_stub_customer_counts(self):
        counts = stub_customer_counts(simple_graph())
        assert counts[1] == 2  # stubs 3 and 4 (9 is a CP)
        assert counts[2] == 1

    def test_paper_stub_claim_shape(self):
        """§2.2.1: most ISPs have few stub customers, a few have many."""
        top = generate_topology(n=500, seed=6)
        counts = sorted(stub_customer_counts(top.graph).values())
        median = counts[len(counts) // 2]
        assert median <= 10
        assert counts[-1] > 3 * max(1, median)
