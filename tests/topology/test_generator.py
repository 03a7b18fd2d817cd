"""The synthetic topology must reproduce the paper's structural stats."""

from __future__ import annotations

import hashlib
import types

import pytest

from repro.topology import generator
from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.relationships import ASRole
from repro.topology.stats import multihomed_stub_fraction, summarize, top_by_degree


class TestConfigValidation:
    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            TopologyConfig(n=5)

    def test_bad_stub_fraction_rejected(self):
        with pytest.raises(ValueError):
            TopologyConfig(stub_fraction=1.5)

    def test_bad_multihoming_rejected(self):
        with pytest.raises(ValueError):
            TopologyConfig(stub_multihoming=(0.5, 0.5, 0.5))

    def test_positional_n_is_a_type_error(self, monkeypatch):
        def no_rng(*args, **kwargs):
            raise AssertionError("work started before the argument check")

        monkeypatch.setattr(generator, "random", types.SimpleNamespace(Random=no_rng))
        with pytest.raises(TypeError, match=r"TopologyConfig.*n="):
            generate_topology(1000, seed=7)
        with pytest.raises(TypeError, match=r"TopologyConfig.*n="):
            generate_topology(1000)

    def test_overrides_via_kwargs(self):
        top = generate_topology(n=120, seed=9, num_tier1=4)
        assert top.config.n == 120
        assert len(top.tier1_asns) == 4


class TestStructure:
    @pytest.fixture(scope="class")
    def topology(self):
        return generate_topology(n=600, seed=11)

    def test_gr1_holds(self, topology):
        topology.graph.validate()  # raises on a cycle

    def test_stub_fraction_near_85_percent(self, topology):
        s = summarize(topology.graph)
        assert abs(s.stub_fraction - 0.85) < 0.03

    def test_five_content_providers(self, topology):
        assert summarize(topology.graph).num_cps == 5
        for cp in topology.cp_asns:
            assert topology.graph.role(cp) is ASRole.CP
            # CPs never provide transit
            assert topology.graph.customers_of(cp) == []

    def test_tier1_clique_peering(self, topology):
        t1 = topology.tier1_asns
        for i, a in enumerate(t1):
            for b in t1[i + 1:]:
                assert topology.graph.has_edge(a, b)

    def test_tier1s_have_no_providers(self, topology):
        for asn in topology.tier1_asns:
            assert topology.graph.providers_of(asn) == []

    def test_everyone_else_has_a_provider(self, topology):
        g = topology.graph
        t1 = set(topology.tier1_asns)
        for asn in g.asns:
            if asn not in t1:
                assert g.providers_of(asn), f"AS {asn} has no provider"

    def test_peering_ratio_near_target(self, topology):
        s = summarize(topology.graph)
        ratio = s.num_peering_edges / s.num_ases
        assert 0.7 <= ratio <= 1.4  # paper: ~1.05

    def test_degree_skew(self, topology):
        """Top ASes must dwarf the median (the skew the paper leverages)."""
        g = topology.graph
        top = top_by_degree(g, 1)[0]
        degrees = sorted(g.degree(a) for a in g.asns)
        median = degrees[len(degrees) // 2]
        assert g.degree(top) > 10 * median

    def test_multihoming_exists(self, topology):
        """Without multihomed stubs there are no DIAMONDs to compete over."""
        assert multihomed_stub_fraction(topology.graph) > 0.3

    def test_ixp_members_are_in_graph(self, topology):
        for members in topology.ixp_members:
            for asn in members:
                assert asn in topology.graph

    def test_all_ixp_member_asns_deduplicated(self, topology):
        flat = topology.all_ixp_member_asns
        assert len(flat) == len(set(flat))


class TestDeterminism:
    def test_same_seed_same_graph(self):
        a = generate_topology(n=150, seed=4)
        b = generate_topology(n=150, seed=4)
        assert sorted(a.graph.edges()) == sorted(b.graph.edges())

    def test_different_seed_different_graph(self):
        a = generate_topology(n=150, seed=4)
        b = generate_topology(n=150, seed=5)
        assert sorted(a.graph.edges()) != sorted(b.graph.edges())


#: blake2b digests of every generated graph's adjacency lists, in order,
#: plus its Tier-1, CP and IXP lists.  The generator's contract is the
#: draw sequence of its one ``random.Random(seed)``: a change to the
#: order or the kind of draws (or to CPython's ``random`` internals)
#: changes the graph and fails this pin.  n <= 40 takes
#: ``random.sample``'s list branch and the provider picker's tiny pools.
_DRAW_DIGESTS = {
    (20, 2011): "ac3dee64bc5a2651a29a1bb94bcb2e99",
    (20, 7): "0c0e3111d8e6aa5dad76af623df91957",
    (21, 2011): "c99d7692082bdbd5eeaaf11e554cd9c3",
    (21, 7): "bc5950fba2a67bf725ab3d618221da43",
    (25, 2011): "c34a2ef5fa3bc88a6f5748cfeccf5c1d",
    (25, 7): "91b98b6bf323b367a7b8d9dd89d648f7",
    (40, 2011): "f68706edece0bbd28ff472f6d3adcee3",
    (40, 7): "a0b3b9f8ac5fbd384b38d73761e6bff4",
    (150, 2011): "7cf613b9a00c6038a9a28df11825e281",
    (150, 7): "d2c8305d8600cabcba7150f09396e470",
    (1000, 2011): "2fd51edbcfb419224bac9768878bb2f4",
    (1000, 7): "71c763f988a2439c36502ce8a33bfae4",
    (8000, 2011): "0afa6758fdad0c92be7af11b99593e01",
    (8000, 7): "8543ba200af893775e38d09dd90ecb21",
}


def _draw_digest(top) -> str:
    h = hashlib.blake2b(digest_size=16)
    g = top.graph
    for part in (
        g.customers, g.providers, g.peers,
        top.tier1_asns, top.cp_asns, top.ixp_members,
    ):
        h.update(repr(part).encode())
    return h.hexdigest()


class TestDrawSequence:
    @pytest.mark.parametrize("n, seed", sorted(_DRAW_DIGESTS))
    def test_graph_is_pinned(self, n, seed):
        top = generate_topology(n=n, seed=seed)
        assert _draw_digest(top) == _DRAW_DIGESTS[n, seed]
