"""Tests for the hijack simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.security.hijack import simulate_attacks_batched, simulate_hijack
from repro.topology.graph import ASGraph


@pytest.fixture()
def contest_graph() -> ASGraph:
    """Victim 20 and attacker 30 both customers of hub 10; observers
    40 (customer of 10) and 50 (customer of 20, one hop closer to the
    victim)."""
    g = ASGraph()
    for asn in (10, 20, 30, 40, 50):
        g.add_as(asn)
    for c in (20, 30, 40):
        g.add_customer_provider(provider=10, customer=c)
    g.add_customer_provider(provider=20, customer=50)
    return g


def flags(g: ASGraph, secure_asns: list[int]) -> np.ndarray:
    out = np.zeros(g.n, dtype=bool)
    for asn in secure_asns:
        out[g.index(asn)] = True
    return out


class TestInsecureWorld:
    def test_equal_routes_split_by_hash(self, contest_graph):
        g = contest_graph
        out = simulate_hijack(g, g.index(20), g.index(30))
        # observer 40 sees two equal 2-hop provider routes; the hub
        # sees two 1-hop customer routes: hash decides, but *someone*
        # is consistent: 40 follows the hub's pick
        hub_pick = out.routes_to_attacker[g.index(10)]
        assert out.routes_to_attacker[g.index(40)] == hub_pick

    def test_victims_customer_resists(self, contest_graph):
        g = contest_graph
        out = simulate_hijack(g, g.index(20), g.index(30))
        # 50's customer route to its provider (the victim) beats the
        # provider-route alternative to the attacker: LP wins
        assert not out.routes_to_attacker[g.index(50)]

    def test_principals_never_counted(self, contest_graph):
        g = contest_graph
        out = simulate_hijack(g, g.index(20), g.index(30))
        assert not out.routes_to_attacker[g.index(20)]
        assert not out.routes_to_attacker[g.index(30)]

    def test_same_node_rejected(self, contest_graph):
        g = contest_graph
        with pytest.raises(ValueError):
            simulate_hijack(g, g.index(20), g.index(20))

    @pytest.mark.parametrize("bad", [-1, "n"])
    def test_an_index_outside_the_graph_is_rejected(self, contest_graph, bad):
        """A negative index must not alias node ``n - 1``: the scalar
        path refuses what the batched path refuses."""
        g = contest_graph
        bad = g.n if bad == "n" else bad
        other = g.index(30)
        for pair in ((bad, other), (other, bad)):
            with pytest.raises(ValueError, match="out of range"):
                simulate_hijack(g, *pair)
            with pytest.raises(ValueError, match="out of range"):
                simulate_attacks_batched(g, [pair])


class TestSecureWorld:
    def test_secp_tiebreak_saves_ties(self, contest_graph):
        g = contest_graph
        secure = flags(g, [10, 20, 40, 50])
        out = simulate_hijack(g, g.index(20), g.index(30), secure, secure)
        # the hub's two candidate routes tie on (class, length); the
        # victim's is fully secure, the attacker's cannot be
        assert not out.routes_to_attacker[g.index(10)]
        assert not out.routes_to_attacker[g.index(40)]

    def test_shorter_false_route_still_wins_tiebreak_mode(self):
        """Security is only a tie-break: a strictly shorter hijack
        route wins even against full deployment."""
        g = ASGraph()
        for asn in (1, 2, 3, 9):
            g.add_as(asn)
        g.add_customer_provider(provider=1, customer=2)
        g.add_customer_provider(provider=2, customer=3)   # victim 3, two hops
        g.add_customer_provider(provider=1, customer=9)   # attacker 9, one hop
        secure = np.ones(g.n, dtype=bool)
        out = simulate_hijack(g, g.index(3), g.index(9), secure, secure)
        assert out.routes_to_attacker[g.index(1)]

    def test_validation_filtering_stops_it(self):
        g = ASGraph()
        for asn in (1, 2, 3, 9):
            g.add_as(asn)
        g.add_customer_provider(provider=1, customer=2)
        g.add_customer_provider(provider=2, customer=3)
        g.add_customer_provider(provider=1, customer=9)
        secure = np.ones(g.n, dtype=bool)
        out = simulate_hijack(
            g, g.index(3), g.index(9), secure, secure, drop_unvalidated=True
        )
        assert not out.routes_to_attacker.any()

    def test_singlehomed_stub_always_captured(self, contest_graph):
        """§2.2.1: an attacker's own single-homed stubs are lost — the
        attacker is their only upstream."""
        g = contest_graph
        g.add_as(60)
        g.add_customer_provider(provider=30, customer=60)  # attacker's stub
        secure = flags(g, [10, 20, 30, 40, 50, 60])
        out = simulate_hijack(
            g, g.index(20), g.index(30), secure, secure, drop_unvalidated=True
        )
        assert out.routes_to_attacker[g.index(60)]
        fooled = np.flatnonzero(out.routes_to_attacker)
        assert list(fooled) == [g.index(60)]

    def test_gullible_vector_decides_for_multihomed_stub(self, contest_graph):
        """A stub multihomed to the victim and the attacker sees two
        equal 1-hop routes: if it cannot be conned (it trusts only
        validated secure paths through honest providers), SecP keeps it
        honest; if the attacker can vouch for its own announcement,
        both look secure and the stub may fall to the hash."""
        g = contest_graph
        g.add_as(60)
        g.add_customer_provider(provider=30, customer=60)
        g.add_customer_provider(provider=20, customer=60)  # also the victim's
        secure = flags(g, [10, 20, 30, 40, 50, 60])
        honest = simulate_hijack(
            g, g.index(20), g.index(30), secure, secure,
            attacker_convinces_own_stubs=False, drop_unvalidated=True,
        )
        assert not honest.routes_to_attacker.any()
        conned = simulate_hijack(
            g, g.index(20), g.index(30), secure, secure,
            attacker_convinces_own_stubs=True, drop_unvalidated=True,
        )
        fooled = set(np.flatnonzero(conned.routes_to_attacker))
        assert fooled <= {g.index(60)}  # nobody else can ever fall

    def test_partial_deployment_filtering_disconnects(self):
        """Filtering unvalidated routes before full deployment cuts
        insecure destinations off — the coexistence hazard."""
        g = ASGraph()
        for asn in (1, 2, 3):
            g.add_as(asn)
        g.add_customer_provider(provider=1, customer=2)
        g.add_customer_provider(provider=2, customer=3)  # victim 3 insecure
        g.add_as(9)
        g.add_customer_provider(provider=1, customer=9)  # attacker elsewhere
        secure = np.zeros(g.n, dtype=bool)
        secure[g.index(1)] = True  # validator, but path to 3 is unsigned
        out = simulate_hijack(
            g, g.index(3), g.index(9), secure, secure, drop_unvalidated=True
        )
        assert not out.reachable[g.index(1)]
