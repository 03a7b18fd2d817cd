"""Tests for the message-level protocol network."""

from __future__ import annotations

import pytest

from repro.protocol.attacks import forge_origin_hijack
from repro.protocol.router import ProtocolNetwork, SecurityLevel, SecurityMode
from repro.protocol.rpki import Prefix, RPKI
from repro.routing.reference import ConvergenceError
from repro.topology.graph import ASGraph

PFX = Prefix("203.0.113.0", 24)


def hub_graph() -> ASGraph:
    """Hub 10 provides to 20 (origin), 30 (attacker), 40 (observer)."""
    g = ASGraph()
    for asn in (10, 20, 30, 40):
        g.add_as(asn)
    for customer in (20, 30, 40):
        g.add_customer_provider(provider=10, customer=customer)
    return g


class TestPropagation:
    def test_reaches_everyone(self):
        g = hub_graph()
        net = ProtocolNetwork(g, RPKI(seed=b"a"))
        net.originate_prefix(20, PFX, issue_roa=False)
        net.converge()
        assert net.path_of(40, PFX) == (10, 20)
        assert net.path_of(10, PFX) == (20,)
        assert net.route_of(20, PFX) is None  # origin keeps it local

    def test_gr2_blocks_peer_to_peer_transit(self):
        g = ASGraph()
        for asn in (1, 2, 3):
            g.add_as(asn)
        g.add_peering(1, 2)
        g.add_peering(2, 3)
        net = ProtocolNetwork(g, RPKI(seed=b"b"))
        net.originate_prefix(3, PFX, issue_roa=False)
        net.converge()
        assert net.path_of(2, PFX) == (3,)
        assert net.route_of(1, PFX) is None  # 2 must not re-export peer route

    def test_customer_route_preferred(self):
        g = ASGraph()
        for asn in (1, 2, 3):
            g.add_as(asn)
        # 1 can reach 3 via customer 2 (longer) or via direct peering
        g.add_customer_provider(provider=1, customer=2)
        g.add_customer_provider(provider=2, customer=3)
        g.add_peering(1, 3)
        net = ProtocolNetwork(g, RPKI(seed=b"c"))
        net.originate_prefix(3, PFX, issue_roa=False)
        net.converge()
        assert net.path_of(1, PFX) == (2, 3)  # LP beats shorter peer route

    def test_sweep_cap_fails_typed(self):
        """One sweep cannot confirm a fixpoint: the first always fills a
        RIB.  Running out of sweeps is the typed non-convergence error
        (still a ``RuntimeError``)."""
        g = ASGraph()
        for asn in (1, 2, 3):
            g.add_as(asn)
        g.add_customer_provider(provider=1, customer=2)
        g.add_customer_provider(provider=2, customer=3)
        net = ProtocolNetwork(g, RPKI(seed=b"e"))
        net.originate_prefix(3, PFX, issue_roa=False)
        with pytest.raises(ConvergenceError, match="1 sweeps"):
            net.converge(max_sweeps=1)
        net.converge()
        assert net.path_of(1, PFX) == (2, 3)


class TestValidation:
    def test_full_validators_see_secure_level(self):
        g = hub_graph()
        rpki = RPKI(seed=b"d")
        modes = {asn: SecurityMode.FULL for asn in (10, 20, 40)}
        net = ProtocolNetwork(g, rpki, modes)
        net.originate_prefix(20, PFX)
        net.converge()
        assert net.route_of(40, PFX).level is SecurityLevel.FULLY_SECURE

    def test_insecure_hop_downgrades(self):
        g = hub_graph()
        rpki = RPKI(seed=b"e")
        modes = {20: SecurityMode.FULL, 40: SecurityMode.FULL}  # hub insecure
        net = ProtocolNetwork(g, rpki, modes)
        net.originate_prefix(20, PFX)
        net.converge()
        assert net.route_of(40, PFX).level is SecurityLevel.INSECURE

    def test_simplex_signs_own_prefix_only(self):
        g = ASGraph()
        for asn in (1, 2, 3):
            g.add_as(asn)
        g.add_customer_provider(provider=2, customer=1)  # 1 originates
        g.add_customer_provider(provider=3, customer=2)
        rpki = RPKI(seed=b"f")
        modes = {1: SecurityMode.SIMPLEX, 2: SecurityMode.SIMPLEX, 3: SecurityMode.FULL}
        net = ProtocolNetwork(g, rpki, modes)
        net.originate_prefix(1, PFX)
        net.converge()
        # 2 is simplex: it does not sign transit, so 3 sees a broken chain
        assert net.route_of(3, PFX).level is SecurityLevel.INSECURE

    def test_origin_validation_drops_hijack(self):
        g = hub_graph()
        rpki = RPKI(seed=b"g")
        modes = {10: SecurityMode.FULL, 20: SecurityMode.SIMPLEX, 40: SecurityMode.FULL}
        net = ProtocolNetwork(g, rpki, modes)
        net.originate_prefix(20, PFX)  # issues a ROA for 20
        net.inject(30, forge_origin_hijack(30, PFX))
        net.converge()
        # the validating hub drops the bad-origin announcement entirely
        assert net.path_of(40, PFX) == (10, 20)

    def test_hijack_wins_without_validation(self):
        g = hub_graph()
        net = ProtocolNetwork(g, RPKI(seed=b"h"))
        net.originate_prefix(20, PFX, issue_roa=False)
        net.inject(30, forge_origin_hijack(30, PFX))
        net.converge()
        # equal-length routes; the observer's fate rests on a hash
        # tie-break, and the hub itself now has two one-hop customer
        # routes: the forged one competes on equal footing
        path = net.path_of(10, PFX)
        assert path in ((20,), (30,))
