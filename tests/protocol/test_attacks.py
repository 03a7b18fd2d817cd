"""Tests for the attack library and the Appendix-B demonstration."""

from __future__ import annotations

import pytest

from repro.gadgets.attack_network import build_attack_network
from repro.protocol.attacks import (
    evaluate_attack,
    forge_origin_hijack,
    forge_path_announcement,
)
from repro.protocol.messages import Announcement
from repro.protocol.router import SecurityLevel
from repro.protocol.rpki import Prefix
from repro.protocol.sbgp import sign_hop, validate_path, validated_signers

PFX = Prefix("198.18.0.0", 15)


class TestForgeries:
    def test_origin_hijack_shape(self):
        ann = forge_origin_hijack(666, PFX)
        assert ann.path == (666,)
        assert ann.attestations == ()

    def test_fake_path_must_start_with_attacker(self):
        with pytest.raises(ValueError):
            forge_path_announcement(666, (1, 2), PFX)

    def test_fake_path_shape(self):
        ann = forge_path_announcement(666, (666, 42), PFX)
        assert ann.origin == 42


def _sign_own_hop(net, attacker, ann, receiver):
    """``ann`` with the attacker's one genuine signature for ``receiver``."""
    att = sign_hop(net.rpki, attacker, ann.prefix, ann.path, receiver)
    return Announcement(prefix=ann.prefix, path=ann.path, attestations=(att,))


class TestSignedForgeries:
    """A lone genuine signature on a false path: verifies for the
    attacker's hop, never for the spoofed ones (Appendix B's lever)."""

    def test_signed_false_path_attacker_hop_only(self):
        gadget = build_attack_network()
        net = gadget.build_protocol_network(p_prefers_partial=False)
        ann = forge_path_announcement(gadget.m, (gadget.m, gadget.v), gadget.prefix)
        assert ann.attestations == ()  # nothing signed yet

        signed = _sign_own_hop(net, gadget.m, ann, receiver=gadget.p)
        assert len(signed.attestations) == 1
        assert validated_signers(net.rpki, signed, gadget.p) == {gadget.m}
        # the chain stays broken at the spoofed hop: never fully secure
        assert not validate_path(net.rpki, signed, gadget.p)

    def test_signature_is_receiver_specific(self):
        gadget = build_attack_network()
        net = gadget.build_protocol_network(p_prefers_partial=False)
        ann = forge_path_announcement(gadget.m, (gadget.m, gadget.v), gadget.prefix)
        signed = _sign_own_hop(net, gadget.m, ann, receiver=gadget.p)
        # addressed to p: verifying from r must reject even the
        # attacker's own genuine hop
        assert validated_signers(net.rpki, signed, gadget.r) == set()


class TestAppendixB:
    """Fig. 15: preferring partially-secure paths is exploitable."""

    @pytest.fixture(scope="class")
    def network(self):
        return build_attack_network()

    def test_honest_ranking_resists(self, network):
        net = network.build_protocol_network(p_prefers_partial=False)
        out = evaluate_attack(net, victim=network.p, attacker=network.m,
                              prefix=network.prefix)
        assert not out.attacker_on_path
        assert out.chosen_path == (network.r, network.s, network.v)

    def test_partial_preference_falls(self, network):
        net = network.build_protocol_network(p_prefers_partial=True)
        out = evaluate_attack(net, victim=network.p, attacker=network.m,
                              prefix=network.prefix)
        assert out.attacker_on_path
        assert out.security_level is SecurityLevel.PARTIALLY_SECURE

    def test_false_path_equal_length(self, network):
        """The attack needs equally-good routes, or LP/SP would decide."""
        net = network.build_protocol_network(p_prefers_partial=False)
        net.converge()
        honest = net.path_of(network.p, network.prefix)
        assert honest is not None and len(honest) == 3
