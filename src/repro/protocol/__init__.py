"""S*BGP protocol substrate: RPKI, S-BGP, soBGP, attacks, propagation."""

from repro.protocol.attacks import (
    AttackOutcome,
    evaluate_attack,
    forge_origin_hijack,
    forge_path_announcement,
)
from repro.protocol.messages import Announcement, RouteAttestation
from repro.protocol.router import ProtocolNetwork, RibEntry, SecurityLevel, SecurityMode
from repro.protocol.rpki import ROA, Prefix, RPKI, RPKIError, UnknownKeyError
from repro.protocol.sbgp import (
    forward,
    originate,
    sign_hop,
    validate_path,
    validated_signers,
)
from repro.protocol.sobgp import LinkCertificate, TopologyDatabase

__all__ = [
    "Announcement",
    "AttackOutcome",
    "LinkCertificate",
    "Prefix",
    "ProtocolNetwork",
    "ROA",
    "RPKI",
    "RPKIError",
    "RibEntry",
    "RouteAttestation",
    "SecurityLevel",
    "SecurityMode",
    "TopologyDatabase",
    "UnknownKeyError",
    "evaluate_attack",
    "forge_origin_hijack",
    "forge_path_announcement",
    "forward",
    "originate",
    "sign_hop",
    "validate_path",
    "validated_signers",
]
