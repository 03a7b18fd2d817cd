"""Attack library: the failures S*BGP exists to stop (§1, App. B).

Three canonical attacks, each paired with the mechanism that defeats it:

- **origin hijack** — announce someone else's prefix as your own;
  stopped by RPKI origin validation (ROAs).
- **path shortening / fabricated link** — announce a path through a
  link or AS that never sent it; stopped by S-BGP path validation or
  soBGP topology validation.
- **partially-secure preference** (Appendix B, Figure 15) — *not* an
  attack on S*BGP itself but on a tempting mis-ranking: preferring
  partially-secure paths over insecure ones lets an attacker dress up
  a false path with a few genuine signatures and beat a true-but-
  insecure route.  This is why the paper's proposal only prefers
  *fully* secure paths.
"""

from __future__ import annotations

import dataclasses

from repro.protocol.messages import Announcement
from repro.protocol.router import ProtocolNetwork, SecurityLevel
from repro.protocol.rpki import Prefix


def forge_origin_hijack(attacker: int, prefix: Prefix) -> Announcement:
    """The attacker claims to originate ``prefix`` itself."""
    return Announcement(prefix=prefix, path=(attacker,))


def forge_path_announcement(
    attacker: int, fake_path: tuple[int, ...], prefix: Prefix
) -> Announcement:
    """The attacker claims a path through ASes that never announced it.

    ``fake_path`` must start with the attacker; no attestations from
    the spoofed ASes can be produced, so full validation fails.
    """
    if fake_path[0] != attacker:
        raise ValueError("fake path must start with the attacker")
    return Announcement(prefix=prefix, path=fake_path)


@dataclasses.dataclass(frozen=True)
class AttackOutcome:
    """Did the attacker capture the victim's traffic to the prefix?"""

    victim: int
    prefix: Prefix
    chosen_path: tuple[int, ...] | None
    attacker_on_path: bool
    security_level: SecurityLevel | None


def evaluate_attack(
    network: ProtocolNetwork, victim: int, attacker: int, prefix: Prefix
) -> AttackOutcome:
    """Converge the network and report whether ``victim`` routes to the
    attacker for ``prefix``."""
    network.converge()
    entry = network.route_of(victim, prefix)
    path = entry.path if entry else None
    return AttackOutcome(
        victim=victim,
        prefix=prefix,
        chosen_path=path,
        attacker_on_path=bool(path and attacker in path),
        security_level=entry.level if entry else None,
    )

