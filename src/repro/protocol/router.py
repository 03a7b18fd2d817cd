"""Message-level BGP/S*BGP propagation over an AS graph.

This is the protocol-plane companion to the routing substrate: real
:class:`Announcement` objects flow hop by hop, get signed by deploying
ASes, and are validated by receivers.  It exists to demonstrate the
security semantics the deployment model abstracts over — in particular
the Appendix-B attack showing why *partially* secure paths must not be
preferred over insecure ones.

Route selection uses the same policy model as the rest of the library
(LP > SP > SecP > TB with GR2 export); a per-node opt-in
``prefer_partially_secure`` implements the rejected ranking variant the
attack exploits.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.protocol.messages import Announcement
from repro.protocol.rpki import RPKI, Prefix
from repro.protocol.sbgp import forward, originate, validated_signers
from repro.routing.policy import RouteClass, exportable_to, tie_hash
from repro.routing.reference import ConvergenceError
from repro.topology.graph import ASGraph


class SecurityMode(enum.Enum):
    """How much of S*BGP an AS runs."""

    INSECURE = "insecure"
    SIMPLEX = "simplex"  # signs own-prefix originations; never validates
    FULL = "full"        # signs everything and validates received paths


class SecurityLevel(enum.IntEnum):
    """Validation outcome for one announcement at one receiver."""

    FULLY_SECURE = 0
    PARTIALLY_SECURE = 1
    INSECURE = 2


@dataclasses.dataclass(frozen=True)
class RibEntry:
    """A node's selected route for one prefix."""

    announcement: Announcement
    route_class: RouteClass
    level: SecurityLevel

    @property
    def path(self) -> tuple[int, ...]:
        return self.announcement.path


class ProtocolNetwork:
    """A small network of BGP speakers over an :class:`ASGraph`.

    Parameters
    ----------
    graph:
        Topology (AS numbers are used as identities everywhere here).
    rpki:
        Key/ROA registry; every FULL or SIMPLEX AS must be registered.
    modes:
        Per-AS :class:`SecurityMode` (defaults to INSECURE).
    prefer_partially_secure:
        ASes that rank partially-secure paths above insecure ones — the
        dangerous variant Appendix B warns about.  Empty by default.
    drop_invalid_origin:
        FULL validators drop announcements whose origin violates an
        existing ROA (RPKI origin validation).
    leakers:
        ASes that violate GR2 and re-export *everything* to everyone (a
        route leak).  Leaked announcements carry genuine signatures, so
        S*BGP validation accepts them: path validation authenticates
        who sent what, it does not police export policy.
    """

    def __init__(
        self,
        graph: ASGraph,
        rpki: RPKI,
        modes: dict[int, SecurityMode] | None = None,
        prefer_partially_secure: set[int] | None = None,
        drop_invalid_origin: bool = True,
        leakers: set[int] | None = None,
    ):
        self.graph = graph
        self.rpki = rpki
        self.modes = dict(modes or {})
        self.prefer_partial = set(prefer_partially_secure or ())
        self.drop_invalid_origin = drop_invalid_origin
        self.leakers = set(leakers or ())
        self._originations: dict[Prefix, int] = {}
        self._injections: list[tuple[int, Announcement]] = []
        self.ribs: dict[int, dict[Prefix, RibEntry]] = {asn: {} for asn in graph.asns}
        for asn, mode in self.modes.items():
            if mode is not SecurityMode.INSECURE:
                rpki.register_as(asn)

    def mode_of(self, asn: int) -> SecurityMode:
        """Security mode of ``asn`` (INSECURE if unset)."""
        return self.modes.get(asn, SecurityMode.INSECURE)

    def originate_prefix(self, asn: int, prefix: Prefix, issue_roa: bool = True) -> None:
        """``asn`` legitimately originates ``prefix``."""
        if issue_roa:
            self.rpki.issue_roa(prefix, asn)
        self._originations[prefix] = asn

    def inject(self, attacker: int, announcement: Announcement) -> None:
        """``attacker`` emits a (typically forged) announcement to all
        its neighbors, ignoring export policy."""
        self._injections.append((attacker, announcement))

    # ------------------------------------------------------------------
    def converge(self, max_sweeps: int = 1000) -> None:
        """Iterate selection sweeps until the RIBs stop changing; raises
        :class:`~repro.routing.reference.ConvergenceError` if a sweep
        still changes one after ``max_sweeps``."""
        prefixes = set(self._originations) | {a.prefix for _, a in self._injections}
        for _ in range(max_sweeps):
            if not self._sweep(prefixes):
                return
        raise ConvergenceError(f"protocol network did not converge in {max_sweeps} sweeps")

    def _sweep(self, prefixes: set[Prefix]) -> bool:
        changed = False
        for asn in self.graph.asns:
            for prefix in prefixes:
                entry = self._select(asn, prefix)
                if self.ribs[asn].get(prefix) != entry:
                    changed = True
                    if entry is None:
                        self.ribs[asn].pop(prefix, None)
                    else:
                        self.ribs[asn][prefix] = entry
        return changed

    def _select(self, asn: int, prefix: Prefix) -> RibEntry | None:
        if self._originations.get(prefix) == asn:
            return None  # the legitimate origin keeps its own prefix local
        offers = list(self._offers_to(asn, prefix))
        if not offers:
            return None
        best = min(
            offers,
            key=lambda entry: (
                -int(entry.route_class),
                len(entry.path) - 1,
                int(entry.level),
                tie_hash(self.graph.index(asn), self.graph.index(entry.path[0])),
            ),
        )
        return best

    def _offers_to(self, asn: int, prefix: Prefix):
        """Candidate routes ``asn`` hears for ``prefix`` this sweep."""
        graph = self.graph
        neighbor_kinds = (
            (RouteClass.CUSTOMER, graph.customers_of(asn)),
            (RouteClass.PEER, graph.peers_of(asn)),
            (RouteClass.PROVIDER, graph.providers_of(asn)),
        )
        for kind, neighbors in neighbor_kinds:
            for nbr in neighbors:
                ann = self._announcement_from(nbr, asn, prefix, kind)
                if ann is None or ann.contains_loop(asn):
                    continue
                level = self._classify(asn, ann)
                if level is None:
                    continue  # dropped by validation
                yield RibEntry(announcement=ann, route_class=kind, level=level)

    def _announcement_from(
        self, nbr: int, receiver: int, prefix: Prefix, kind: RouteClass
    ) -> Announcement | None:
        """What ``nbr`` announces to ``receiver`` for ``prefix``, or None."""
        mode = self.mode_of(nbr)
        # attacker injections reach every neighbor regardless of policy
        for attacker, ann in self._injections:
            if attacker == nbr and ann.prefix == prefix:
                return ann
        if self._originations.get(prefix) == nbr:
            signs = mode in (SecurityMode.FULL, SecurityMode.SIMPLEX)
            if signs:
                return originate(self.rpki, nbr, prefix, receiver)
            return Announcement(prefix=prefix, path=(nbr,))
        entry = self.ribs[nbr].get(prefix)
        if entry is None:
            return None
        # GR2 — unless the neighbor is misconfigured and leaks everything.
        # ``kind`` is how ``receiver`` hears ``nbr``: from a provider
        # means ``receiver`` is ``nbr``'s customer.
        if nbr not in self.leakers and not exportable_to(
            entry.route_class, neighbor_is_customer=kind is RouteClass.PROVIDER
        ):
            return None
        # SIMPLEX ASes sign only their own prefixes, never transit.
        signs = self.mode_of(nbr) is SecurityMode.FULL
        return forward(self.rpki, nbr, entry.announcement, receiver, sign=signs)

    def _classify(self, receiver: int, ann: Announcement) -> SecurityLevel | None:
        """Validate at ``receiver``; None means drop the announcement."""
        if self.mode_of(receiver) is not SecurityMode.FULL:
            return SecurityLevel.INSECURE
        if (
            self.drop_invalid_origin
            and self.rpki.has_roa(ann.prefix)
            and not self.rpki.origin_valid(ann.prefix, ann.origin)
        ):
            return None
        valid = validated_signers(self.rpki, ann, receiver)
        if valid == set(ann.path):
            return SecurityLevel.FULLY_SECURE
        if valid and receiver in self.prefer_partial:
            return SecurityLevel.PARTIALLY_SECURE
        return SecurityLevel.INSECURE

    # ------------------------------------------------------------------
    def route_of(self, asn: int, prefix: Prefix) -> RibEntry | None:
        """``asn``'s selected route for ``prefix`` after convergence."""
        return self.ribs[asn].get(prefix)

    def path_of(self, asn: int, prefix: Prefix) -> tuple[int, ...] | None:
        """AS path (next hop first) of ``asn``'s selected route."""
        entry = self.route_of(asn, prefix)
        return entry.path if entry else None
