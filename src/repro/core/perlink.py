"""Per-link S*BGP deployment (§8.3, Theorems 8.2 / J.1 / J.2).

An ISP might activate S*BGP with only a subset of its neighbors.  The
paper proves that choosing the incoming-utility-maximising link subset
is NP-hard (even to approximate), while under outgoing utility securing
*all* links is optimal — so per-link cleverness only matters in the
incoming model, and only as a hazard.

Here a link is *active* for security purposes when **both** endpoints
have enabled S*BGP toward each other; a path is fully secure iff every
AS on it is secure and every hop crosses an active link.  Utilities are
computed by a fixpoint route selection (per-link security breaks the
tiebreak-set reuse of Observation C.1, so the analytic engine does not
apply); this is intended for gadget-sized graphs and brute-force link
subsets (the paper: "the problem is tractable when the node's neighbor
set is of constant size").
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from repro.core.config import UtilityModel
from repro.routing.policy import RouteClass
from repro.routing.reference import propagate
from repro.topology.graph import ASGraph


@dataclasses.dataclass(frozen=True)
class _Route:
    route_class: RouteClass
    length: int
    secure: bool
    next_hop: int


def routes_with_link_security(
    graph: ASGraph,
    dest: int,
    node_secure: np.ndarray,
    breaks_ties: np.ndarray,
    disabled_links: dict[int, set[int]] | None = None,
) -> dict[int, _Route]:
    """Fixpoint route selection with per-link security semantics, under
    the default ranking: :func:`~repro.routing.reference.propagate`
    with the disabled links unprotected.  Raises
    :class:`~repro.routing.reference.ConvergenceError` if it does not
    converge."""
    disabled = disabled_links or {}

    def pin(cls, length, sec, att):
        cls[dest], length[dest], sec[dest] = RouteClass.SELF, 0, node_secure[dest]

    cls, length, sec, _, hop = propagate(
        graph, pin, node_secure, node_secure & breaks_ties,
        protected=lambda a, b: b not in disabled.get(a, ()) and a not in disabled.get(b, ()),
        what="per-link route selection",
    )
    hop[dest] = dest
    return {
        i: _Route(RouteClass(cls[i]), int(length[i]), bool(sec[i]), int(hop[i]))
        for i in np.flatnonzero(cls != RouteClass.UNREACHABLE).tolist()
    }


def utility_with_links(
    graph: ASGraph,
    node_secure: np.ndarray,
    breaks_ties: np.ndarray,
    isp: int,
    disabled_links: dict[int, set[int]] | None = None,
    model: UtilityModel = UtilityModel.INCOMING,
) -> float:
    """Utility of ``isp`` with the given per-link configuration."""
    total = 0.0
    w = graph.weights
    for dest in range(graph.n):
        selection = routes_with_link_security(
            graph, dest, node_secure, breaks_ties, disabled_links
        )
        for i, route in selection.items():
            if i == dest or i == isp:
                continue
            # does i's traffic pass through isp, and how does it enter?
            node = i
            entered_via_customer = False
            on_path = False
            hops = 0
            while node != dest and hops <= graph.n:
                hops += 1
                nxt = selection[node].next_hop
                if nxt == isp:
                    on_path = True
                    entered_via_customer = (
                        selection[node].route_class is RouteClass.PROVIDER
                    )
                    break
                node = nxt
            if not on_path:
                continue
            if model is UtilityModel.OUTGOING:
                # counts only toward destinations isp reaches via customers
                if selection.get(isp) and selection[isp].route_class is RouteClass.CUSTOMER:
                    total += float(w[i])
            elif entered_via_customer:
                total += float(w[i])
    return total


@dataclasses.dataclass(frozen=True)
class LinkDeploymentResult:
    """Best link subset found by brute force."""

    disabled: frozenset[int]   # neighbors toward which S*BGP is off
    utility: float
    evaluations: int


def best_link_deployment(
    graph: ASGraph,
    node_secure: np.ndarray,
    breaks_ties: np.ndarray,
    isp: int,
    model: UtilityModel = UtilityModel.INCOMING,
    neighbor_limit: int = 12,
) -> LinkDeploymentResult:
    """Brute-force the utility-maximising set of links to secure.

    Exponential in the neighbor count (NP-hard in general, Thm J.1);
    refuses more than ``neighbor_limit`` neighbors.
    """
    neighbors = sorted(
        set(graph.customers[isp]) | set(graph.providers[isp]) | set(graph.peers[isp])
    )
    if len(neighbors) > neighbor_limit:
        raise ValueError(
            f"ISP has {len(neighbors)} neighbors; brute force capped at {neighbor_limit}"
        )
    best: LinkDeploymentResult | None = None
    evaluations = 0
    for r in range(len(neighbors) + 1):
        for combo in itertools.combinations(neighbors, r):
            evaluations += 1
            disabled = {isp: set(combo)}
            utility = utility_with_links(
                graph, node_secure, breaks_ties, isp, disabled, model
            )
            if best is None or utility > best.utility:
                best = LinkDeploymentResult(
                    disabled=frozenset(combo),
                    utility=utility,
                    evaluations=evaluations,
                )
    assert best is not None
    return dataclasses.replace(best, evaluations=evaluations)
