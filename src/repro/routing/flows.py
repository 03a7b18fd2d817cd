"""Per-link traffic loads and deployment-induced traffic shifts.

The paper's conclusion asks for tools that let ISPs "forecast how S*BGP
deployment will impact traffic patterns ... so they can provision their
networks appropriately."  This module computes exactly that signal:
aggregate per-link loads implied by the routing trees of a deployment
state, and the shift between two states.

A directed load ``load[(a, b)]`` is the total traffic-weight crossing
the edge from ``a`` toward ``b`` summed over all destinations (node
``a``'s own originated weight plus everything in its subtree).
"""

from __future__ import annotations

import dataclasses

from typing import TYPE_CHECKING

import numpy as np

from repro.routing.cache import RoutingCache

if TYPE_CHECKING:  # imported lazily at runtime to keep routing below core
    from repro.core.config import UtilityModel
    from repro.core.engine import RoundData
    from repro.core.state import DeploymentState, StateDeriver


def link_loads(rd: "RoundData", weights: np.ndarray) -> dict[tuple[int, int], float]:
    """Directed per-link loads for one resolved round.

    Keys are ``(node, next_hop)`` dense-index pairs; values sum the
    subtree weight plus the node's own weight over every destination
    whose tree uses that edge.
    """
    n = rd.choice.shape[1]
    # by destination, then node: bincount adds a link's terms in that order
    dests, nodes = np.nonzero(rd.choice >= 0)
    links, link_of = np.unique(nodes * n + rd.choice[dests, nodes], return_inverse=True)
    loads = np.bincount(link_of, weights=rd.weights[dests, nodes] + weights[nodes])
    return dict(zip(zip((links // n).tolist(), (links % n).tolist()), loads.tolist()))


@dataclasses.dataclass(frozen=True)
class TrafficShift:
    """How per-link loads moved between two deployment states."""

    num_links_before: int
    num_links_after: int
    total_load: float
    moved_load: float               # sum over links of |after - before| / 2
    links_changed: int              # links whose load moved more than tol
    new_links: int                  # carried traffic after but not before
    dropped_links: int

    @property
    def moved_fraction(self) -> float:
        """Fraction of total traffic that changed links."""
        return self.moved_load / self.total_load if self.total_load else 0.0


def traffic_shift(
    before: dict[tuple[int, int], float],
    after: dict[tuple[int, int], float],
    tolerance: float = 1e-9,
) -> TrafficShift:
    """Summarise the load difference between two link-load maps."""
    keys = set(before) | set(after)
    moved = 0.0
    changed = 0
    new = 0
    dropped = 0
    total = sum(before.values())
    for key in keys:
        b = before.get(key, 0.0)
        a = after.get(key, 0.0)
        diff = abs(a - b)
        if diff > tolerance:
            changed += 1
            moved += diff
        if b <= tolerance < a:
            new += 1
        if a <= tolerance < b:
            dropped += 1
    return TrafficShift(
        num_links_before=len(before),
        num_links_after=len(after),
        total_load=total,
        moved_load=moved / 2.0,
        links_changed=changed,
        new_links=new,
        dropped_links=dropped,
    )


def deployment_traffic_shift(
    cache: RoutingCache,
    deriver: "StateDeriver",
    state_before: "DeploymentState",
    state_after: "DeploymentState",
    model: "UtilityModel | None" = None,
) -> TrafficShift:
    """Loads before vs after a deployment change, in one call."""
    from repro.core.config import UtilityModel
    from repro.core.engine import compute_round_data

    model = model or UtilityModel.OUTGOING
    weights = cache.graph.weights
    rd_before = compute_round_data(cache, deriver, state_before, model)
    rd_after = compute_round_data(cache, deriver, state_after, model)
    return traffic_shift(
        link_loads(rd_before, weights), link_loads(rd_after, weights)
    )

