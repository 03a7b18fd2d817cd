"""Reference message-passing BGP simulator (ground truth for tests).

This simulator makes no use of Observation C.1 or the tiebreak-set
machinery.  Every node holds its currently selected *full path*; on
each sweep a node re-evaluates all routes available from its neighbors'
selected paths (respecting GR2 export and BGP loop detection) and picks
the best under the active :class:`~repro.routing.policy.RoutingPolicy`
ranking (default ``LP > SP > SecP > TB``).  Sweeps repeat until a
fixpoint, which Lemma G.1 guarantees exists under the default policy;
``security_1st`` rankings may not converge (Lychev et al.).

It is quadratic-ish and only suitable for small graphs; the property
tests use it to validate the tree kernels exactly, including the
security annotations.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.routing.policy import RouteClass, RoutingPolicy, get_policy
from repro.topology.graph import ASGraph


@dataclasses.dataclass(frozen=True)
class SelectedRoute:
    """A node's selected route: class, full path (node -> ... -> dest)."""

    route_class: RouteClass
    path: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.path) - 1


# Lives here rather than an errors.py because non-convergence is a
# *result* of BGP dynamics under security-1st rankings (Lychev et al.),
# raised and documented by the simulators in this module.
class ConvergenceError(RuntimeError):  # repro-lint: disable=RPR008
    """The reference simulator failed to reach a fixpoint."""


def _is_secure_path(path: tuple[int, ...], node_secure: np.ndarray) -> bool:
    return all(bool(node_secure[v]) for v in path)


def simulate_bgp(
    graph: ASGraph,
    dest: int,
    node_secure: np.ndarray | None = None,
    breaks_ties: np.ndarray | None = None,
    max_sweeps: int = 10_000,
    policy: "str | RoutingPolicy" = "security_3rd",
) -> dict[int, SelectedRoute]:
    """Run the fixpoint simulation toward ``dest`` (dense node index).

    Returns ``{node: SelectedRoute}`` for every node with a route.
    ``node_secure`` / ``breaks_ties`` default to all-insecure.
    ``policy`` selects the preference ranking; export is GR2 always.
    """
    n = graph.n
    pol = get_policy(policy)
    if node_secure is None:
        node_secure = np.zeros(n, dtype=bool)
    if breaks_ties is None:
        breaks_ties = np.zeros(n, dtype=bool)

    selected: dict[int, SelectedRoute] = {
        dest: SelectedRoute(RouteClass.SELF, (dest,))
    }

    def offered_class(neighbor: int, kind: RouteClass) -> SelectedRoute | None:
        """Route neighbor offers me, if export rules allow, as class `kind`."""
        route = selected.get(neighbor)
        if route is None:
            return None
        if kind is not RouteClass.PROVIDER:
            # exporting to a peer or to a provider: route must be a
            # customer route or the neighbor's own prefix (GR2)
            if route.route_class not in (RouteClass.CUSTOMER, RouteClass.SELF):
                return None
        return route

    def rank_key(i: int, cand_route: SelectedRoute, kind: RouteClass) -> tuple:
        path = (i,) + cand_route.path
        applies_secp = bool(node_secure[i]) and bool(breaks_ties[i])
        return pol.rank_key(
            route_class=int(kind),
            length=len(path) - 1,
            secure=_is_secure_path(cand_route.path, node_secure),
            applies_secp=applies_secp,
            node=i,
            next_hop=path[1],
        )

    for _ in range(max_sweeps):
        changed = False
        for i in range(n):
            if i == dest:
                continue
            best: tuple | None = None
            best_route: SelectedRoute | None = None
            for kind, neighbors in (
                (RouteClass.CUSTOMER, graph.customers[i]),
                (RouteClass.PEER, graph.peers[i]),
                (RouteClass.PROVIDER, graph.providers[i]),
            ):
                for j in neighbors:
                    offer = offered_class(j, kind)
                    if offer is None or i in offer.path:
                        continue
                    key = rank_key(i, offer, kind)
                    if best is None or key < best:
                        best = key
                        best_route = SelectedRoute(kind, (i,) + offer.path)
            if best_route is None:
                if i in selected:
                    del selected[i]
                    changed = True
            elif selected.get(i) != best_route:
                selected[i] = best_route
                changed = True
        if not changed:
            return selected
    raise ConvergenceError(f"no fixpoint after {max_sweeps} sweeps")


def secure_flags_from_selection(
    selection: dict[int, SelectedRoute], node_secure: np.ndarray, n: int
) -> np.ndarray:
    """bool[n]: is each node's selected full path entirely secure?"""
    out = np.zeros(n, dtype=bool)
    for i, route in selection.items():
        out[i] = _is_secure_path(route.path, node_secure)
    return out
