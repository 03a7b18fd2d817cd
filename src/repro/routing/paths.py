"""Resolved routing trees, one destination at a time, and their paths.

Appendix C.2 resolves each node's next hop and whether its chosen path
is fully secure level by level in ascending path length; the kernels
that do it work on stacks of destinations
(:func:`repro.routing.arena.compute_trees_batched`).  A
:class:`RoutingTree` is one row of their output, for the consumers that
follow single paths.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.topology.graph import ASGraph


@dataclasses.dataclass
class RoutingTree:
    """Resolved routing tree toward one destination in one state."""

    dest: int
    choice: np.ndarray  # int32[n]; next hop, -1 for dest/unreachable
    secure: np.ndarray  # bool[n]; True iff the node's full chosen path is secure
    #: bool[n]; True iff some tiebreak candidate offers a secure path.
    #: This is the signal the projection engine uses to filter
    #: destinations a flip could possibly affect (Appendix C.4).
    any_secure_candidate: np.ndarray

    def path_from(self, source: int, max_hops: int = 64) -> list[int]:
        """Node-index path ``source -> ... -> dest`` (empty if unreachable)."""
        if source != self.dest and self.choice[source] < 0:
            return []
        path = [source]
        node = source
        while node != self.dest:
            node = int(self.choice[node])
            path.append(node)
            if len(path) > max_hops:
                raise RuntimeError("routing tree contains a cycle")
        return path


def as_path(graph: ASGraph, tree: RoutingTree, source_asn: int) -> list[int]:
    """AS-number path from ``source_asn`` to the tree's destination.

    Returns an empty list when the source has no route.
    """
    idx_path = tree.path_from(graph.index(source_asn))
    return [graph.asn(i) for i in idx_path]


def path_is_secure(tree: RoutingTree, source: int) -> bool:
    """True iff ``source``'s full chosen path is secure (dense index)."""
    return bool(tree.secure[source])


def transit_nodes(tree: RoutingTree, source: int, dest: int) -> list[int]:
    """Intermediate nodes (dense indices) strictly between source and dest."""
    path = tree.path_from(source)
    return path[1:-1] if len(path) >= 2 else []
