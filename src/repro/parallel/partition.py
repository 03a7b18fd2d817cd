"""Destination partitioning for the map step (Appendix C.3).

The paper parallelised its simulations by mapping per-destination
routing-tree computations across a 200-node DryadLINQ cluster and
reducing the subtrees into per-ISP utilities.  These helpers split a
destination list into balanced partitions for the same decomposition.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

T = TypeVar("T")


def partition(items: Sequence[T], num_partitions: int) -> list[list[T]]:
    """Split ``items`` into ``num_partitions`` round-robin partitions.

    Round-robin (rather than contiguous chunks) balances load when work
    per item correlates with position, e.g. destinations sorted by
    degree.  Empty partitions are dropped.
    """
    if num_partitions < 1:
        raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
    buckets: list[list[T]] = [[] for _ in range(num_partitions)]
    for k, item in enumerate(items):
        buckets[k % num_partitions].append(item)
    return [b for b in buckets if b]
