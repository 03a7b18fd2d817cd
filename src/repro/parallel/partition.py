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


def chunk(items: Sequence[T], chunk_size: int) -> list[list[T]]:
    """Split ``items`` into contiguous chunks of at most ``chunk_size``."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [list(items[i:i + chunk_size]) for i in range(0, len(items), chunk_size)]


def partitions_for_budget(
    num_items: int,
    default_partitions: int,
    per_item_bytes: int,
    budget_bytes: int | None,
) -> int:
    """Partition count whose per-partition working set fits the budget.

    For a map that holds one partition's working set per worker at a
    time: with ``budget_bytes`` set (the memory share for in-flight
    partitions), the count grows above
    ``default_partitions`` until ``ceil(num_items / count) *
    per_item_bytes <= budget_bytes``.  Capped at one item per partition
    — below that there is nothing left to shrink.  ``None`` (no budget)
    returns the default unchanged.
    """
    if default_partitions < 1:
        raise ValueError(f"default_partitions must be >= 1, got {default_partitions}")
    if budget_bytes is None or num_items <= 0 or per_item_bytes <= 0:
        return default_partitions
    items_per_partition = max(1, budget_bytes // per_item_bytes)
    needed = -(-num_items // items_per_partition)  # ceil division
    return min(max(default_partitions, needed), num_items)
