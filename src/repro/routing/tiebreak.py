"""Tiebreak-set statistics (Section 6.6, Figure 10).

The tiebreak set of a (source, destination) pair is the set of
equally-good interdomain routes among which the SecP criterion chooses.
Its size measures the competition available to secure ISPs: the paper
finds a mean of ~1.2 across all pairs (1.30 for ISPs, 1.16 for stubs)
and that only ~20% of pairs have more than one candidate — yet that
suffices to drive deployment.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

import numpy as np

from repro.routing.cache import RoutingCache
from repro.routing.compiled import segment_index
from repro.routing.tree import destination_chunks
from repro.topology.graph import ASGraph
from repro.topology.relationships import ASRole


@dataclasses.dataclass(frozen=True)
class TiebreakStats:
    """Distribution of tiebreak-set sizes across source-destination pairs."""

    histogram: dict[int, int]      # size -> number of (src, dest) pairs
    mean: float
    mean_isp: float
    mean_stub: float
    multi_path_fraction: float     # pairs with more than one candidate
    multi_path_fraction_isp: float

    def ccdf(self) -> list[tuple[int, float]]:
        """Complementary CDF points ``(size, P[size >= s])`` for plotting."""
        total = sum(self.histogram.values())
        if total == 0:
            return []
        out = []
        acc = 0
        for size in sorted(self.histogram, reverse=True):
            acc += self.histogram[size]
            out.append((size, acc / total))
        out.reverse()
        return out


def collect_tiebreak_stats(
    graph: ASGraph,
    destinations: Iterable[int] | None = None,
    cache: RoutingCache | None = None,
) -> TiebreakStats:
    """Tiebreak-set statistics over all sources and the given destinations.

    ``destinations`` defaults to every node; pass a sample for speed.
    Tiebreak-set sizes are read from pooled structures a chunk of slots
    at a time: ``cache``'s arena for the destinations on its list, pools
    built and dropped for the others (the default policy without a
    cache).
    """
    cache = cache or RoutingCache(graph, destinations=[])
    if destinations is None:
        destinations = range(graph.n)

    # pairs[size, role]: how many (source, destination) pairs have a
    # tiebreak set of that size at a source of that role (a set cannot
    # outgrow the graph); one flat bincount per chunk of slots, over the
    # (node, tiebreak-set size) of each slot's rows.  Only a
    # destination's own row holds no candidate, and it is no source.
    num_roles = len(ASRole)
    roles = np.asarray(graph.roles, dtype=np.int64)
    pairs = np.zeros((graph.n + 1, num_roles), dtype=np.int64)
    for pools, slots in cache.pools_for(destinations):
        for part in destination_chunks(cache.compiled, slots):
            counts = pools.order_ptr[part + 1] - pools.order_ptr[part]
            nodes = pools.order_pool[segment_index(pools.order_ptr[part], counts)]
            rows = segment_index(pools.indptr_ptr[part], counts)
            sizes = pools.indptr_pool[rows + 1] - pools.indptr_pool[rows]
            sources = sizes > 0
            pairs += np.bincount(
                sizes[sources] * num_roles + roles[nodes[sources]],
                minlength=pairs.size,
            ).reshape(pairs.shape)
    by_size = pairs.sum(axis=1)

    def totals(sizes: np.ndarray) -> tuple[int, int, int]:
        """``(pairs, summed sizes, pairs with size > 1)`` as exact ints."""
        sizes = sizes.tolist()
        return (
            sum(sizes),
            sum(size * k for size, k in enumerate(sizes)),
            sum(sizes[2:]),
        )

    count, total, multi = totals(by_size)
    isp_count, isp_total, isp_multi = totals(pairs[:, ASRole.ISP])
    stub_count, stub_total, _ = totals(pairs[:, ASRole.STUB])

    return TiebreakStats(
        histogram={size: k for size, k in enumerate(by_size.tolist()) if k},
        mean=total / count if count else 0.0,
        mean_isp=isp_total / isp_count if isp_count else 0.0,
        mean_stub=stub_total / stub_count if stub_count else 0.0,
        multi_path_fraction=multi / count if count else 0.0,
        multi_path_fraction_isp=isp_multi / isp_count if isp_count else 0.0,
    )


def security_sensitive_decision_fraction(graph: ASGraph, stats: TiebreakStats) -> float:
    """The §6.7 headline number.

    Only ISPs need to apply SecP (15% of ASes) and only their multi-path
    tiebreak sets give SecP anything to do, so the fraction of routing
    decisions that security influences is

        ``(#ISPs / #ASes) * P[ISP tiebreak set > 1]``

    which the paper evaluates to ``0.15 * 0.23 ~= 3.5%``.
    """
    isp_fraction = len(graph.isp_indices) / graph.n if graph.n else 0.0
    return isp_fraction * stats.multi_path_fraction_isp

