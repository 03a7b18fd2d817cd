"""Graph augmentation for content-provider connectivity (Appendix D).

Published AS-level topologies have poor visibility into CP peering at
the edge, so the paper builds an *augmented* graph:

1. remove the CPs' (acquisition-artifact) customer ASes, and
2. randomly peer each CP with ASes present at IXPs until the CP's mean
   path length to all destinations drops to ~2.1-2.2 hops (Table 3),
   at which point CP degrees rival the largest Tier-1s (Table 4).

:func:`augment_cp_peering` reproduces that procedure on any graph.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Sequence

import numpy as np

from repro.topology.graph import ASGraph


@dataclasses.dataclass
class AugmentationReport:
    """What the augmentation changed, per content provider."""

    added_peerings: dict[int, int]
    removed_customers: dict[int, list[int]]
    mean_path_length: dict[int, float]


def mean_cp_path_length(graph: ASGraph, cp_asn: int) -> float:
    """Mean policy-compliant path length from ``cp_asn`` to all reachable ASes.

    Uses the routing model of Appendix A; unreachable destinations are
    excluded (mirroring the Knodes-style measurement the paper compares
    against).
    """
    src = graph.index(cp_asn)
    return _mean_path_lengths_sampled(graph, [src], range(graph.n))[src]


def _mean_path_lengths_sampled(
    graph: ASGraph, cp_indices: list[int], sample: Sequence[int]
) -> dict[int, float]:
    """Mean path length of each CP over a sample of destinations, on
    ``graph`` as it is now (compiled here: call again after mutating it)."""
    from repro.routing.compiled import CompiledGraph
    from repro.routing.tree import route_labels

    cps = np.asarray(cp_indices, dtype=np.int64)
    totals = np.zeros(len(cps), dtype=np.int64)
    counts = np.zeros(len(cps), dtype=np.int64)
    for dests, _, lengths in route_labels(CompiledGraph.from_graph(graph), sample):
        to_cp = lengths[:, cps]
        routed = (to_cp >= 0) & (dests[:, None] != cps)
        totals += np.where(routed, to_cp, 0).sum(axis=0)
        counts += routed.sum(axis=0)
    return {
        i: (total / count if count else float("inf"))
        for i, total, count in zip(cp_indices, totals.tolist(), counts.tolist())
    }


def augment_cp_peering(
    graph: ASGraph,
    ixp_member_asns: list[int],
    target_mean_path_length: float = 2.15,
    remove_cp_customers: bool = True,
    max_new_peerings_per_cp: int | None = None,
    sample_destinations: int = 400,
    seed: int = 2011,
) -> AugmentationReport:
    """Augment ``graph`` in place with CP->IXP-member peering edges.

    Peerings are added to each content provider, drawn uniformly from
    ``ixp_member_asns``, until the CP's mean path length (estimated over
    ``sample_destinations`` sampled destinations) reaches
    ``target_mean_path_length`` or the candidate pool is exhausted.

    Returns an :class:`AugmentationReport`.
    """
    rng = random.Random(seed)
    cps = sorted(graph.cp_asns & set(graph.asns))
    removed: dict[int, list[int]] = {cp: [] for cp in cps}

    if remove_cp_customers:
        for cp in cps:
            for customer in list(graph.customers_of(cp)):
                graph.remove_edge(cp, customer)
                removed[cp].append(customer)

    n = graph.n
    sample_size = min(sample_destinations, n)
    sample = rng.sample(range(n), sample_size)
    cp_indices = [graph.index(cp) for cp in cps]

    added = {cp: 0 for cp in cps}
    batch = max(8, len(ixp_member_asns) // 10)
    candidates = {cp: [a for a in ixp_member_asns if a != cp] for cp in cps}
    for pool in candidates.values():
        rng.shuffle(pool)

    means = _mean_path_lengths_sampled(graph, cp_indices, sample)
    for _ in range(200):  # hard stop; each pass adds `batch` edges per CP
        progressed = False
        for cp, idx in zip(cps, cp_indices):
            if means[idx] <= target_mean_path_length:
                continue
            pool = candidates[cp]
            limit = max_new_peerings_per_cp or len(ixp_member_asns)
            added_this_pass = 0
            while pool and added[cp] < limit and added_this_pass < batch:
                other = pool.pop()
                if graph.has_edge(cp, other):
                    continue
                graph.add_peering(cp, other)
                added[cp] += 1
                added_this_pass += 1
                progressed = True
        if not progressed:
            break
        means = _mean_path_lengths_sampled(graph, cp_indices, sample)
        if all(means[idx] <= target_mean_path_length for idx in cp_indices):
            break

    return AugmentationReport(
        added_peerings=added,
        removed_customers=removed,
        mean_path_length={cp: means[idx] for cp, idx in zip(cps, cp_indices)},
    )
