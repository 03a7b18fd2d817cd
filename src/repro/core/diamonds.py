"""DIAMOND census (Figure 2 / Table 1).

A DIAMOND is the competitive structure that powers the whole proposal:
a traffic source (e.g. a Tier-1 early adopter) with *equally good*
routes to a multihomed stub through two or more competing ISPs.  When
one competitor deploys S*BGP (securing the stub via simplex), the
secure source's SecP tie-break moves its traffic to the secure route —
and the other competitor must deploy to win it back.

Table 1 of the paper counts, per early adopter, how many such
structures exist in the AS graph.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

import numpy as np

from repro.routing.cache import RoutingCache
from repro.topology.graph import ASGraph
from repro.topology.relationships import ASRole


@dataclasses.dataclass(frozen=True)
class DiamondCensus:
    """Diamond counts per early adopter (AS numbers as keys)."""

    contested_stubs: dict[int, int]   # early adopter -> #stub dests with >=2 equal routes
    competitor_pairs: dict[int, int]  # early adopter -> #competing ISP pairs

    @property
    def total_contested(self) -> int:
        return sum(self.contested_stubs.values())

    @property
    def total_pairs(self) -> int:
        return sum(self.competitor_pairs.values())


def diamond_census(
    graph: ASGraph,
    early_adopter_asns: Iterable[int],
    cache: RoutingCache | None = None,
    destinations: Iterable[int] | None = None,
) -> DiamondCensus:
    """Count diamonds between each early adopter and stub destinations.

    ``destinations`` restricts the stub destinations examined (dense
    indices); by default all stubs are scanned.  Tiebreak-set sizes are
    read from pooled structures a chunk at a time: ``cache``'s arena for
    the stubs on its destination list, pools built and dropped for the
    others (under its policy; the default policy without a cache).
    """
    cache = cache or RoutingCache(graph, destinations=[])
    roles = graph.roles
    if destinations is None:
        stub_dests = graph.stub_indices
    else:
        stub_dests = [d for d in destinations if roles[d] == int(ASRole.STUB)]

    adopters = [graph.index(asn) for asn in early_adopter_asns]
    contested = {graph.asn(a): 0 for a in adopters}
    pairs = {graph.asn(a): 0 for a in adopters}

    for pools, slots in cache.pools_for(stub_dests):
        for a in adopters:
            sizes = pools.tiebreak_sizes_of(a, slots)
            asn = graph.asn(a)
            contested[asn] += int(np.count_nonzero(sizes >= 2))
            pairs[asn] += int((sizes * (sizes - 1) // 2).sum())
    return DiamondCensus(contested_stubs=contested, competitor_pairs=pairs)
