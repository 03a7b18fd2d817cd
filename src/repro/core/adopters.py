"""Early-adopter selection strategies (Section 6).

Choosing the optimal early-adopter set is NP-hard — even to approximate
(Theorem 6.1; the set-cover reduction lives in
:mod:`repro.gadgets.hardness`) — so the paper evaluates heuristics:
top-degree ISPs (Tier-1s), the content providers, their union, and
random sets.
"""

from __future__ import annotations

import random

from repro.topology.graph import ASGraph
from repro.topology.relationships import ASRole
from repro.topology.stats import top_by_degree


def top_degree_isps(graph: ASGraph, k: int) -> list[int]:
    """The ``k`` highest-degree ISPs ("top-k Tier-1s" in the paper)."""
    return top_by_degree(graph, k, role=ASRole.ISP)


def content_providers(graph: ASGraph) -> list[int]:
    """The content providers (the paper's five CPs)."""
    return sorted(graph.cp_asns & set(graph.asns))


def cps_plus_top_isps(graph: ASGraph, k: int = 5) -> list[int]:
    """The paper's case-study set: CPs plus the top-``k`` Tier-1s (§5)."""
    return content_providers(graph) + top_degree_isps(graph, k)


def random_isps(graph: ASGraph, k: int, seed: int = 0) -> list[int]:
    """``k`` ISPs chosen uniformly at random (Fig. 8's weak baseline)."""
    rng = random.Random(seed)
    isps = [graph.asn(i) for i in graph.isp_indices]
    return sorted(rng.sample(isps, min(k, len(isps))))

