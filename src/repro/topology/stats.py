"""Topology statistics used throughout the evaluation (Tables 2-4, §5.3).

These helpers regenerate the paper's structural sanity checks: graph
size by edge type (Table 2), CP mean path lengths (Table 3), Tier-1 vs
CP degrees (Table 4), degree distributions and the stub/ISP breakdown
that drives the simplex-S*BGP argument (§2.2.1).
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np

from repro.topology.graph import ASGraph
from repro.topology.relationships import ASRole


@dataclasses.dataclass(frozen=True)
class GraphSummary:
    """Aggregate topology statistics in the shape of the paper's Table 2."""

    num_ases: int
    num_stubs: int
    num_isps: int
    num_cps: int
    num_customer_provider_edges: int
    num_peering_edges: int

    @property
    def stub_fraction(self) -> float:
        """Fraction of ASes that are stubs (paper: ~85%)."""
        return self.num_stubs / self.num_ases if self.num_ases else 0.0


def summarize(graph: ASGraph) -> GraphSummary:
    """Compute a :class:`GraphSummary` for ``graph``."""
    roles = graph.roles
    counts = Counter(int(r) for r in roles)
    return GraphSummary(
        num_ases=graph.n,
        num_stubs=counts.get(int(ASRole.STUB), 0),
        num_isps=counts.get(int(ASRole.ISP), 0),
        num_cps=counts.get(int(ASRole.CP), 0),
        num_customer_provider_edges=graph.num_customer_provider_edges(),
        num_peering_edges=graph.num_peering_edges(),
    )


def degree_array(graph: ASGraph) -> np.ndarray:
    """Total degree of every AS, by dense index."""
    return np.array([graph.degree_of_index(i) for i in range(graph.n)], dtype=np.int64)


def top_by_degree(graph: ASGraph, k: int, role: ASRole | None = ASRole.ISP) -> list[int]:
    """AS numbers of the ``k`` highest-degree ASes (optionally by role).

    Ties are broken by AS number for determinism.  This is the paper's
    heuristic for choosing Tier-1 early adopters ("top five Tier 1 ASes
    in terms of degree", §5).
    """
    candidates = range(graph.n) if role is None else graph.indices_with_role(role)
    ranked = sorted(candidates, key=lambda i: (-graph.degree_of_index(i), graph.asn(i)))
    return [graph.asn(i) for i in ranked[:k]]


def stub_customer_counts(graph: ASGraph) -> dict[int, int]:
    """Per-ISP count of *stub* customers.

    §2.2.1 argues simplex S*BGP is safe because 80% of ISPs have < 7
    stub customers; this is the statistic behind that claim.
    """
    roles = graph.roles
    out: dict[int, int] = {}
    for i in graph.isp_indices:
        out[graph.asn(i)] = sum(1 for c in graph.customers[i] if roles[c] == ASRole.STUB)
    return out


def degree_distribution(graph: ASGraph) -> dict[int, int]:
    """Histogram {degree: number of ASes with that degree}."""
    return dict(Counter(graph.degree_of_index(i) for i in range(graph.n)))


def multihomed_stub_fraction(graph: ASGraph) -> float:
    """Fraction of stubs with more than one provider.

    Multihomed stubs are where provider competition (DIAMONDs, Fig. 2)
    happens, so this is a key structural statistic for the model.
    """
    stubs = graph.stub_indices
    if not stubs:
        return 0.0
    multi = sum(1 for i in stubs if len(graph.providers[i]) > 1)
    return multi / len(stubs)
