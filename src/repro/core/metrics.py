"""Security and deployment metrics (Figures 3, 8, 9; §5.6, §6.4-6.5).

The paper's headline measures:

- fraction of ASes secure at termination (Fig. 8a);
- fraction of *ISPs* that deploy, isolating market pressure from
  simplex-stub upgrades (Fig. 8b, §6.5);
- fraction of secure source-destination paths, which tracks ``f^2``
  where ``f`` is the secure-AS fraction (Fig. 9, §6.4);
- utility outcomes relative to the pre-deployment baseline (§5.6).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.dynamics import SimulationResult
from repro.core.engine import RoundData
from repro.topology.graph import ASGraph
from repro.topology.relationships import ASRole


@dataclasses.dataclass(frozen=True)
class SecuritySnapshot:
    """Security level of one deployment state."""

    fraction_secure_ases: float
    fraction_secure_isps: float
    fraction_secure_paths: float
    f_squared: float  # the Fig. 9 reference curve

    @property
    def path_gap_vs_f2(self) -> float:
        """How far secure-path coverage falls below the ``f^2`` bound."""
        return self.f_squared - self.fraction_secure_paths


def security_snapshot(graph: ASGraph, rd: RoundData) -> SecuritySnapshot:
    """Compute a :class:`SecuritySnapshot` from resolved round data."""
    return snapshot_from_counts(
        graph, rd.node_secure, int(np.count_nonzero(rd.sec_matrix)), len(rd.sec_matrix)
    )


def snapshot_from_counts(
    graph: ASGraph, node_secure: np.ndarray, secure_pairs: int, num_dests: int
) -> SecuritySnapshot:
    """The snapshot of a state from its secure flags and secure-pair count.

    ``secure_pairs`` counts the true entries of ``sec_matrix`` over the
    ``num_dests`` resolved destinations: ``sec_matrix[k, i]`` is the
    security of ``i``'s chosen path to destination ``k``, and a
    (src=dest) pair counts as secure iff the AS itself is secure,
    mirroring the paper's (36K)^2 accounting.
    """
    n = graph.n
    f = float(node_secure.sum()) / n if n else 0.0
    isps = graph.roles == int(ASRole.ISP)
    f_isp = float(node_secure[isps].sum()) / max(1, int(isps.sum()))
    total_pairs = float(num_dests * n)
    return SecuritySnapshot(
        fraction_secure_ases=f,
        fraction_secure_isps=f_isp,
        fraction_secure_paths=secure_pairs / total_pairs if total_pairs else 0.0,
        f_squared=f * f,
    )


@dataclasses.dataclass(frozen=True)
class DeploymentOutcome:
    """End-of-run adoption measures for one simulation (Fig. 8)."""

    fraction_secure_ases: float
    fraction_secure_isps: float       # ISPs running S*BGP (Fig. 8b)
    fraction_isps_by_market: float    # secure ISPs excluding early adopters
    fraction_secure_stubs: float
    num_rounds: int
    outcome: str


def deployment_outcome(result: SimulationResult) -> DeploymentOutcome:
    """Summarise a finished simulation."""
    graph = result.graph
    secure = result.final_node_secure
    roles = graph.roles
    isps = np.flatnonzero(roles == int(ASRole.ISP))
    stubs = np.flatnonzero(roles == int(ASRole.STUB))
    secure_isps = [i for i in isps if secure[i]]
    market = [i for i in secure_isps if i not in result.early_adopters]
    return DeploymentOutcome(
        fraction_secure_ases=float(secure.sum()) / max(1, graph.n),
        fraction_secure_isps=len(secure_isps) / max(1, len(isps)),
        fraction_isps_by_market=len(market) / max(1, len(isps)),
        fraction_secure_stubs=float(secure[stubs].sum()) / max(1, len(stubs)),
        num_rounds=result.num_rounds,
        outcome=result.outcome.value,
    )


@dataclasses.dataclass(frozen=True)
class ZeroSumAnalysis:
    """§5.6: who won and who lost relative to starting utility."""

    fraction_isps_above_threshold: float  # ended > (1+theta) * start
    mean_final_over_start_secure: float
    mean_final_over_start_insecure: float  # the paper: insecure lose ~13%


def zero_sum_analysis(result: SimulationResult, theta: float | None = None) -> ZeroSumAnalysis:
    """Compare final vs starting utilities for secure and insecure ISPs."""
    theta = result.config.theta if theta is None else theta
    graph = result.graph
    roles = graph.roles
    secure = result.final_node_secure
    start = result.starting_utilities
    final = result.final_utilities

    winners = 0
    total = 0
    ratios_secure: list[float] = []
    ratios_insecure: list[float] = []
    for i in range(graph.n):
        if roles[i] != int(ASRole.ISP) or start[i] <= 0:
            continue
        total += 1
        ratio = float(final[i] / start[i])
        if ratio > 1.0 + theta:
            winners += 1
        if secure[i]:
            ratios_secure.append(ratio)
        else:
            ratios_insecure.append(ratio)
    return ZeroSumAnalysis(
        fraction_isps_above_threshold=winners / total if total else 0.0,
        mean_final_over_start_secure=float(np.mean(ratios_secure)) if ratios_secure else 0.0,
        mean_final_over_start_insecure=float(np.mean(ratios_insecure)) if ratios_insecure else 0.0,
    )


def projection_accuracy(result: SimulationResult) -> list[float]:
    """Fig. 14: projected / realised utility for each adopting ISP.

    For every ISP that turned on in round ``i``, compare the projection
    it acted on against the utility it actually observed in round
    ``i+1`` (simultaneous moves make these differ, §8.1).
    """
    ratios: list[float] = []
    rounds = result.rounds
    for k, record in enumerate(rounds):
        nxt = rounds[k + 1].utilities if k + 1 < len(rounds) else result.final_utilities
        if nxt is None:
            continue
        for isp in record.turned_on:
            proj = record.projections[isp].utility
            actual = float(nxt[isp])
            if actual > 0:
                ratios.append(proj / actual)
    return ratios
