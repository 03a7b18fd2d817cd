"""The Section-5 case study: CPs + top-5 Tier-1s, theta = 5%, x = 10%.

Runs one deployment simulation and extracts every per-round figure of
Section 5:

- Fig. 3: newly secure ASes and adopting ISPs per round;
- Fig. 4: normalised utility time series of focal ISPs (a competitor
  that deploys to regain traffic, and a holdout that never deploys);
- Fig. 5: median utility and projected utility of next-round adopters,
  normalised by starting utility;
- Fig. 6: cumulative adoption by ISP degree quartile;
- Fig. 7: chain reactions (adopters enabled by earlier adopters);
- Table 1: the diamond census for the early adopters;
- §5.6: the zero-sum analysis (who ends above/below starting utility).
"""

from __future__ import annotations

import dataclasses
import statistics

import numpy as np

from repro.core.config import SimulationConfig, UtilityModel
from repro.core.diamonds import DiamondCensus, diamond_census
from repro.core.dynamics import DeploymentSimulation, SimulationResult, StateMemo
from repro.core.metrics import ZeroSumAnalysis, zero_sum_analysis
from repro.experiments.setup import ExperimentEnv
from repro.topology.relationships import ASRole

@dataclasses.dataclass
class CaseStudyReport:
    """All Section-5 series from one simulation run."""

    result: SimulationResult
    early_adopter_asns: list[int]
    fig3_new_ases: list[int]
    fig3_new_isps: list[int]
    fig4_utilities: dict[str, list[float]]   # label -> normalised series
    fig5_median_utility: list[float]         # per round, next-round adopters
    fig5_median_projected: list[float]
    fig6_adoption_by_bucket: dict[str, list[float]]  # bucket -> cumulative frac
    fig7_chains: list[tuple[int, int, int]]  # (enabler, adopter, round)
    table1: DiamondCensus
    zero_sum: ZeroSumAnalysis

    @property
    def fraction_secure_ases(self) -> float:
        g = self.result.graph
        return float(self.result.final_node_secure.sum()) / g.n


def run_case_study(
    env: ExperimentEnv,
    theta: float = 0.05,
    config: SimulationConfig | None = None,
    memo: StateMemo | None = None,
) -> CaseStudyReport:
    """Run the case study on ``env`` and extract every figure series.

    ``memo`` is a caller-owned :class:`~repro.core.dynamics.StateMemo`
    the game reads and fills (a private one without it).
    """
    adopters = env.case_study_adopters()
    config = config or SimulationConfig(theta=theta, utility_model=UtilityModel.OUTGOING)
    sim = DeploymentSimulation(env.graph, adopters, config, env.cache, memo=memo)
    result = sim.run()
    return build_report(env, result, adopters)


def build_report(
    env: ExperimentEnv, result: SimulationResult, adopters: list[int]
) -> CaseStudyReport:
    """Extract the Section-5 series from a finished simulation."""
    return CaseStudyReport(
        result=result,
        early_adopter_asns=adopters,
        fig3_new_ases=result.newly_secure_per_round(),
        fig3_new_isps=result.adopting_isps_per_round(),
        fig4_utilities=_focal_utility_series(result),
        fig5_median_utility=_median_adopter_utilities(result, projected=False),
        fig5_median_projected=_median_adopter_utilities(result, projected=True),
        fig6_adoption_by_bucket=_adoption_by_degree(result),
        fig7_chains=_chain_reactions(result),
        table1=diamond_census(env.graph, adopters, env.cache),
        zero_sum=zero_sum_analysis(result),
    )


def _focal_utility_series(result: SimulationResult) -> dict[str, list[float]]:
    """Fig. 4: pick the paper's three characters automatically.

    - "stealer": the adopter with the largest temporary gain over its
      starting utility;
    - "regainer": an adopter whose utility had dropped the most below
      its starting utility in the round before it deployed (AS 8359's
      "regain lost traffic" role);
    - "holdout": the never-adopter that lost the most by the end.
    """
    graph = result.graph
    start = result.starting_utilities
    roles = graph.roles
    secure = result.final_node_secure

    stealer, stealer_gain = None, 0.0
    regainer, regainer_drop = None, 0.0
    holdout, holdout_loss = None, 0.0

    for i in range(graph.n):
        if roles[i] != int(ASRole.ISP) or start[i] <= 0:
            continue
        history = result.utility_history(i)
        norm = [u / start[i] for u in history]
        round_adopted = result.adoption_round(i)
        if round_adopted is not None:
            gain = max(norm) - 1.0
            if gain > stealer_gain:
                stealer, stealer_gain = i, gain
            before = norm[min(round_adopted - 1, len(norm) - 1)]
            drop = 1.0 - before
            if drop > regainer_drop:
                regainer, regainer_drop = i, drop
        elif not secure[i]:
            loss = 1.0 - norm[-1]
            if loss > holdout_loss:
                holdout, holdout_loss = i, loss

    out: dict[str, list[float]] = {}
    for label, node in (("stealer", stealer), ("regainer", regainer), ("holdout", holdout)):
        if node is not None:
            out[f"{label} (AS {graph.asn(node)})"] = [
                u / result.starting_utilities[node] for u in result.utility_history(node)
            ]
    return out


def _median_adopter_utilities(result: SimulationResult, projected: bool) -> list[float]:
    """Fig. 5: medians over ISPs that adopt in round i+1, normalised."""
    start = result.starting_utilities
    out: list[float] = []
    rounds = result.rounds
    for k, record in enumerate(rounds):
        values: list[float] = []
        for isp in record.turned_on:
            if start[isp] <= 0:
                continue
            if projected:
                values.append(record.projections[isp].utility / start[isp])
            elif record.utilities is not None:
                values.append(float(record.utilities[isp]) / start[isp])
        out.append(statistics.median(values) if values else float("nan"))
    return out


def _adoption_by_degree(result: SimulationResult) -> dict[str, list[float]]:
    """Fig. 6: cumulative fraction of ISPs secure, per degree quartile.

    The paper buckets its 36K-AS graph by decades of degree (1-10,
    11-100, ...); a synthetic graph of a few hundred ASes puts every ISP
    in one decade, so the buckets here are the ISPs' degree quartiles,
    ISPs of equal degree kept in one bucket.
    """
    graph = result.graph
    roles = graph.roles
    degrees = np.array([graph.degree_of_index(i) for i in range(graph.n)])
    isps = sorted(
        (i for i in range(graph.n) if roles[i] == int(ASRole.ISP)),
        key=lambda i: degrees[i],
    )
    buckets: dict[str, list[int]] = {}
    start = 0
    for quarter in range(1, 5):
        stop = len(isps) * quarter // 4
        while 0 < stop < len(isps) and degrees[isps[stop]] == degrees[isps[stop - 1]]:
            stop += 1
        if stop > start:
            members = isps[start:stop]
            buckets[f"deg {degrees[members[0]]}-{degrees[members[-1]]}"] = members
            start = stop

    series: dict[str, list[float]] = {label: [] for label in buckets}
    snapshots = [r.node_secure for r in result.rounds] + [result.final_node_secure]
    for secure in snapshots:
        for label, members in buckets.items():
            frac = float(secure[members].sum()) / len(members)
            series[label].append(frac)
    return series


def _chain_reactions(result: SimulationResult) -> list[tuple[int, int, int]]:
    """Fig. 7: adopters enabled by a neighbor's earlier adoption.

    Returns ``(enabler, adopter, round)`` triples where the adopter
    deployed in ``round`` and a graph neighbor deployed in
    ``round - 1`` — the "longer secure paths sustain deployment"
    mechanism of §5.4.
    """
    graph = result.graph
    chains: list[tuple[int, int, int]] = []
    previous: set[int] = set()
    for record in result.rounds:
        if record.index >= 2:
            for adopter in record.turned_on:
                neighbors = set(
                    graph.customers[adopter]
                    + graph.providers[adopter]
                    + graph.peers[adopter]
                )
                for enabler in neighbors & previous:
                    chains.append((enabler, adopter, record.index))
        previous = set(record.turned_on)
    return chains
