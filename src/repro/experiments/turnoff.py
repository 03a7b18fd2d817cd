"""Turn-off incentives in the incoming model (§7, Figure 13).

Two studies:

- :func:`whole_network_turn_off_census` — §7.1/7.3: at a given state,
  which secure ISPs would raise their *total* incoming utility by
  disabling S*BGP entirely (the paper found such cases exist but are
  rare);
- :func:`per_destination_turn_off_census` — §7.3: which ISPs have at
  least one destination for which disabling S*BGP pays (the paper: at
  least 10% of the 5,992 ISPs).
"""

from __future__ import annotations

import dataclasses

from repro.core.config import UtilityModel
from repro.core.engine import RoundData, compute_round_data
from repro.core.projection import per_destination_turn_off_gains, project_flips
from repro.core.state import DeploymentState, StateDeriver
from repro.experiments.setup import ExperimentEnv
from repro.topology.relationships import ASRole


@dataclasses.dataclass(frozen=True)
class TurnOffCensus:
    """Share of secure ISPs with an incentive to disable S*BGP."""

    num_secure_isps: int
    num_with_incentive: int
    examples: tuple[int, ...]  # AS numbers (up to 10)

    @property
    def fraction(self) -> float:
        return (
            self.num_with_incentive / self.num_secure_isps
            if self.num_secure_isps
            else 0.0
        )


def _secure_isps(env: ExperimentEnv, rd: RoundData) -> list[int]:
    roles = env.graph.roles
    return [
        i
        for i in range(env.graph.n)
        if roles[i] == int(ASRole.ISP) and rd.node_secure[i]
    ]


def whole_network_turn_off_census(
    env: ExperimentEnv,
    state: DeploymentState,
    stub_breaks_ties: bool = False,
    theta: float = 0.0,
) -> TurnOffCensus:
    """§7.1: ISPs whose total incoming utility rises by turning off."""
    deriver = StateDeriver(env.graph, stub_breaks_ties, env.cache.compiled)
    rd = compute_round_data(env.cache, deriver, state, UtilityModel.INCOMING)
    candidates = [i for i in _secure_isps(env, rd) if i in state.deployers]
    projections = project_flips(
        env.cache, deriver, rd, [(isp, False) for isp in candidates], UtilityModel.INCOMING
    )
    hits = [
        proj.isp for proj in projections
        if proj.utility > (1.0 + theta) * rd.utilities[proj.isp]
    ]
    return TurnOffCensus(
        num_secure_isps=len(candidates),
        num_with_incentive=len(hits),
        examples=tuple(env.graph.asn(i) for i in hits[:10]),
    )


def per_destination_turn_off_census(
    env: ExperimentEnv,
    state: DeploymentState,
    stub_breaks_ties: bool = False,
) -> TurnOffCensus:
    """§7.3: ISPs with >= 1 destination worth disabling S*BGP for."""
    deriver = StateDeriver(env.graph, stub_breaks_ties, env.cache.compiled)
    rd = compute_round_data(env.cache, deriver, state, UtilityModel.INCOMING)
    hits: list[int] = []
    candidates = [i for i in _secure_isps(env, rd) if i in state.deployers]
    for isp in candidates:
        gains = per_destination_turn_off_gains(env.cache, deriver, rd, isp)
        if gains:
            hits.append(isp)
    return TurnOffCensus(
        num_secure_isps=len(candidates),
        num_with_incentive=len(hits),
        examples=tuple(env.graph.asn(i) for i in hits[:10]),
    )
