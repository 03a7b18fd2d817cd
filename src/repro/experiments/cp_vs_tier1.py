"""Content providers vs Tier-1s as early adopters (Figure 12, §6.8).

Two sensitivity axes:

1. CP traffic fraction ``x`` in {10, 20, 33, 50}% — Tier-1s transit
   2-9x the CPs' traffic at x=10%, so they dominate as early adopters;
   CPs catch up as x grows;
2. CP connectivity — on the augmented graph (App. D) CPs peer widely
   and their mean path length drops to ~2, boosting their influence.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.core.adopters import content_providers, top_degree_isps
from repro.core.config import SimulationConfig, UtilityModel
from repro.core.dynamics import DeploymentSimulation, StateMemo
from repro.core.metrics import deployment_outcome
from repro.experiments.setup import ExperimentEnv, build_environment
from repro.topology.traffic import apply_traffic_model

DEFAULT_X_VALUES: tuple[float, ...] = (0.10, 0.20, 0.33, 0.50)


@dataclasses.dataclass(frozen=True)
class CpVsTier1Cell:
    """One (x, adopter set, theta, graph) outcome."""

    x: float
    adopters: str  # "5-cps" or "top-5-tier1"
    theta: float
    augmented: bool
    fraction_secure_ases: float
    fraction_secure_isps: float


def run_cp_vs_tier1(
    env: ExperimentEnv,
    thetas: Sequence[float] = (0.0, 0.05, 0.10, 0.30, 0.50),
    x_values: Sequence[float] = DEFAULT_X_VALUES,
) -> list[CpVsTier1Cell]:
    """Sweep x and theta for both adopter sets on ``env``'s graph.

    The traffic model is re-applied per ``x``; routing structures are
    weight-independent, so the cache is reused throughout.
    """
    graph = env.graph
    sets = {
        "5-cps": content_providers(graph),
        "top-5-tier1": top_degree_isps(graph, 5),
    }
    cells: list[CpVsTier1Cell] = []
    for x in x_values:
        apply_traffic_model(graph, x)
        memo = StateMemo()  # per x: utilities move with the weights
        for name, adopters in sets.items():
            for theta in thetas:
                config = SimulationConfig(theta=theta, utility_model=UtilityModel.OUTGOING)
                result = DeploymentSimulation(
                    graph, adopters, config, env.cache, memo=memo
                ).run()
                outcome = deployment_outcome(result)
                cells.append(
                    CpVsTier1Cell(
                        x=x,
                        adopters=name,
                        theta=theta,
                        augmented=env.augmented,
                        fraction_secure_ases=outcome.fraction_secure_ases,
                        fraction_secure_isps=outcome.fraction_secure_isps,
                    )
                )
    apply_traffic_model(graph, env.x)  # restore the env's traffic model
    return cells


def run_graph_comparison(
    n: int = 800,
    seed: int = 2011,
    x: float = 0.10,
    thetas: Sequence[float] = (0.0, 0.05, 0.10, 0.30),
) -> dict[bool, list[CpVsTier1Cell]]:
    """Fig. 12b: the same comparison on the original vs augmented graph."""
    out: dict[bool, list[CpVsTier1Cell]] = {}
    for augmented in (False, True):
        env = build_environment(n=n, seed=seed, x=x, augmented=augmented)
        out[augmented] = run_cp_vs_tier1(env, thetas=thetas, x_values=(x,))
    return out
