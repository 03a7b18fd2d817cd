"""Scale-invariance study: does the substitution hold?

DESIGN.md argues the paper's results follow from *structural*
statistics — degree skew, 85% stubs, tiny tiebreak sets, short paths —
that the synthetic generator preserves at any size.  This study runs
the same experiment at several scales and reports the statistics the
argument rests on next to the deployment outcome, so drift with N is
visible rather than assumed.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.core.config import SimulationConfig
from repro.core.dynamics import run_deployment
from repro.experiments.setup import build_environment
from repro.routing.tiebreak import (
    collect_tiebreak_stats,
    security_sensitive_decision_fraction,
)
from repro.topology.stats import summarize


@dataclasses.dataclass(frozen=True)
class ScalePoint:
    """Structure + outcome at one graph size."""

    n: int
    stub_fraction: float
    mean_tiebreak: float
    multi_path_fraction: float
    security_sensitive_fraction: float   # the §6.7 number
    fraction_secure_ases: float          # case-study outcome
    num_rounds: int


def run_scaling_study(
    sizes: Sequence[int] = (250, 500, 1000),
    theta: float = 0.05,
    seed: int = 2011,
    x: float = 0.10,
    tiebreak_sample: int = 150,
) -> list[ScalePoint]:
    """Case study + structural statistics at each size."""
    points: list[ScalePoint] = []
    for n in sizes:
        env = build_environment(n=n, seed=seed, x=x)
        summary = summarize(env.graph)
        sample = list(range(0, env.graph.n, max(1, env.graph.n // tiebreak_sample)))
        stats = collect_tiebreak_stats(env.graph, destinations=sample, cache=env.cache)
        result = run_deployment(
            env.graph,
            env.case_study_adopters(),
            SimulationConfig(theta=theta),
            env.cache,
        )
        points.append(
            ScalePoint(
                n=n,
                stub_fraction=summary.stub_fraction,
                mean_tiebreak=stats.mean,
                multi_path_fraction=stats.multi_path_fraction,
                security_sensitive_fraction=security_sensitive_decision_fraction(
                    env.graph, stats
                ),
                fraction_secure_ases=float(result.final_node_secure.mean()),
                num_rounds=result.num_rounds,
            )
        )
    return points
