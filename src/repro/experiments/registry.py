"""Named experiment registry: every paper artefact, runnable by id.

Maps experiment ids ("fig3", "table1", "sec67", ...) to self-contained
runners that take an :class:`ExperimentEnv` and return printable text.
The CLI exposes this as ``sbgp-sim experiment --id <id>``; benchmarks
remain the canonical regeneration path (they also assert shapes).
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.core.config import SimulationConfig, UtilityModel
from repro.core.dynamics import DeploymentSimulation
from repro.core.diamonds import diamond_census
from repro.experiments.attack_matrix import run_attack_matrix
from repro.experiments.case_study import run_case_study
from repro.experiments.report import format_series, format_table
from repro.experiments.setup import ExperimentEnv
from repro.experiments.sweeps import cells_to_rows, run_sweep
from repro.experiments.turnoff import per_destination_turn_off_census
from repro.routing.cache import RoutingCache
from repro.routing.policy import available_policies, get_policy
from repro.routing.reference import ConvergenceError
from repro.routing.tiebreak import (
    collect_tiebreak_stats,
    security_sensitive_decision_fraction,
)
from repro.security.scenarios import available_scenarios, available_strategies
from repro.topology.stats import summarize


@dataclasses.dataclass(frozen=True)
class Experiment:
    """A runnable, named reproduction target."""

    id: str
    title: str
    paper_ref: str
    run: Callable[[ExperimentEnv], str]


def _table1(env: ExperimentEnv) -> str:
    adopters = env.case_study_adopters()
    census = diamond_census(env.graph, adopters, env.cache)
    rows = [[a, census.contested_stubs[a], census.competitor_pairs[a]]
            for a in adopters]
    return format_table(
        ["early adopter", "contested stubs", "competitor pairs"], rows,
        title="Table 1: diamonds per early adopter",
    )


def _fig3(env: ExperimentEnv) -> str:
    report = run_case_study(env, theta=0.05)
    lines = [
        "Fig 3: deployment per round (theta=5%)",
        format_series("  newly secure ASes", report.fig3_new_ases, "{:d}"),
        format_series("  adopting ISPs    ", report.fig3_new_isps, "{:d}"),
        f"  final: {report.fraction_secure_ases:.1%} of ASes secure",
    ]
    return "\n".join(lines)


def _fig8(env: ExperimentEnv) -> str:
    cells = run_sweep(env, thetas=(0.0, 0.05, 0.10, 0.30, 0.50))
    return format_table(
        ["adopters", "theta", "frac ASes", "frac ISPs", "frac paths",
         "f^2", "rounds", "outcome"],
        cells_to_rows(cells),
        title="Fig 8/9: adoption and secure paths vs theta",
    )


def _fig10(env: ExperimentEnv) -> str:
    stats = collect_tiebreak_stats(env.graph, cache=env.cache)
    frac = security_sensitive_decision_fraction(env.graph, stats)
    return (
        f"Fig 10 / sec 6.6-6.7: mean tiebreak {stats.mean:.2f} "
        f"(ISPs {stats.mean_isp:.2f}, stubs {stats.mean_stub:.2f}); "
        f"multi-path {stats.multi_path_fraction:.1%}; "
        f"security-sensitive decisions {frac:.2%}"
    )


def _sec73(env: ExperimentEnv) -> str:
    config = SimulationConfig(theta=0.05, utility_model=UtilityModel.OUTGOING)
    sim = DeploymentSimulation(env.graph, env.case_study_adopters(), config, env.cache)
    state = sim.run().final_state
    census = per_destination_turn_off_census(env, state, stub_breaks_ties=True)
    return (
        f"Sec 7.3: {census.num_with_incentive}/{census.num_secure_isps} secure "
        f"ISPs ({census.fraction:.1%}) have a per-destination turn-off incentive"
    )


def _sec83(env: ExperimentEnv) -> str:
    """Policy ablation: the case study re-run under every registered
    ranking (rounds capped — this is a comparison, not a full sweep).

    Each policy gets a *fresh* cache: a :class:`RoutingCache` is bound
    to one policy for its lifetime, so structures can never be shared
    across rankings.  ``security_1st`` may fail to converge on some
    topologies (Lychev et al.); that outcome is reported, not raised.
    """
    adopters = env.case_study_adopters()
    dests = list(env.cache.destinations)
    rows = []
    for name in available_policies():
        pol = get_policy(name)
        cache = RoutingCache(env.graph, destinations=dests, policy=name)
        config = SimulationConfig(theta=0.05, max_rounds=12, policy=name)
        sim = DeploymentSimulation(env.graph, adopters, config, cache)
        try:
            result = sim.run()
        except ConvergenceError:
            rows.append([name, pol.ranking_str(), "-", "-", "no-convergence"])
            continue
        frac = float(result.final_node_secure.sum()) / env.graph.n
        rows.append([
            name, pol.ranking_str(), f"{frac:.3f}",
            result.num_rounds, result.outcome.value,
        ])
    return format_table(
        ["policy", "ranking", "frac secure", "rounds", "outcome"], rows,
        title="Sec 8.3 / Lychev et al.: adoption by routing policy (12-round cap)",
    )


def _attack_matrix(env: ExperimentEnv) -> str:
    """The full attack × policy × deployment-strategy grid in one run.

    Every registered scenario × every registered routing policy ×
    every registered deployment strategy, at three deployment levels,
    on one shared seeded pair sample.  The printed table pivots the
    *mid* deployment level (at full deployment the static orderings all
    coincide): one row per (scenario, strategy), one column of mean
    fraction fooled per policy; ``-`` marks policies that failed to
    converge under that scenario (reported, not raised).
    """
    cells = run_attack_matrix(env, levels=(0.0, 0.5, 1.0), samples=6)
    by_key = {c.key: c for c in cells}
    grid = sorted({c.level for c in cells})
    top = grid[len(grid) // 2]
    policies = available_policies()
    rows = []
    for scenario in available_scenarios():
        for strategy in available_strategies():
            row: list[object] = [scenario, strategy]
            for policy in policies:
                cell = by_key[(scenario, policy, strategy, top)]
                row.append(
                    f"{cell.mean_fraction_fooled:.3f}"
                    if cell.outcome == "ok" else "-"
                )
            rows.append(row)
    return format_table(
        ["scenario", "strategy", *policies], rows,
        title=(
            f"Attack matrix: mean fraction fooled at deployment level "
            f"{top:g} ({len(cells)} cells total)"
        ),
    )


def _table2(env: ExperimentEnv) -> str:
    s = summarize(env.graph)
    return format_table(
        ["ASes", "stubs", "ISPs", "CPs", "cust-prov", "peerings"],
        [[s.num_ases, s.num_stubs, s.num_isps, s.num_cps,
          s.num_customer_provider_edges, s.num_peering_edges]],
        title="Table 2: graph composition",
    )


EXPERIMENTS: dict[str, Experiment] = {
    e.id: e
    for e in (
        Experiment("table1", "Diamond census", "Table 1 / §5.1", _table1),
        Experiment("fig3", "Adoption per round", "Fig 3 / §5.2", _fig3),
        Experiment("fig8", "Theta sweep", "Fig 8-9 / §6.3-6.5", _fig8),
        Experiment("fig10", "Tiebreak sets", "Fig 10 / §6.6-6.7", _fig10),
        Experiment("sec73", "Turn-off census", "§7.3", _sec73),
        Experiment("sec83", "Routing-policy ablation", "§8.3 / Lychev et al.", _sec83),
        Experiment(
            "attack-matrix",
            "Attack × policy × deployment matrix",
            "§2.2.1 / Lychev et al. / Barrett et al.",
            _attack_matrix,
        ),
        Experiment("table2", "Graph composition", "Table 2 / App D", _table2),
    )
}


def run_experiment(experiment_id: str, env: ExperimentEnv) -> str:
    """Run a registered experiment by id (raises KeyError with a hint)."""
    try:
        experiment = EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known ids: {known}"
        ) from None
    return experiment.run(env)


def list_experiments() -> list[Experiment]:
    """All registered experiments, id-sorted."""
    return [EXPERIMENTS[k] for k in sorted(EXPERIMENTS)]
