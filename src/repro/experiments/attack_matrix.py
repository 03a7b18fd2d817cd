"""The attack × policy × deployment-strategy matrix.

§2.2.1 evaluates one attack (the origin hijack) against one deployment
path (the market's).  This runner spans the full grid: every registered
:class:`~repro.security.scenarios.AttackScenario`, every registered
routing policy, and every registered
:class:`~repro.security.scenarios.DeploymentStrategy` evaluated at a
ladder of deployment levels — the Lychev et al. "Is the Juice Worth
the Squeeze?" question asked of every cell at once.

One seeded (victim, attacker) pair sample is drawn up front and shared
by *every* cell, so per-cell differences are pure scenario / policy /
deployment effects, never sampling noise.  Cells run on the batched
multi-origin kernel (:func:`repro.security.hijack.simulate_attacks_batched`),
once per distinct routing problem of a run — what the kernel is handed:
the scenario, the deployment state, the nodes that apply SecP and the
ranking as the kernel can tell it apart
(:func:`repro.routing.fixpoint.ranking_key`).  Strategies that reach the
same state — the static orderings at level 0 and at 1.0 — share its
problems, and so do policies that differ only where SecP sits when
nobody applies it; a shared evaluation is counted as
``security.attack.cells_shared``, and each of its cells is still
journaled and reported as computed, under its own policy, strategy and
level.

Like sweeps, matrix runs checkpoint cell by cell through a
:class:`~repro.runtime.journal.CellLog`.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.core.state import StateDeriver
from repro.experiments.setup import ExperimentEnv
from repro.routing.fixpoint import ranking_key
from repro.routing.policy import available_policies, get_policy
from repro.routing.reference import ConvergenceError
from repro.runtime.journal import CellLog, RunJournal
from repro.security.metrics import impact_from_outcomes, sample_pairs
from repro.security.hijack import simulate_attacks_batched
from repro.security.scenarios import (
    available_scenarios,
    available_strategies,
    get_scenario,
    get_strategy,
)
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import get_tracer

#: journal ``kind`` for attack-matrix checkpoints
MATRIX_JOURNAL_KIND = "attack-matrix"

#: default deployment-level ladder (0 = nobody, 1 = the strategy's end)
DEFAULT_LEVELS: tuple[float, ...] = (0.0, 0.5, 1.0)

#: progress callback: ``(cell, source)`` with source ``"computed"`` or
#: ``"replayed"``; raising aborts at a cell boundary (everything
#: finished is already journaled), mirroring sweep cancellation.
MatrixCallback = Callable[["AttackMatrixCell", str], None]


@dataclasses.dataclass(frozen=True)
class AttackMatrixCell:
    """Outcome of one (scenario, policy, strategy, level) evaluation."""

    scenario: str
    policy: str
    strategy: str
    level: float
    samples: int
    fraction_secure: float        # of the deployment state actually used
    mean_fraction_fooled: float
    max_fraction_fooled: float
    outcome: str                  # "ok" | "no-convergence"

    @property
    def key(self) -> tuple[str, str, str, float]:
        return (self.scenario, self.policy, self.strategy, self.level)


def cell_to_dict(cell: AttackMatrixCell) -> dict:
    """JSON-serialisable form of a cell (for the matrix journal)."""
    return dataclasses.asdict(cell)


def cell_from_dict(payload: dict) -> AttackMatrixCell:
    """Inverse of :func:`cell_to_dict`."""
    fields = {f.name for f in dataclasses.fields(AttackMatrixCell)}
    return AttackMatrixCell(**{k: v for k, v in payload.items() if k in fields})


def _matrix_meta(
    env: ExperimentEnv,
    scenarios: Sequence[str],
    policies: Sequence[str],
    strategies: Sequence[str],
    levels: Sequence[float],
    samples: int,
    seed: int,
) -> dict:
    """Header metadata identifying one matrix grid.

    Resuming a journal whose scenario set differs raises
    :class:`~repro.runtime.errors.SchemaError` naming both sets (cells
    from different threat models are not comparable); any other
    difference raises :class:`~repro.runtime.errors.JournalMismatchError`.
    """
    return {
        "num_ases": env.graph.n,
        "env_policy": env.cache.policy_name,
        "scenarios": sorted(scenarios),
        "policies": sorted(policies),
        "strategies": sorted(strategies),
        "levels": [float(f) for f in levels],
        "samples": int(samples),
        "seed": int(seed),
    }


def run_attack_matrix(
    env: ExperimentEnv,
    scenarios: Sequence[str] | None = None,
    policies: Sequence[str] | None = None,
    strategies: Sequence[str] | None = None,
    levels: Sequence[float] = DEFAULT_LEVELS,
    samples: int = 12,
    seed: int = 0,
    stub_breaks_ties: bool = True,
    journal: RunJournal | str | Path | None = None,
    on_cell: MatrixCallback | None = None,
    backend: str | None = None,
) -> list[AttackMatrixCell]:
    """Evaluate the full scenario × policy × strategy × level grid.

    Deployment trajectories come from the named strategies (the
    ``market_rounds`` replay runs under the environment's cache
    policy); attack outcomes are then evaluated under *each* routing
    policy in ``policies``, so the matrix separates "who deployed" from
    "how routes are ranked".  A policy that fails to converge under a
    scenario yields an ``outcome="no-convergence"`` cell, never an
    exception — matching the §8.3 ablation's treatment of
    ``security_1st``.

    Cells that hand the kernel the same problem — same scenario,
    deployment state and SecP-applying nodes (``node_secure &
    breaks_ties``, less the policy's sticky nodes), and a ranking the
    kernel cannot tell apart (:func:`~repro.routing.fixpoint.ranking_key`:
    where SecP sits does not matter when nobody applies it) — are
    attacked once and share the outcome, which is bit-identical to
    attacking each: at level 0 every ranking that keeps LP above SP
    shares one problem per scenario.  A shared cell is counted as
    ``security.attack.cells_shared``, and journaled and reported as
    computed under its own policy, strategy and level.
    """
    # canonicalise up front: cells, journal metadata and telemetry all
    # key on names, so an alias ("hijack") must never leak into them
    scenarios = [
        get_scenario(s).name
        for s in (scenarios if scenarios is not None else available_scenarios())
    ]
    policies = [
        get_policy(p).name
        for p in (policies if policies is not None else available_policies())
    ]
    strategies = [
        get_strategy(s).name
        for s in (strategies if strategies is not None else available_strategies())
    ]
    levels = [float(f) for f in levels]

    log = CellLog(
        journal, MATRIX_JOURNAL_KIND,
        _matrix_meta(env, scenarios, policies, strategies, levels, samples, seed),
        named="scenarios", legacy=[], key=lambda cell: cell.key,
        encode=cell_to_dict, decode=cell_from_dict,
        telemetry="security.attack", on_cell=on_cell,
    )
    graph = env.graph
    pairs = sample_pairs(graph, samples=samples, seed=seed)
    deriver = StateDeriver(graph, stub_breaks_ties, env.cache.compiled)

    registry = get_registry()
    tracer = get_tracer()
    cell_timer = registry.histogram("security.attack.cell_seconds")
    total = len(scenarios) * len(policies) * len(strategies) * len(levels)
    cells: list[AttackMatrixCell] = []
    # a cell's outcome is a function of the problem the kernel is
    # handed alone, which strategies (one state) and policies (one
    # ranking key) share: each distinct one is attacked once per run
    attacked: dict[tuple, AttackMatrixCell] = {}
    with tracer.span("attack.matrix", cells=total):
        for strategy_name in strategies:
            strategy = get_strategy(strategy_name)
            states = strategy.states(
                graph, levels, seed=seed, theta=0.05, cache=env.cache,
            )
            for level, state in states:
                node_secure = deriver.node_secure(state)
                breaks = deriver.breaks_ties(node_secure)
                fraction_secure = float(node_secure.sum()) / max(1, graph.n)
                secure = node_secure.tobytes()
                problems = {}
                for policy_name in policies:
                    policy = get_policy(policy_name)
                    applies = policy.secp_applies(node_secure, breaks)
                    problems[policy_name] = (
                        secure, applies.tobytes(), ranking_key(policy.ranking, applies),
                    )
                for scenario_name in scenarios:
                    for policy_name in policies:
                        key = (scenario_name, policy_name, strategy_name, level)
                        cell = log.lookup(key)
                        if cell is None:
                            evaluated = (scenario_name, *problems[policy_name])
                            with tracer.span(
                                "attack.cell", scenario=scenario_name,
                                policy=policy_name, strategy=strategy_name,
                                level=level,
                            ), cell_timer.time():
                                shared = attacked.get(evaluated)
                                if shared is None:
                                    cell = attacked[evaluated] = _run_cell(
                                        graph, pairs, node_secure, breaks,
                                        scenario_name, policy_name, strategy_name,
                                        level, fraction_secure, backend,
                                        env.cache.compiled,
                                    )
                                else:
                                    registry.counter(
                                        "security.attack.cells_shared"
                                    ).inc()
                                    cell = dataclasses.replace(
                                        shared, policy=policy_name,
                                        strategy=strategy_name, level=level,
                                    )
                            log.record(key, cell)
                        cells.append(cell)
    return cells


def _run_cell(
    graph,
    pairs,
    node_secure,
    breaks,
    scenario: str,
    policy: str,
    strategy: str,
    level: float,
    fraction_secure: float,
    backend: str | None,
    compiled,
) -> AttackMatrixCell:
    """Evaluate one cell on the shared pair sample (kernel fast path)."""
    try:
        outcomes = simulate_attacks_batched(
            graph, pairs, node_secure, breaks,
            scenario=scenario, policy=policy, backend=backend,
            compiled=compiled,
        )
    except ConvergenceError:
        return AttackMatrixCell(
            scenario=scenario, policy=policy, strategy=strategy,
            level=level, samples=len(pairs),
            fraction_secure=fraction_secure,
            mean_fraction_fooled=0.0, max_fraction_fooled=0.0,
            outcome="no-convergence",
        )
    impact = impact_from_outcomes(outcomes)
    return AttackMatrixCell(
        scenario=scenario, policy=policy, strategy=strategy,
        level=level, samples=impact.samples,
        fraction_secure=fraction_secure,
        mean_fraction_fooled=impact.mean_fraction_fooled,
        max_fraction_fooled=impact.max_fraction_fooled,
        outcome="ok",
    )


def matrix_to_rows(cells: Iterable[AttackMatrixCell]) -> list[list[object]]:
    """Rows for :func:`repro.experiments.report.format_table`."""
    return [
        [
            c.scenario,
            c.policy,
            c.strategy,
            f"{c.level:.2f}",
            f"{c.fraction_secure:.3f}",
            f"{c.mean_fraction_fooled:.3f}",
            f"{c.max_fraction_fooled:.3f}",
            c.outcome,
        ]
        for c in cells
    ]
