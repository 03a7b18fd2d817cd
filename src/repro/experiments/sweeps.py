"""Theta sweeps over early-adopter sets (Figures 8, 9, 11, 14).

One sweep = run the deployment game to termination for every
(early-adopter set, theta) pair and record adoption and security
outcomes.  The cache is shared across all runs on the same graph, and
the games of one adopter set share their theta-free state evaluations
(:class:`~repro.core.dynamics.StateMemo`), so each extra cell costs only
the states no earlier theta of its row has visited.

Sweeps are the repo's longest computations (the paper reran this grid
for every parameterisation, hours per run), so they checkpoint: pass a
:class:`~repro.runtime.journal.RunJournal` (or a path) as ``journal``
and every finished cell is durably appended; a rerun with the same
journal — ``sbgp-sim sweep --journal runs/fig8.jsonl --resume`` —
replays completed cells instead of recomputing them, yielding the same
cell list an uninterrupted run would have produced.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, Iterable, Protocol, Sequence

from repro.core.config import SimulationConfig, UtilityModel
from repro.core.dynamics import DeploymentSimulation, StateMemo
from repro.core.metrics import (
    deployment_outcome,
    projection_accuracy,
    snapshot_from_counts,
)
from repro.experiments.setup import ExperimentEnv
from repro.runtime.errors import SchemaError
from repro.runtime.guard import current_guard
from repro.runtime.journal import RunJournal, coerce_journal
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import get_tracer

#: the theta grid of Fig. 8
DEFAULT_THETAS: tuple[float, ...] = (0.0, 0.05, 0.10, 0.20, 0.30, 0.50)

#: journal ``kind`` for sweep checkpoints
SWEEP_JOURNAL_KIND = "sweep"


class CellCache(Protocol):
    """Cross-run cell store consulted before computing a sweep cell.

    The simulation service binds one of these to its
    :class:`~repro.service.cache.ResultCache` so two users sweeping
    overlapping grids share finished cells.  Implementations own the
    key scope (the service keys by environment + grid digests); the
    sweep only contributes ``(adopter-set name, theta)``.
    """

    def get(self, adopters: str, theta: float) -> "SweepCell | None": ...

    def put(self, adopters: str, theta: float, cell: "SweepCell") -> None: ...


#: progress callback: ``(cell, source)`` with source one of
#: ``"computed"`` / ``"replayed"`` (from this run's journal) /
#: ``"cache"`` (from a cross-run CellCache).  Raising from the callback
#: aborts the sweep at a cell boundary — everything finished is already
#: journaled, which is exactly how the service implements cooperative
#: job cancellation and graceful suspend.
CellCallback = Callable[["SweepCell", str], None]


@dataclasses.dataclass(frozen=True)
class SweepCell:
    """Outcome of one (adopter set, theta) simulation."""

    adopters: str
    theta: float
    stub_breaks_ties: bool
    fraction_secure_ases: float    # Fig. 8a
    fraction_secure_isps: float    # Fig. 8b
    fraction_isps_by_market: float  # §6.5 market-vs-simplex split
    fraction_secure_paths: float   # Fig. 9
    f_squared: float               # Fig. 9 reference
    num_rounds: int
    outcome: str
    projection_ratios: tuple[float, ...] = ()  # Fig. 14 (theta = 0 runs)
    #: attack impact at the final state, one ``(scenario, mean fooled,
    #: max fooled)`` triple per requested scenario (empty when the
    #: sweep's attack axis is off)
    attack: tuple[tuple[str, float, float], ...] = ()


def cell_to_dict(cell: SweepCell) -> dict:
    """JSON-serialisable form of a cell (for the sweep journal)."""
    payload = dataclasses.asdict(cell)
    payload["projection_ratios"] = list(cell.projection_ratios)
    payload["attack"] = [list(t) for t in cell.attack]
    return payload


def cell_from_dict(payload: dict) -> SweepCell:
    """Inverse of :func:`cell_to_dict`."""
    fields = {f.name for f in dataclasses.fields(SweepCell)}
    kwargs = {k: v for k, v in payload.items() if k in fields}
    kwargs["projection_ratios"] = tuple(kwargs.get("projection_ratios", ()))
    kwargs["attack"] = tuple(
        (str(s), float(mean), float(peak))
        for s, mean, peak in kwargs.get("attack", ())
    )
    return SweepCell(**kwargs)


def _sweep_meta(
    env: ExperimentEnv,
    thetas: Sequence[float],
    adopter_sets: dict[str, list[int]],
    stub_breaks_ties: bool,
    utility_model: UtilityModel,
    collect_projection_accuracy: bool,
    max_rounds: int,
    attack_scenarios: Sequence[str] = (),
    attack_samples: int = 0,
    attack_seed: int = 0,
) -> dict:
    """Header metadata identifying one sweep grid.

    Resuming a journal whose metadata differs raises
    :class:`~repro.runtime.errors.JournalMismatchError` — mixing cells
    from different grids would silently corrupt figures.  The attack
    keys appear only when the attack axis is on, so journals from
    before the axis existed still resume byte-identically.
    """
    meta = {
        "num_ases": env.graph.n,
        "policy": env.cache.policy_name,
        "thetas": [float(t) for t in thetas],
        "adopter_sets": {
            name: sorted(asns) for name, asns in sorted(adopter_sets.items())
        },
        "stub_breaks_ties": stub_breaks_ties,
        "utility_model": utility_model.value,
        "collect_projection_accuracy": collect_projection_accuracy,
        "max_rounds": max_rounds,
    }
    if attack_scenarios:
        meta["attack_scenarios"] = sorted(attack_scenarios)
        meta["attack_samples"] = int(attack_samples)
        meta["attack_seed"] = int(attack_seed)
    return meta


def _run_cell(
    env: ExperimentEnv,
    name: str,
    adopters: list[int],
    theta: float,
    stub_breaks_ties: bool,
    utility_model: UtilityModel,
    collect_projection_accuracy: bool,
    max_rounds: int,
    attack_scenarios: Sequence[str] = (),
    attack_samples: int = 8,
    attack_seed: int = 0,
    memo: StateMemo | None = None,
) -> SweepCell:
    """Simulate one (adopter set, theta) pair to termination."""
    config = SimulationConfig(
        theta=theta,
        utility_model=utility_model,
        stub_breaks_ties=stub_breaks_ties,
        max_rounds=max_rounds,
        policy=env.cache.policy_name,
    )
    sim = DeploymentSimulation(env.graph, adopters, config, env.cache, memo=memo)
    result = sim.run()
    outcome = deployment_outcome(result)
    snapshot = snapshot_from_counts(
        env.graph, result.final_node_secure,
        result.final_secure_pairs, result.num_dests,
    )
    ratios: tuple[float, ...] = ()
    if collect_projection_accuracy:
        ratios = tuple(projection_accuracy(result))
    attack: tuple[tuple[str, float, float], ...] = ()
    if attack_scenarios:
        from repro.security.metrics import impact_for_state

        impacts = []
        for scenario in attack_scenarios:
            impact = impact_for_state(
                env.graph, sim.deriver, result.final_state,
                samples=attack_samples, seed=attack_seed,
                scenario=scenario, policy=env.cache.policy_name,
            )
            impacts.append(
                (scenario, impact.mean_fraction_fooled, impact.max_fraction_fooled)
            )
        attack = tuple(impacts)
    return SweepCell(
        adopters=name,
        theta=theta,
        stub_breaks_ties=stub_breaks_ties,
        fraction_secure_ases=outcome.fraction_secure_ases,
        fraction_secure_isps=outcome.fraction_secure_isps,
        fraction_isps_by_market=outcome.fraction_isps_by_market,
        fraction_secure_paths=snapshot.fraction_secure_paths,
        f_squared=snapshot.f_squared,
        num_rounds=outcome.num_rounds,
        outcome=outcome.outcome,
        projection_ratios=ratios,
        attack=attack,
    )


def _check_journal_policy(journal: RunJournal, policy: str) -> None:
    """Refuse to resume a sweep journal recorded under another policy.

    Cells computed under different routing policies are not comparable;
    replaying them into one grid would silently corrupt every figure.
    Raised *before* the generic header check so the error names the two
    policies instead of a bag of mismatched metadata keys.
    """
    if not journal.exists():
        return
    header = journal.header()
    if header is None or header.get("kind") != SWEEP_JOURNAL_KIND:
        return  # kind mismatch is ensure_header's to report
    recorded = (header.get("meta") or {}).get("policy", "security_3rd")
    if recorded != policy:
        raise SchemaError(
            f"{journal.path}: sweep journal was recorded under routing "
            f"policy {recorded!r} but this run uses {policy!r}; resuming "
            "would mix cells from incompatible rankings — use a fresh "
            "journal path (or rebuild the environment with the recorded "
            "policy)"
        )


def run_sweep(
    env: ExperimentEnv,
    thetas: Sequence[float] = DEFAULT_THETAS,
    adopter_sets: dict[str, list[int]] | None = None,
    stub_breaks_ties: bool = True,
    utility_model: UtilityModel = UtilityModel.OUTGOING,
    collect_projection_accuracy: bool = False,
    max_rounds: int = 100,
    journal: RunJournal | str | Path | None = None,
    cell_cache: CellCache | None = None,
    on_cell: CellCallback | None = None,
    attack_scenarios: Sequence[str] = (),
    attack_samples: int = 8,
    attack_seed: int = 0,
) -> list[SweepCell]:
    """Run the full (adopter set x theta) grid and return its cells.

    With a ``journal``, each completed cell is durably appended as it
    finishes, and cells already present (from an interrupted earlier
    run) are replayed instead of recomputed — the returned list is
    identical to an uninterrupted run's.

    A ``cell_cache`` (see :class:`CellCache`) is consulted before each
    computation: hits are adopted verbatim (and still journaled, so
    resume stays complete) and misses are published after computing.
    ``on_cell`` observes every finished cell with its provenance.

    ``attack_scenarios`` turns on the sweep's attack axis: each cell's
    final state is additionally attacked under every named scenario
    (``attack_samples`` seeded pairs, batched kernel) and the impacts
    land in :attr:`SweepCell.attack`.  The axis participates in the
    journal header, so a journal recorded with a different axis refuses
    to resume.
    """
    if attack_scenarios:
        from repro.security.scenarios import get_scenario

        attack_scenarios = [get_scenario(s).name for s in attack_scenarios]
    adopter_sets = adopter_sets or env.adopter_sets()
    journal = coerce_journal(journal)
    done: dict[tuple[str, float], SweepCell] = {}
    if journal is not None:
        _check_journal_policy(journal, env.cache.policy_name)
        journal.ensure_header(
            SWEEP_JOURNAL_KIND,
            _sweep_meta(
                env, thetas, adopter_sets, stub_breaks_ties,
                utility_model, collect_projection_accuracy, max_rounds,
                attack_scenarios, attack_samples, attack_seed,
            ),
        )
        for record in journal.iter_records():
            if record.get("type") == "cell":
                cell = cell_from_dict(record["cell"])
                done[(cell.adopters, cell.theta)] = cell

    registry = get_registry()
    tracer = get_tracer()
    guard = current_guard()
    cell_timer = registry.histogram("sweep.cell_seconds")
    cells: list[SweepCell] = []
    # nothing but theta changes along a row, so its games share their
    # state evaluations; across rows only the empty state's carries over
    memo = StateMemo()
    with tracer.span("sweep", cells=len(adopter_sets) * len(thetas)):
        for name, adopters in adopter_sets.items():
            memo.discard_trajectories()
            for theta in thetas:
                replayed = done.get((name, float(theta)))
                if replayed is not None:
                    registry.counter("sweep.cells_replayed").inc()
                    cells.append(replayed)
                    if on_cell is not None:
                        on_cell(replayed, "replayed")
                    continue
                # cell boundary: everything finished so far is in the
                # journal, so DeadlineExceeded here resumes losslessly
                guard.check_deadline(f"sweep cell ({name}, theta={float(theta):g})")
                shared = (
                    cell_cache.get(name, float(theta))
                    if cell_cache is not None else None
                )
                if shared is not None:
                    # a cross-run hit is journaled like a computed cell,
                    # so this run's journal stays a complete resume record
                    registry.counter("sweep.cells_from_cache").inc()
                    if journal is not None:
                        journal.append({"type": "cell", "cell": cell_to_dict(shared)})
                    cells.append(shared)
                    if on_cell is not None:
                        on_cell(shared, "cache")
                    continue
                with tracer.span("cell", adopters=name, theta=float(theta)), \
                        cell_timer.time():
                    cell = _run_cell(
                        env, name, adopters, theta, stub_breaks_ties,
                        utility_model, collect_projection_accuracy, max_rounds,
                        attack_scenarios, attack_samples, attack_seed, memo,
                    )
                registry.counter("sweep.cells").inc()
                if journal is not None:
                    journal.append({"type": "cell", "cell": cell_to_dict(cell)})
                if cell_cache is not None:
                    cell_cache.put(name, float(theta), cell)
                cells.append(cell)
                if on_cell is not None:
                    on_cell(cell, "computed")
    return cells


def stub_tiebreak_comparison(
    env: ExperimentEnv,
    thetas: Sequence[float] = DEFAULT_THETAS,
    adopter_sets: dict[str, list[int]] | None = None,
) -> dict[bool, list[SweepCell]]:
    """Fig. 11: the same sweep with stubs breaking ties or ignoring
    security — the paper finds the outcomes nearly identical."""
    return {
        breaks: run_sweep(env, thetas, adopter_sets, stub_breaks_ties=breaks)
        for breaks in (True, False)
    }


def cells_to_rows(cells: Iterable[SweepCell]) -> list[list[object]]:
    """Rows for :func:`repro.experiments.report.format_table`."""
    return [
        [
            c.adopters,
            f"{c.theta:.2f}",
            f"{c.fraction_secure_ases:.3f}",
            f"{c.fraction_secure_isps:.3f}",
            f"{c.fraction_secure_paths:.3f}",
            f"{c.f_squared:.3f}",
            c.num_rounds,
            c.outcome,
        ]
        for c in cells
    ]
