"""Theta sweeps over early-adopter sets (Figures 8, 9, 11, 14).

One sweep = run the deployment game to termination for every
(early-adopter set, theta) pair and record adoption and security
outcomes.  The cache is shared across all runs on the same graph, and
the games of one adopter set share their theta-free state evaluations
(:class:`~repro.core.dynamics.StateMemo`), so each extra cell costs only
the states no earlier theta of its row has visited.

Sweeps are the repo's longest computations (the paper reran this grid
for every parameterisation, hours per run), so they checkpoint cell by
cell through a :class:`~repro.runtime.journal.CellLog` (``sbgp-sim
sweep --journal runs/fig8.jsonl --resume``).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, Iterable, Protocol, Sequence

from repro.core.config import SimulationConfig
from repro.core.dynamics import DeploymentSimulation, StateMemo
from repro.core.metrics import (
    deployment_outcome,
    projection_accuracy,
    snapshot_from_counts,
)
from repro.experiments.setup import ExperimentEnv
from repro.runtime.journal import CellLog, RunJournal
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


def cell_to_dict(cell: SweepCell) -> dict:
    """JSON-serialisable form of a cell (for the sweep journal)."""
    payload = dataclasses.asdict(cell)
    payload["projection_ratios"] = list(cell.projection_ratios)
    return payload


def cell_from_dict(payload: dict) -> SweepCell:
    """Inverse of :func:`cell_to_dict`; keys a cell no longer has (the
    empty ``attack`` list of older journals) are ignored."""
    fields = {f.name for f in dataclasses.fields(SweepCell)}
    kwargs = {k: v for k, v in payload.items() if k in fields}
    kwargs["projection_ratios"] = tuple(kwargs.get("projection_ratios", ()))
    return SweepCell(**kwargs)


def _sweep_meta(
    env: ExperimentEnv,
    thetas: Sequence[float],
    adopter_sets: dict[str, list[int]],
    stub_breaks_ties: bool,
    collect_projection_accuracy: bool,
    max_rounds: int,
) -> dict:
    """Header metadata identifying one sweep grid.

    Resuming a journal whose metadata differs raises
    :class:`~repro.runtime.errors.JournalMismatchError` — mixing cells
    from different grids would silently corrupt figures.  A sweep
    always plays the outgoing model; the key stays so that the
    journals of earlier sweeps still resume.
    """
    return {
        "num_ases": env.graph.n,
        "policy": env.cache.policy_name,
        "thetas": [float(t) for t in thetas],
        "adopter_sets": {
            name: sorted(asns) for name, asns in sorted(adopter_sets.items())
        },
        "stub_breaks_ties": stub_breaks_ties,
        "utility_model": "outgoing",
        "collect_projection_accuracy": collect_projection_accuracy,
        "max_rounds": max_rounds,
    }


def _run_cell(
    env: ExperimentEnv,
    name: str,
    adopters: list[int],
    theta: float,
    stub_breaks_ties: bool,
    collect_projection_accuracy: bool,
    max_rounds: int,
    memo: StateMemo,
) -> SweepCell:
    """Simulate one (adopter set, theta) pair to termination."""
    config = SimulationConfig(
        theta=theta,
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
    )


def run_sweep(
    env: ExperimentEnv,
    thetas: Sequence[float] = DEFAULT_THETAS,
    adopter_sets: dict[str, list[int]] | None = None,
    stub_breaks_ties: bool = True,
    collect_projection_accuracy: bool = False,
    max_rounds: int = 100,
    journal: RunJournal | str | Path | None = None,
    cell_cache: CellCache | None = None,
    on_cell: CellCallback | None = None,
    memo: StateMemo | None = None,
) -> list[SweepCell]:
    """Run the full (adopter set x theta) grid and return its cells.

    ``journal``, ``cell_cache`` and ``on_cell`` are the grid's
    :class:`~repro.runtime.journal.CellLog`: a resumed run returns the
    cells an uninterrupted one would have, and resuming under another
    routing policy raises :class:`~repro.runtime.errors.SchemaError`.
    Every game plays the outgoing utility model (Eq. 1).

    Every game evaluates its states into ``memo``, which the sweep
    keeps whole: its owner decides what it holds.  Without one the
    sweep keeps a private memo and drops each row's trajectories when
    the next row starts.
    """
    adopter_sets = adopter_sets or env.adopter_sets()
    log = CellLog(
        journal, SWEEP_JOURNAL_KIND,
        _sweep_meta(
            env, thetas, adopter_sets, stub_breaks_ties,
            collect_projection_accuracy, max_rounds,
        ),
        named="policy", legacy="security_3rd",
        key=lambda cell: (cell.adopters, cell.theta),
        encode=cell_to_dict, decode=cell_from_dict,
        telemetry="sweep", store=cell_cache, on_cell=on_cell,
    )
    tracer = get_tracer()
    cell_timer = get_registry().histogram("sweep.cell_seconds")
    cells: list[SweepCell] = []
    # nothing but theta changes along a row, so its games share their
    # state evaluations; across rows of a private memo only the empty
    # state's carries over
    private = memo is None
    memo = StateMemo() if private else memo
    with tracer.span("sweep", cells=len(adopter_sets) * len(thetas)):
        for name, adopters in adopter_sets.items():
            if private:
                memo.discard_trajectories()
            for theta in thetas:
                key = (name, float(theta))
                cell = log.lookup(key)
                if cell is None:
                    with tracer.span("cell", adopters=name, theta=float(theta)), \
                            cell_timer.time():
                        cell = _run_cell(
                            env, name, adopters, theta, stub_breaks_ties,
                            collect_projection_accuracy, max_rounds, memo,
                        )
                    log.record(key, cell)
                cells.append(cell)
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
