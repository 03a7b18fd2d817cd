"""Job execution: the one service module allowed to call kernels.

Lint rule RPR012 enforces the boundary: HTTP handlers and the scheduler
marshal jobs, and only this module touches ``build_environment`` /
``run_sweep`` / ``run_case_study``.  Everything here runs on a
scheduler worker thread under the job's own
:class:`~repro.runtime.guard.RuntimeGuard` (guards are thread-local, so
two jobs' deadlines never interfere).

Cross-request sharing happens at two levels, both through the
:class:`~repro.service.cache.ResultCache`:

- jobs on one environment (digest and kernel backend) share one built
  :class:`~repro.experiments.setup.ExperimentEnv` — graph, traffic,
  warmed routing arena — and its state memos, so a state one job
  evaluated is not evaluated again by the next; a job holds the kept
  environment's lock while it runs, so jobs on one environment run one
  at a time and jobs on different environments in parallel.  Between
  jobs only the memos' ``[dests, n]`` round buffers are released
  (state-independent policies only: a state-dependent arena is valid
  for one deployment state, so those jobs build their own);
- finished sweep cells are consulted before each computation via a
  scope-bound :class:`~repro.service.cache.CellView`, and published
  after, so overlapping grids pay for their intersection once.

Cancellation and graceful suspend are cooperative: the progress
callback raises :class:`~repro.service.errors.JobCancelled` at the next
cell boundary, after every finished cell is journaled — so a suspended
job resumes exactly where it stopped when the daemon restarts.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Any, Callable, Iterator

from repro.core.dynamics import StateMemo
from repro.experiments.attack_matrix import cell_to_dict as matrix_cell_to_dict
from repro.experiments.attack_matrix import run_attack_matrix
from repro.experiments.case_study import run_case_study
from repro.experiments.setup import ExperimentEnv, build_environment
from repro.experiments.sweeps import cell_to_dict, run_sweep
from repro.routing.policy import available_policies, get_policy
from repro.runtime.guard import (
    Deadline,
    MemoryBudget,
    RuntimeGuard,
    use_guard,
)
from repro.service.cache import KeptEnv, ResultCache
from repro.service.errors import JobCancelled, SpecError
from repro.service.specs import JobSpec, cell_scope_digest, env_digest
from repro.service.store import Job, JobStore
from repro.telemetry.metrics import get_registry


def _job_guard(spec: JobSpec) -> RuntimeGuard:
    """The per-job runtime guard requested in the spec."""
    return RuntimeGuard(
        deadline=Deadline(spec.deadline) if spec.deadline is not None else None,
        memory=MemoryBudget(spec.memory_budget) if spec.memory_budget is not None else None,
    )


def _new_env(spec: JobSpec, warm: bool) -> ExperimentEnv:
    return build_environment(
        n=spec.n, seed=spec.seed, x=spec.x, augmented=spec.augmented,
        warm=warm, policy=spec.policy, backend=spec.kernel_backend,
    )


@contextlib.contextmanager
def _build_env(
    spec: JobSpec, cache: ResultCache
) -> Iterator[tuple[ExperimentEnv, KeptEnv | None]]:
    """The job's environment, and the kept entry it is (None: the job's own).

    The first job on an environment digest builds and warms it, and
    keeps it; later jobs get that environment, its arena and its state
    memos, and hold its lock until they leave this block.
    """
    if get_policy(spec.policy).state_dependent:
        # state-dependent arenas are only valid for one deployment state;
        # the simulation rebuilds them per round, so there is nothing
        # reusable to share — warm lazily as rounds touch trees
        yield _new_env(spec, warm=False), None
        return
    with cache.environment(env_digest(spec), spec.kernel_backend) as kept:
        if kept.env is None:
            env = _new_env(spec, warm=True)
            if env.cache.arena is None:  # the memory budget deferred the warm
                yield env, None
                return
            kept.keep(env)
        yield kept.env, kept


def _memo(kept: KeptEnv | None, stub_breaks_ties: bool) -> StateMemo | None:
    """The kept environment's memo for these games (None: a private one)."""
    return kept.memo(stub_breaks_ties) if kept is not None else None


def _select_adopter_sets(env: ExperimentEnv, spec: JobSpec) -> dict[str, list[int]]:
    """The spec's adopter-set menu (all sets when the spec names none)."""
    menu = env.adopter_sets()
    if not spec.adopter_sets:
        return menu
    unknown = sorted(set(spec.adopter_sets) - set(menu))
    if unknown:
        raise SpecError(
            f"unknown adopter sets {unknown}; this topology offers "
            f"{sorted(menu)}"
        )
    return {name: menu[name] for name in spec.adopter_sets}


def execute_job(
    job: Job,
    store: JobStore,
    cache: ResultCache,
    cancel: threading.Event,
) -> dict[str, Any]:
    """Run one job to completion and return its result document.

    Raises :class:`~repro.service.errors.JobCancelled` when ``cancel``
    is set (checked at cell boundaries), and lets kernel exceptions
    (deadline, spec problems discovered at run time) propagate — the
    scheduler owns the state transition either way.
    """
    registry = get_registry()
    start = time.perf_counter()
    with use_guard(_job_guard(job.spec)):
        if cancel.is_set():
            raise JobCancelled(job.id)
        with _build_env(job.spec, cache) as (env, kept):
            if cancel.is_set():  # while it waited for the environment
                raise JobCancelled(job.id)
            if job.spec.kind == "sweep":
                result = _execute_sweep(job, env, kept, store, cache, cancel)
            elif job.spec.kind == "attack-matrix":
                result = _execute_attack_matrix(job, env, store, cancel)
            else:
                result = _execute_case_study(job, env, kept)
    registry.counter("service.executor.jobs").inc()
    registry.histogram("service.executor.job_seconds").observe(
        time.perf_counter() - start
    )
    return result


def _progress(
    job: Job, store: JobStore, total: int, cancel: threading.Event
) -> Callable[[object, str], None]:
    """A grid's ``on_cell``: record each finished cell's progress, then
    stop at this cell boundary if the job was cancelled."""
    done = 0

    def on_cell(cell: object, source: str) -> None:
        nonlocal done
        done += 1
        store.record_progress(job.id, done, total, source)
        if cancel.is_set():
            # every finished cell is already in the journal; raising
            # here is the lossless cancellation point
            raise JobCancelled(job.id)

    return on_cell


def _execute_sweep(
    job: Job,
    env: ExperimentEnv,
    kept: KeptEnv | None,
    store: JobStore,
    cache: ResultCache,
    cancel: threading.Event,
) -> dict[str, Any]:
    spec = job.spec
    adopter_sets = _select_adopter_sets(env, spec)
    cells = run_sweep(
        env,
        thetas=spec.thetas,
        adopter_sets=adopter_sets,
        stub_breaks_ties=spec.stub_breaks_ties,
        max_rounds=spec.max_rounds,
        journal=store.sweep_journal_path(job),
        cell_cache=cache.cell_view(cell_scope_digest(spec)),
        on_cell=_progress(job, store, len(adopter_sets) * len(spec.thetas), cancel),
        memo=_memo(kept, spec.stub_breaks_ties),
    )
    return {
        "kind": "sweep",
        "cells": [cell_to_dict(c) for c in cells],
        "grid": {"thetas": list(spec.thetas), "adopter_sets": sorted(adopter_sets)},
        "backend": env.cache.backend_name,
    }


def _execute_attack_matrix(
    job: Job,
    env: ExperimentEnv,
    store: JobStore,
    cancel: threading.Event,
) -> dict[str, Any]:
    """Run the scenario × policy × strategy grid as a service job.

    The matrix journal is digest-keyed like sweep journals, so a
    resubmission (or a daemon restart mid-job) resumes the finished
    cells; cancellation is cooperative at cell boundaries exactly as
    for sweeps.
    """
    spec = job.spec
    scenarios = list(spec.scenarios) or None
    strategies = list(spec.strategies) or None
    policies = list(spec.policies) or None
    from repro.security.scenarios import available_scenarios, available_strategies

    total = (
        len(scenarios or available_scenarios())
        * len(policies or available_policies())
        * len(strategies or available_strategies())
        * len(spec.levels)
    )
    cells = run_attack_matrix(
        env,
        scenarios=scenarios,
        policies=policies,
        strategies=strategies,
        levels=spec.levels,
        samples=spec.attack_samples,
        seed=spec.attack_seed,
        stub_breaks_ties=spec.stub_breaks_ties,
        journal=store.sweep_journal_path(job),
        on_cell=_progress(job, store, total, cancel),
        backend=spec.kernel_backend,
    )
    return {
        "kind": "attack-matrix",
        "cells": [matrix_cell_to_dict(c) for c in cells],
        "grid": {
            "scenarios": sorted({c.scenario for c in cells}),
            "policies": sorted({c.policy for c in cells}),
            "strategies": sorted({c.strategy for c in cells}),
            "levels": list(spec.levels),
        },
        "backend": env.cache.backend_name,
    }


def _execute_case_study(job: Job, env: ExperimentEnv, kept: KeptEnv | None) -> dict[str, Any]:
    # run_case_study plays §5's game, in which stubs break ties
    report = run_case_study(env, theta=job.spec.theta, memo=_memo(kept, stub_breaks_ties=True))
    zs = report.zero_sum
    return {
        "kind": "case-study",
        "backend": env.cache.backend_name,
        "early_adopter_asns": list(report.early_adopter_asns),
        "fraction_secure_ases": report.fraction_secure_ases,
        "outcome": report.result.outcome.value,
        "num_rounds": report.result.num_rounds,
        "new_ases_per_round": list(report.fig3_new_ases),
        "new_isps_per_round": list(report.fig3_new_isps),
        "zero_sum": {
            "fraction_isps_above_threshold": zs.fraction_isps_above_threshold,
            "mean_final_over_start_insecure": zs.mean_final_over_start_insecure,
        },
    }
