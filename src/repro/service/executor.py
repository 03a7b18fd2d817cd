"""Job execution: the one service module allowed to call kernels.

Lint rule RPR012 enforces the boundary: HTTP handlers and the scheduler
marshal jobs, and only this module touches ``build_environment`` /
``run_sweep`` / ``run_case_study``.  Everything here runs on a
scheduler worker thread under the job's own
:class:`~repro.runtime.guard.RuntimeGuard` (guards are thread-local, so
two jobs' deadlines never interfere).

Cross-request sharing happens at two levels, both through the
:class:`~repro.service.cache.ResultCache`:

- the warmed :class:`~repro.routing.arena.RoutingArena` for an
  environment digest is installed into the job's fresh
  :class:`~repro.routing.cache.RoutingCache` instead of being rebuilt
  (state-independent policies only — arenas are read-only after build,
  which is what makes handing one to concurrent jobs safe);
- finished sweep cells are consulted before each computation via a
  scope-bound :class:`~repro.service.cache.CellView`, and published
  after, so overlapping grids pay for their intersection once.

Cancellation and graceful suspend are cooperative: the progress
callback raises :class:`~repro.service.errors.JobCancelled` at the next
cell boundary, after every finished cell is journaled — so a suspended
job resumes exactly where it stopped when the daemon restarts.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.experiments.attack_matrix import (
    AttackMatrixCell,
    run_attack_matrix,
)
from repro.experiments.attack_matrix import cell_to_dict as matrix_cell_to_dict
from repro.experiments.case_study import run_case_study
from repro.experiments.setup import ExperimentEnv, build_environment
from repro.experiments.sweeps import SweepCell, cell_to_dict, run_sweep
from repro.routing.arena import RoutingArena
from repro.runtime.guard import (
    Deadline,
    MemoryBudget,
    RuntimeGuard,
    current_guard,
    use_guard,
)
from repro.service.cache import ResultCache
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


def _build_env(spec: JobSpec, cache: ResultCache) -> ExperimentEnv:
    """Build the job's environment, sharing warmed arenas across jobs.

    The environment itself (graph, traffic, routing cache) is rebuilt
    per job — it is cheap and mutating it per-job keeps jobs isolated —
    but the arena (the expensive part: every routing tree, pooled) is
    fetched from the result cache when an earlier job on the same
    environment digest already built it.
    """
    env = build_environment(
        n=spec.n, seed=spec.seed, x=spec.x, augmented=spec.augmented,
        warm=False, policy=spec.policy, backend=spec.kernel_backend,
    )
    if env.cache.policy.state_dependent:
        # state-dependent arenas are only valid for one deployment
        # state; the simulation rebuilds them per round, so there is
        # nothing reusable to share — warm lazily as rounds touch trees
        return env
    key = env_digest(spec)
    shared = cache.get_arena(key)
    if shared is not None:
        env.cache.install_arena(shared)
        return env
    guard = current_guard()
    estimate = RoutingArena.estimate_bytes(
        len(env.cache.destinations), env.graph.n, backend=env.cache.backend_name
    )
    if not guard.fits_memory(estimate):
        guard.degrade(
            "lazy_warm",
            f"eager warm needs ~{estimate} bytes for the pooled arena, over "
            "the job's memory budget; deferring to lazy per-destination builds",
        )
        return env
    cache.put_arena(key, env.cache.ensure_arena())
    return env


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
        env = _build_env(job.spec, cache)
        if job.spec.kind == "sweep":
            result = _execute_sweep(job, env, store, cache, cancel)
        elif job.spec.kind == "attack-matrix":
            result = _execute_attack_matrix(job, env, store, cancel)
        else:
            result = _execute_case_study(job, env)
    registry.counter("service.executor.jobs").inc()
    registry.histogram("service.executor.job_seconds").observe(
        time.perf_counter() - start
    )
    return result


def _execute_sweep(
    job: Job,
    env: ExperimentEnv,
    store: JobStore,
    cache: ResultCache,
    cancel: threading.Event,
) -> dict[str, Any]:
    spec = job.spec
    adopter_sets = _select_adopter_sets(env, spec)
    total = len(adopter_sets) * len(spec.thetas)
    done = {"count": 0}

    def on_cell(cell: SweepCell, source: str) -> None:
        done["count"] += 1
        store.record_progress(job.id, done["count"], total, source)
        if cancel.is_set():
            # every finished cell is already in the journal; raising
            # here is the lossless cancellation point
            raise JobCancelled(job.id)

    cells = run_sweep(
        env,
        thetas=spec.thetas,
        adopter_sets=adopter_sets,
        stub_breaks_ties=spec.stub_breaks_ties,
        max_rounds=spec.max_rounds,
        journal=store.sweep_journal_path(job),
        cell_cache=cache.cell_view(cell_scope_digest(spec)),
        on_cell=on_cell,
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
    from repro.routing.policy import available_policies
    from repro.security.scenarios import available_scenarios, available_strategies

    total = (
        len(scenarios or available_scenarios())
        * len(policies or available_policies())
        * len(strategies or available_strategies())
        * len(spec.levels)
    )
    done = {"count": 0}

    def on_cell(cell: AttackMatrixCell, source: str) -> None:
        done["count"] += 1
        store.record_progress(job.id, done["count"], total, source)
        if cancel.is_set():
            raise JobCancelled(job.id)

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
        on_cell=on_cell,
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


def _execute_case_study(job: Job, env: ExperimentEnv) -> dict[str, Any]:
    report = run_case_study(env, theta=job.spec.theta)
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
