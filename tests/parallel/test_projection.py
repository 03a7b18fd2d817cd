"""Parallel flip projection must be decision-identical to serial."""

from __future__ import annotations

import dataclasses
import multiprocessing

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.dynamics import DeploymentSimulation
from repro.core.engine import compute_round_data
from repro.parallel.engine import parallel_project_flips

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel projection shares round state copy-on-write via fork",
)


@needs_fork
class TestParallelProjection:
    def test_simulation_agrees_with_serial(self, medium_env):
        adopters = medium_env.case_study_adopters()
        results = []
        for workers in (1, 2):
            config = SimulationConfig(theta=0.02, max_rounds=6, workers=workers)
            sim = DeploymentSimulation(
                medium_env.graph, adopters, config, medium_env.cache
            )
            results.append(sim.run())
        serial, parallel = results
        assert serial.outcome == parallel.outcome
        assert [r.turned_on for r in serial.rounds] == [
            r.turned_on for r in parallel.rounds
        ]
        assert [r.turned_off for r in serial.rounds] == [
            r.turned_off for r in parallel.rounds
        ]
        np.testing.assert_array_equal(
            serial.final_utilities, parallel.final_utilities
        )

    def test_projection_values_identical(self, medium_env):
        """Two workers each stack one contiguous run of the jobs; the
        flattened result is the serial stack's on every field."""
        cache, graph = medium_env.cache, medium_env.graph
        from repro.core.config import UtilityModel, ProjectionEngine
        from repro.core.state import DeploymentState, StateDeriver

        deriver = StateDeriver(graph, compiled=cache.compiled)
        isps = [int(i) for i in graph.isp_indices]
        adopters = frozenset(graph.index(a) for a in medium_env.case_study_adopters())
        state = DeploymentState.initial(adopters).with_flips(turn_on=isps[20:30])
        rd = compute_round_data(cache, deriver, state, UtilityModel.INCOMING)
        # an odd number of jobs, turn-offs among them: the runs differ in length
        jobs = [(i, i not in state.deployers) for i in isps if i not in adopters][:31]
        assert not all(on for _, on in jobs)
        for engine in ProjectionEngine:
            serial, fanned = (
                parallel_project_flips(
                    cache, deriver, rd, jobs,
                    model=UtilityModel.INCOMING, projection=engine, workers=workers,
                )
                for workers in (1, 2)
            )
            assert [(p.isp, p.turning_on) for p in fanned] == jobs
            assert [dataclasses.astuple(p) for p in serial] == [
                dataclasses.astuple(p) for p in fanned
            ]
            assert [p.utility.hex() for p in serial] == [p.utility.hex() for p in fanned]
            assert [list(p.flips) for p in serial] == [list(p.flips) for p in fanned]

    def test_two_workers_cost_two_partitions(self, medium_env):
        """A round is ``workers`` runs of jobs, not one partition per job."""
        from repro.core.config import UtilityModel, ProjectionEngine
        from repro.core.state import DeploymentState, StateDeriver
        from repro.telemetry.metrics import MetricsRegistry, use_registry

        cache, graph = medium_env.cache, medium_env.graph
        deriver = StateDeriver(graph, compiled=cache.compiled)
        rd = compute_round_data(
            cache, deriver, DeploymentState.initial(()), UtilityModel.OUTGOING
        )
        jobs = [(int(i), True) for i in graph.isp_indices[:40]]
        with use_registry(MetricsRegistry()) as registry:
            parallel_project_flips(
                cache, deriver, rd, jobs,
                model=UtilityModel.OUTGOING, projection=ProjectionEngine.FULL, workers=2,
            )
        assert registry.snapshot()["counters"]["engine.dispatched"] == 2
