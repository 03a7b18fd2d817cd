"""A ``workers > 1`` game plays in one process, identical to serial."""

from __future__ import annotations

import dataclasses
import multiprocessing.process
import struct

import numpy as np
import pytest

from repro.core.config import ProjectionEngine, SimulationConfig
from repro.core.dynamics import DeploymentSimulation
from repro.core.engine import compute_round_data
from repro.experiments.setup import build_environment
from repro.parallel.engine import parallel_project_flips


def _fields(proj) -> tuple:
    """A projection's fields, ``utility`` as bytes and ``flips`` in order."""
    return (
        proj.isp, proj.turning_on, struct.pack("<d", proj.utility),
        list(proj.flips.items()), proj.dests_recomputed, proj.dests_delta,
    )


def _projections(result) -> list[list[tuple]]:
    return [
        [(isp, _fields(proj)) for isp, proj in r.projections.items()]
        for r in result.rounds
    ]


@pytest.fixture(scope="module", params=["security_3rd", "security_2nd"])
def policy_env(request):
    """``security_2nd`` rebuilds its structures per projected state."""
    return build_environment(n=150, seed=11, x=0.10, policy=request.param)


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
        """``workers`` is ignored: both counts return the serial stack
        on every field."""
        cache, graph = medium_env.cache, medium_env.graph
        from repro.core.config import UtilityModel
        from repro.core.state import DeploymentState, StateDeriver

        deriver = StateDeriver(graph, compiled=cache.compiled)
        isps = [int(i) for i in graph.isp_indices]
        adopters = frozenset(graph.index(a) for a in medium_env.case_study_adopters())
        state = DeploymentState.initial(adopters).with_flips(turn_on=isps[20:30])
        rd = compute_round_data(cache, deriver, state, UtilityModel.INCOMING)
        # an odd number of jobs, turn-offs among them
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

    @pytest.mark.parametrize("engine", list(ProjectionEngine), ids=lambda e: e.name)
    def test_two_workers_play_in_one_process(self, policy_env, engine, monkeypatch):
        """A ``workers=2`` game starts no process, and every projection
        and the final utilities are the ``workers=1`` game's, byte for
        byte."""
        def refuse(self):
            raise AssertionError(f"a game started a process ({self.name})")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        results = [
            DeploymentSimulation(
                policy_env.graph, policy_env.case_study_adopters(),
                SimulationConfig(
                    theta=0.02, max_rounds=6, projection=engine,
                    policy=policy_env.cache.policy_name, workers=workers,
                ),
                policy_env.cache,
            ).run()
            for workers in (1, 2)
        ]
        serial, two = results
        assert serial.num_rounds >= 2
        assert _projections(two) == _projections(serial)
        assert two.final_utilities.tobytes() == serial.final_utilities.tobytes()
