"""Jobs on one kept environment: shared state evaluations, same documents.

The executor keeps each environment between jobs together with its
state memos.  These drive the scheduler directly (no HTTP) on a tiny
topology and hold every served document to the one a fresh daemon
serves for the same spec.
"""

from __future__ import annotations

import json
import time

import pytest

from repro import telemetry
from repro.experiments.setup import build_environment
from repro.experiments.sweeps import cell_from_dict, run_sweep
from repro.service.cache import DEFAULT_BUDGET_BYTES, ResultCache
from repro.service.scheduler import Scheduler
from repro.service.specs import parse_spec
from repro.service.store import JobStore
from repro.telemetry.metrics import set_registry
from repro.telemetry.spans import set_tracer

ENV = {"n": 80, "seed": 7, "x": 0.10}
#: the cold grid of one environment; its θ=0.05 cell plays the §5 game
GRID = {**ENV, "adopter_sets": ["cps+top-5"], "thetas": [0.0, 0.05]}
CASE = {**ENV, "kind": "case-study", "theta": 0.05}


@pytest.fixture()
def live_telemetry():
    registry, _ = telemetry.enable()
    yield registry
    set_registry(None)
    set_tracer(None)


class Daemon:
    """A started scheduler on its own store and result cache."""

    def __init__(self, root, workers: int = 1, budget: int = DEFAULT_BUDGET_BYTES):
        self.store = JobStore(root)
        self.cache = ResultCache(budget)
        self.scheduler = Scheduler(self.store, self.cache, workers=workers)
        self.scheduler.start()

    def submit(self, payload: dict):
        job, created = self.scheduler.submit(parse_spec(payload))
        assert created
        return job

    def document(self, job) -> str:
        """The job's result document once it is done, less its job id."""
        wait_for(job)
        assert job.state == "done", job.error
        doc = self.store.load_result(job)
        doc.pop("id")
        return json.dumps(doc, sort_keys=True)

    def run(self, payload: dict) -> str:
        return self.document(self.submit(payload))

    def stop(self) -> None:
        self.scheduler.stop()


def wait_for(job, timeout: float = 120.0):
    deadline = time.monotonic() + timeout
    while job.state not in ("done", "failed", "cancelled"):
        if time.monotonic() > deadline:
            raise AssertionError(f"job {job.id} stuck in {job.state!r}")
        time.sleep(0.02)
    return job


@pytest.fixture()
def daemons(tmp_path, live_telemetry):
    started: list[Daemon] = []

    def make(**kwargs) -> Daemon:
        daemon = Daemon(tmp_path / f"store-{len(started)}", **kwargs)
        started.append(daemon)
        return daemon

    yield make
    for daemon in started:
        daemon.stop()


def evaluated(registry) -> int:
    return registry.snapshot()["counters"].get("sim.states_evaluated", 0)


class TestSharedEvaluations:
    def test_a_case_study_after_its_sweep_evaluates_no_state(self, daemons, live_telemetry):
        daemon = daemons()
        daemon.run(GRID)
        before = evaluated(live_telemetry)
        served = daemon.run(CASE)
        assert evaluated(live_telemetry) == before
        assert daemon.cache.stats().arena_hits == 1
        assert served == daemons().run(CASE)

    def test_two_workers_serve_the_documents_of_a_serial_run(self, daemons):
        payloads = [GRID, CASE, {**GRID, "thetas": [0.0, 0.05, 0.30]}]
        serial = daemons()
        expected = [serial.run(p) for p in payloads]
        parallel = daemons(workers=2)
        jobs = [parallel.submit(p) for p in payloads]  # posted together
        assert [parallel.document(j) for j in jobs] == expected
        stats = parallel.cache.stats()
        assert (stats.arena_hits, stats.arena_misses) == (2, 1)  # built once

    def test_stubs_ignoring_security_get_their_own_memo(self, daemons):
        daemon = daemons()
        daemon.run(GRID)
        served = json.loads(daemon.run({**GRID, "stub_breaks_ties": False}))
        assert daemon.cache.stats().arena_hits == 1

        env = build_environment(**ENV)
        cold = run_sweep(
            env, thetas=GRID["thetas"],
            adopter_sets={"cps+top-5": env.adopter_sets()["cps+top-5"]},
            stub_breaks_ties=False,
        )
        assert [cell_from_dict(c) for c in served["cells"]] == cold


class TestKeptEnvironmentLifecycle:
    def test_an_evicted_environment_is_rebuilt_with_identical_results(self, daemons):
        daemon = daemons(budget=1)  # room for one entry: each job evicts the last
        first = daemon.run(CASE)
        daemon.run({**CASE, "seed": 8})
        again = daemon.run(CASE)
        stats = daemon.cache.stats()
        assert (stats.arena_hits, stats.arena_misses) == (0, 3)
        assert stats.evictions >= 2
        assert again == first

    def test_a_cancelled_job_leaves_the_environment_usable(self, daemons):
        daemon = daemons()
        # a wide grid so there is always a next cell to cancel before
        job = daemon.submit({**ENV, "adopter_sets": [], "thetas": [0.0, 0.05, 0.10, 0.30]})
        deadline = time.monotonic() + 120
        while job.progress_done < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        daemon.scheduler.cancel(job.id)
        assert wait_for(job).state == "cancelled"

        served = [daemon.run(CASE), daemon.run(GRID)]
        assert daemon.cache.stats().arena_hits == 2
        fresh = daemons()
        assert served == [fresh.run(CASE), fresh.run(GRID)]
