"""Scheduler: end-to-end job runs, coalescing, cancel, suspend-resume.

These drive the scheduler directly (no HTTP) on tiny topologies.  The
acceptance-grade assertions live here: overlapping grids hit the shared
cell cache, results are bit-identical to a cold ``run_sweep``, and a
graceful stop mid-job re-queues it with its finished cells journaled.
"""

from __future__ import annotations

import time

import pytest

from repro import telemetry
from repro.experiments.setup import build_environment
from repro.experiments.sweeps import cell_from_dict, run_sweep
from repro.service.cache import ResultCache
from repro.service.errors import JobStateError
from repro.service.scheduler import Scheduler
from repro.service.specs import parse_spec
from repro.service.store import JobStore
from repro.telemetry.metrics import set_registry
from repro.telemetry.spans import set_tracer

# one tiny environment for every job in this module
ENV = {"n": 80, "seed": 7, "x": 0.10}


def spec(**overrides):
    payload = {**ENV, "thetas": [0.0, 0.05], "adopter_sets": ["none", "top-5"]}
    payload.update(overrides)
    return parse_spec(payload)


def wait_for(job, states=("done", "failed", "cancelled"), timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if job.state in states:
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job.id} stuck in {job.state!r} (wanted {states})")


@pytest.fixture()
def live_telemetry():
    registry, _ = telemetry.enable()
    yield registry
    set_registry(None)
    set_tracer(None)


@pytest.fixture()
def scheduler(tmp_path, live_telemetry):
    store = JobStore(tmp_path / "store")
    cache = ResultCache()
    sched = Scheduler(store, cache, workers=1)
    sched.start()
    yield sched
    sched.stop()


class TestExecution:
    def test_sweep_job_runs_to_done_with_progress(self, scheduler):
        job, created = scheduler.submit(spec())
        assert created
        wait_for(job)
        assert job.state == "done", job.error
        assert (job.progress_done, job.progress_total) == (4, 4)
        result = scheduler.store.load_result(job)
        assert len(result["cells"]) == 4

    def test_results_bit_identical_to_cold_sweep(self, scheduler):
        job, _ = scheduler.submit(spec())
        wait_for(job)
        assert job.state == "done", job.error
        served = [cell_from_dict(c) for c in scheduler.store.load_result(job)["cells"]]

        env = build_environment(**ENV, warm=True)
        sets = env.adopter_sets()
        cold = run_sweep(
            env, thetas=(0.0, 0.05),
            adopter_sets={"none": sets["none"], "top-5": sets["top-5"]},
        )
        key = lambda c: (c.adopters, c.theta)
        assert sorted(served, key=key) == sorted(cold, key=key)

    def test_case_study_job(self, scheduler):
        job, _ = scheduler.submit(parse_spec({**ENV, "kind": "case-study"}))
        wait_for(job)
        assert job.state == "done", job.error
        result = scheduler.store.load_result(job)
        assert result["kind"] == "case-study"
        assert 0.0 <= result["fraction_secure_ases"] <= 1.0

    def test_unknown_adopter_set_fails_cleanly(self, scheduler):
        job, _ = scheduler.submit(spec(adopter_sets=["not-a-set"]))
        wait_for(job)
        assert job.state == "failed"
        assert "not-a-set" in job.error


class TestSharing:
    def test_overlapping_grids_share_cells_and_arena(self, scheduler, live_telemetry):
        first, _ = scheduler.submit(spec(thetas=[0.0, 0.05]))
        wait_for(first)
        assert first.state == "done", first.error

        # a *different* job (superset grid) on the same environment:
        # the 4 overlapping cells and the warmed arena must be reused
        second, created = scheduler.submit(spec(thetas=[0.0, 0.05, 0.30]))
        assert created and second.id != first.id
        wait_for(second)
        assert second.state == "done", second.error

        stats = scheduler.cache.stats()
        assert stats.cell_hits >= 4
        assert stats.arena_hits >= 1
        counters = live_telemetry.snapshot()["counters"]
        assert counters["service.cache.cell_hits"] >= 4
        assert counters["sweep.cells_from_cache"] >= 4
        # the job's progress names where each cell came from, in grid order
        sources = [e["source"] for e in second.events if e["event"] == "progress"]
        assert sources == ["cache", "cache", "computed"] * 2
        assert [e["done"] for e in second.events if e["event"] == "progress"] == [
            1, 2, 3, 4, 5, 6,
        ]

        # shared cells are value-identical to computed ones
        first_cells = {
            (c["adopters"], c["theta"]): c
            for c in scheduler.store.load_result(first)["cells"]
        }
        for cell in scheduler.store.load_result(second)["cells"]:
            if (cell["adopters"], cell["theta"]) in first_cells:
                assert cell == first_cells[(cell["adopters"], cell["theta"])]

    def test_identical_active_specs_coalesce(self, scheduler):
        first, created1 = scheduler.submit(spec())
        second, created2 = scheduler.submit(spec())
        assert created1
        assert not created2 and second is first
        wait_for(first)
        assert first.state == "done"


class TestCancellation:
    def test_cancel_queued_job(self, tmp_path, live_telemetry):
        store = JobStore(tmp_path / "store")
        sched = Scheduler(store, ResultCache(), workers=1)  # never started
        job, _ = sched.submit(spec())
        cancelled = sched.cancel(job.id)
        assert cancelled.state == "cancelled"
        with pytest.raises(JobStateError):
            sched.cancel(job.id)

    def test_cancel_running_job_stops_at_a_cell_boundary(self, scheduler):
        # a wide grid so there is always a next cell to cancel before
        job, _ = scheduler.submit(spec(
            thetas=[0.0, 0.02, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50],
            adopter_sets=[],  # the full 7-set menu: 56 cells
        ))
        deadline = time.monotonic() + 120
        while job.progress_done < 1 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert job.progress_done >= 1, "job never made progress"
        scheduler.cancel(job.id)
        wait_for(job)
        assert job.state == "cancelled"
        assert job.progress_done < job.progress_total  # stopped early


class TestGracefulStop:
    def test_stop_requeues_running_job_with_cells_journaled(self, tmp_path, live_telemetry):
        store = JobStore(tmp_path / "store")
        sched = Scheduler(store, ResultCache(), workers=1)
        sched.start()
        job, _ = sched.submit(spec(
            thetas=[0.0, 0.02, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50],
            adopter_sets=[],
        ))
        deadline = time.monotonic() + 120
        while job.progress_done < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert job.progress_done >= 2
        sched.stop()
        assert job.state == "queued"  # suspended, not cancelled

        # the finished cells are durably journaled under the spec digest
        from repro.runtime.journal import RunJournal

        journal = RunJournal(store.sweep_journal_path(job))
        finished = [r for r in journal.records() if r.get("type") == "cell"]
        assert len(finished) >= 2

        # a fresh scheduler (the restarted daemon) resumes and finishes
        store2 = JobStore(tmp_path / "store")
        assert store2.get(job.id).state == "queued"
        sched2 = Scheduler(store2, ResultCache(), workers=1)
        sched2.start()
        try:
            resumed = wait_for(store2.get(job.id), timeout=240)
            assert resumed.state == "done", resumed.error
            result = store2.load_result(resumed)
            assert len(result["cells"]) == resumed.progress_total
            assert len(result["cells"]) > len(finished)  # finished what was left
            counters = live_telemetry.snapshot()["counters"]
            assert counters["sweep.cells_replayed"] >= 2
        finally:
            sched2.stop()
