"""JobStore: journaled lifecycle, coalescing, restart recovery."""

from __future__ import annotations

import time

import pytest

from repro.service.cache import ResultCache
from repro.service.errors import JobNotFoundError, JobStateError, SpecError
from repro.service.scheduler import Scheduler
from repro.service.specs import parse_spec, spec_digest, spec_to_dict
from repro.service.store import JOBS_JOURNAL_KIND, JobStore
from repro.runtime.journal import RunJournal


def spec(**overrides):
    return parse_spec({"n": 80, "thetas": [0.0, 0.05], **overrides})


class TestSubmission:
    def test_submit_creates_a_journaled_job(self, tmp_path):
        store = JobStore(tmp_path)
        job, created = store.submit(spec())
        assert created
        assert job.id == f"j{job.seq:06d}-{job.digest[:8]}"
        assert job.state == "queued"
        journal = RunJournal(tmp_path / "jobs.jsonl")
        assert journal.header()["kind"] == JOBS_JOURNAL_KIND
        records = journal.records()
        assert records[0]["type"] == "submitted"
        assert records[0]["id"] == job.id

    def test_identical_specs_coalesce_while_active(self, tmp_path):
        store = JobStore(tmp_path)
        first, created1 = store.submit(spec())
        second, created2 = store.submit(spec(priority=5))  # same work identity
        assert created1 and not created2
        assert second is first
        assert first.coalesced == 1

    def test_terminal_jobs_do_not_coalesce(self, tmp_path):
        store = JobStore(tmp_path)
        first, _ = store.submit(spec())
        store.set_state(first.id, "running")
        store.set_state(first.id, "done")
        second, created = store.submit(spec())
        assert created and second.id != first.id
        assert second.digest == first.digest  # same sweep journal though

    def test_distinct_specs_get_distinct_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        a, _ = store.submit(spec())
        b, _ = store.submit(spec(thetas=[0.0, 0.30]))
        assert a.id != b.id


class TestLifecycle:
    def test_unknown_job_raises(self, tmp_path):
        with pytest.raises(JobNotFoundError):
            JobStore(tmp_path).get("j000099-deadbeef")

    def test_terminal_states_are_final(self, tmp_path):
        store = JobStore(tmp_path)
        job, _ = store.submit(spec())
        store.set_state(job.id, "cancelled")
        with pytest.raises(JobStateError):
            store.set_state(job.id, "running")

    def test_result_roundtrip_and_gating(self, tmp_path):
        store = JobStore(tmp_path)
        job, _ = store.submit(spec())
        with pytest.raises(JobStateError):
            store.load_result(job)  # not done yet -> 409 at the HTTP layer
        store.set_state(job.id, "running")
        store.write_result(job, {"kind": "sweep", "cells": []})
        store.set_state(job.id, "done")
        assert store.load_result(job)["id"] == job.id

    def test_progress_events_stream_incrementally(self, tmp_path):
        store = JobStore(tmp_path)
        job, _ = store.submit(spec())
        store.record_progress(job.id, 1, 4, "computed")
        store.record_progress(job.id, 2, 4, "cache")
        assert (job.progress_done, job.progress_total) == (2, 4)
        seqs = [e["seq"] for e in job.events]
        assert seqs == sorted(seqs)
        tail = job.events_since(seqs[-2])
        assert len(tail) == 1 and tail[0]["source"] == "cache"


class TestRestartRecovery:
    def test_restart_requeues_interrupted_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        running, _ = store.submit(spec())
        store.set_state(running.id, "running")
        queued, _ = store.submit(spec(thetas=[0.0, 0.30]))
        finished, _ = store.submit(spec(thetas=[0.05]))
        store.set_state(finished.id, "running")
        store.set_state(finished.id, "done")

        reborn = JobStore(tmp_path)  # simulates the daemon restarting
        assert reborn.get(running.id).state == "queued"  # recovered
        assert reborn.get(queued.id).state == "queued"
        assert reborn.get(finished.id).state == "done"
        assert any(e["event"] == "recovered" for e in reborn.get(running.id).events)
        resumable = [j.id for j in reborn.resumable()]
        assert set(resumable) == {running.id, queued.id}

    def test_recovered_job_keeps_its_spec_and_digest(self, tmp_path):
        store = JobStore(tmp_path)
        job, _ = store.submit(spec(priority=7))
        reborn = JobStore(tmp_path).get(job.id)
        assert reborn.spec == job.spec
        assert reborn.digest == job.digest
        # the sweep journal is digest-keyed, so the path survives too
        assert JobStore(tmp_path).sweep_journal_path(reborn).name == f"{job.digest}.jsonl"

    def test_recovery_coalesces_resubmissions(self, tmp_path):
        store = JobStore(tmp_path)
        job, _ = store.submit(spec())
        store.set_state(job.id, "running")
        reborn = JobStore(tmp_path)
        again, created = reborn.submit(spec())
        assert not created and again.id == job.id

    @pytest.mark.parametrize("retired", ["numba", "python"])
    def test_retired_backend_name_replays_on_the_default_backend(self, tmp_path, retired):
        """A store written while ``retired`` was a registered backend
        must still open: the name is an execution detail, not job
        identity."""
        journal = RunJournal(tmp_path / "jobs.jsonl")
        journal.ensure_header(JOBS_JOURNAL_KIND, {})
        ids = []
        for seq, thetas in ((1, [0.0]), (2, [0.05])):
            accepted = spec(thetas=thetas, adopter_sets=["top-5"])
            digest = spec_digest(accepted)
            ids.append(f"j{seq:06d}-{digest[:8]}")
            journal.append({
                "type": "submitted", "id": ids[-1], "seq": seq, "digest": digest,
                "spec": {**spec_to_dict(accepted), "kernel_backend": retired},
            })
        for state in ("running", "done"):
            journal.append(
                {"type": "state", "id": ids[0], "state": state, "error": None}
            )
        with pytest.raises(SpecError, match=f"unknown kernel backend '{retired}'"):
            spec(kernel_backend=retired)  # new submissions stay strict

        store = JobStore(tmp_path)
        done, queued = store.jobs()
        assert [done.id, queued.id] == ids
        assert (done.state, queued.state) == ("done", "queued")
        for job in (done, queued):
            assert job.spec.kernel_backend is None  # i.e. the default backend
            assert job.digest == spec_digest(job.spec)  # identity untouched
            assert any(
                e["event"] == "recovered" and f"'{retired}'" in e["note"]
                for e in job.events
            )

        scheduler = Scheduler(store, ResultCache(), workers=1)
        scheduler.start()
        try:
            deadline = time.monotonic() + 120.0
            while queued.state in ("queued", "running"):
                assert time.monotonic() < deadline, "recovered job never finished"
                time.sleep(0.05)
        finally:
            scheduler.stop()
        assert queued.state == "done", queued.error
        assert store.load_result(queued)["id"] == queued.id

    def test_priority_orders_resumable_queue(self, tmp_path):
        store = JobStore(tmp_path)
        low, _ = store.submit(spec())
        high, _ = store.submit(spec(thetas=[0.0, 0.30], priority=9))
        assert [j.id for j in store.resumable()] == [high.id, low.id]
