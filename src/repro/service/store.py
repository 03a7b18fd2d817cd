"""Journal-backed job store: the daemon's durable state.

Layout under one *store directory* (``--store``)::

    store/
      jobs.jsonl            # lifecycle journal (repro.run-journal/1)
      journals/<digest>.jsonl   # per-spec sweep journals (cell resume)
      results/<job-id>.json # completed results (atomic writes)
      endpoint.json         # actual bound host/port (written by daemon)
      metrics.json          # final snapshot flushed at shutdown

Every lifecycle transition (submitted, running, done, failed,
cancelled) is one fsynced append to ``jobs.jsonl``; on startup the
store replays it and *recovers*: jobs that were ``running`` or
``queued`` when the process died come back as ``queued``, and because
each job's sweep journal is keyed by its **spec digest** (not its job
id), the re-run replays every cell the dead run finished.  SIGKILL the
daemon mid-sweep, restart it, and the job completes with only the
interrupted cell recomputed — the same contract ``--resume`` gives the
CLI, lifted to the service.

Progress events are deliberately *not* journaled: the sweep journal
already holds the durable form of progress (the cells themselves), so
``jobs.jsonl`` stays small and the event ring stays an in-memory,
per-process view.
"""

from __future__ import annotations

import logging
import threading
import time
from pathlib import Path
from typing import Any

from repro.routing import backends as kernel_backends
from repro.runtime.atomic import atomic_write_json, load_checked_json
from repro.runtime.journal import RunJournal
from repro.service.errors import JobNotFoundError, JobStateError
from repro.service.specs import JobSpec, parse_spec, spec_digest, spec_to_dict
from repro.telemetry.metrics import get_registry

log = logging.getLogger(__name__)

#: journal ``kind`` of ``jobs.jsonl``
JOBS_JOURNAL_KIND = "service-jobs"

#: ``format`` marker of per-job result files
RESULT_FORMAT = "repro.service-result/1"

#: states a job moves through (terminal: done/failed/cancelled)
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
ACTIVE_STATES = frozenset({"queued", "running"})
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: per-job event ring size (events older than this are dropped from the
#: stream; their effects survive in the job record itself)
MAX_EVENTS = 1000


def _journaled_spec(payload: dict[str, Any]) -> tuple[JobSpec, str | None]:
    """Parse a journaled spec: ``(spec, retired backend name or None)``.

    Submit-time validation rejects unknown ``kernel_backend`` names, but
    a journal outlives the build that wrote it.  The backend is an
    execution detail outside the spec digest (results are bit-identical),
    so a name this build no longer registers must not lock the daemon
    out of its own store: the job keeps its identity and runs on the
    default backend.
    """
    name = payload.get("kernel_backend")
    if name is not None:
        try:
            kernel_backends.get_backend(name)
        except ValueError:
            return parse_spec({**payload, "kernel_backend": None}), name
    return parse_spec(payload), None


class Job:
    """One submitted job: spec + lifecycle + progress + event ring.

    A job replayed from the journal holds its spec in journaled (JSON)
    form until :attr:`spec` is first read: parsing imports the policy
    and scenario registries, which a restarted daemon loads only after
    it answers ``/healthz`` (:meth:`JobStore.parse_specs`).
    """

    def __init__(self, job_id: str, seq: int, spec: JobSpec | dict[str, Any], digest: str):
        self.id = job_id
        self.seq = seq
        self._spec = spec
        self.digest = digest
        self.state = "queued"
        self.error: str | None = None
        self.progress_done = 0
        self.progress_total = 0
        self.coalesced = 0          # extra submissions folded onto this job
        self.events: list[dict[str, Any]] = []
        self._event_seq = 0

    @property
    def spec(self) -> JobSpec:
        if isinstance(self._spec, dict):
            self._spec, retired = _journaled_spec(self._spec)
            if retired is not None:
                self.add_event(
                    "recovered",
                    note=f"kernel backend {retired!r} is no longer "
                    "registered; using the default backend",
                )
        return self._spec

    def add_event(self, kind: str, **fields: Any) -> None:
        self._event_seq += 1
        event = {"seq": self._event_seq, "event": kind, "ts": time.time(), **fields}
        self.events.append(event)
        if len(self.events) > MAX_EVENTS:
            del self.events[: len(self.events) - MAX_EVENTS]

    def events_since(self, since: int) -> list[dict[str, Any]]:
        """Events with seq > ``since`` (the /events polling contract)."""
        return [e for e in self.events if e["seq"] > since]

    def to_dict(self) -> dict[str, Any]:
        """The JSON form ``GET /v1/jobs/{id}`` returns (an unparsed spec
        is shown as journaled, so a GET never loads the registries)."""
        spec = self._spec if isinstance(self._spec, dict) else spec_to_dict(self._spec)
        return {
            "id": self.id,
            "state": self.state,
            "digest": self.digest,
            "kind": spec["kind"],
            "priority": spec["priority"],
            "spec": spec,
            "error": self.error,
            "progress": {"done": self.progress_done, "total": self.progress_total},
            "coalesced": self.coalesced,
        }


class JobStore:
    """Durable job table over one store directory (thread-safe)."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "journals").mkdir(exist_ok=True)
        (self.root / "results").mkdir(exist_ok=True)
        self._lock = threading.RLock()
        self._jobs: dict[str, Job] = {}
        self._by_digest: dict[str, str] = {}   # digest -> active job id
        self._next_seq = 1
        self._journal = RunJournal(self.root / "jobs.jsonl")
        self._replay(self._journal.ensure_header(JOBS_JOURNAL_KIND, {}))

    # -- startup recovery ---------------------------------------------

    def _replay(self, records: list[dict]) -> None:
        recovered = 0
        for record in records:
            kind = record.get("type")
            if kind == "submitted":
                job = Job(record["id"], int(record["seq"]), record["spec"], record["digest"])
                self._jobs[job.id] = job
                self._next_seq = max(self._next_seq, job.seq + 1)
            elif kind == "state":
                job = self._jobs.get(record.get("id", ""))
                if job is not None:
                    job.state = record["state"]
                    job.error = record.get("error")
        for job in self._jobs.values():
            if job.state == "running":
                # the previous process died mid-job; its finished cells
                # are in the spec-digest journal, so re-running resumes
                job.state = "queued"
                job.add_event("recovered", note="daemon restarted mid-job")
                recovered += 1
            if job.state in ACTIVE_STATES:
                self._by_digest[job.digest] = job.id
        if recovered:
            log.warning("recovered %d in-flight job(s) from a previous daemon run", recovered)
            get_registry().counter("service.store.recovered_jobs").inc(recovered)

    def parse_specs(self) -> None:
        """Parse every replayed job's journaled spec (see :class:`Job`)."""
        for job in self.jobs():
            job.spec  # the first read parses

    # -- submission ----------------------------------------------------

    def submit(self, spec: JobSpec) -> tuple[Job, bool]:
        """Register a job; returns ``(job, created)``.

        An *active* (queued/running) job with the same spec digest
        absorbs the submission instead — both submitters poll the same
        job id and the work runs once.  Terminal jobs do not coalesce:
        resubmitting a finished spec makes a fresh job (which will still
        resume the finished journal and complete near-instantly).
        """
        digest = spec_digest(spec)
        with self._lock:
            existing_id = self._by_digest.get(digest)
            if existing_id is not None:
                existing = self._jobs[existing_id]
                existing.coalesced += 1
                existing.add_event("coalesced", submissions=existing.coalesced)
                get_registry().counter("service.store.coalesced").inc()
                return existing, False
            seq = self._next_seq
            self._next_seq += 1
            job = Job(f"j{seq:06d}-{digest[:8]}", seq, spec, digest)
            self._journal.append({
                "type": "submitted", "id": job.id, "seq": seq,
                "digest": digest, "spec": spec_to_dict(spec),
            })
            self._jobs[job.id] = job
            self._by_digest[digest] = job.id
            job.add_event("submitted", state="queued")
            get_registry().counter("service.store.submitted").inc()
            return job, True

    # -- lookups -------------------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise JobNotFoundError(job_id)
            return job

    def jobs(self) -> list[Job]:
        """All jobs, oldest first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.seq)

    def resumable(self) -> list[Job]:
        """Queued jobs in scheduling order (priority desc, then FIFO)."""
        with self._lock:
            queued = [j for j in self._jobs.values() if j.state == "queued"]
            return sorted(queued, key=lambda j: (-j.spec.priority, j.seq))

    # -- lifecycle -----------------------------------------------------

    def set_state(self, job_id: str, state: str, error: str | None = None) -> Job:
        """Record one lifecycle transition (journaled, fsynced)."""
        if state not in JOB_STATES:
            raise JobStateError(f"unknown job state {state!r}")
        with self._lock:
            job = self.get(job_id)
            if job.state in TERMINAL_STATES:
                raise JobStateError(
                    f"job {job_id} is already {job.state}; cannot move to {state}"
                )
            self._journal.append({
                "type": "state", "id": job_id, "state": state, "error": error,
            })
            job.state = state
            job.error = error
            job.add_event("state", state=state, error=error)
            if state in TERMINAL_STATES:
                self._by_digest.pop(job.digest, None)
            get_registry().counter(f"service.jobs.{state}").inc()
            return job

    def record_progress(self, job_id: str, done: int, total: int, source: str) -> None:
        """Note cell-level progress (in-memory; cells are the durable form)."""
        with self._lock:
            job = self.get(job_id)
            job.progress_done = done
            job.progress_total = total
            job.add_event("progress", done=done, total=total, source=source)

    # -- artifacts -----------------------------------------------------

    def sweep_journal_path(self, job: Job) -> Path:
        """The per-spec sweep journal (digest-keyed, so restarts resume)."""
        return self.root / "journals" / f"{job.digest}.jsonl"

    def result_path(self, job: Job) -> Path:
        return self.root / "results" / f"{job.id}.json"

    def write_result(self, job: Job, payload: dict[str, Any]) -> Path:
        """Atomically persist a finished job's result document."""
        path = self.result_path(job)
        atomic_write_json(path, {"format": RESULT_FORMAT, "id": job.id, **payload})
        return path

    def load_result(self, job: Job) -> dict[str, Any]:
        """A finished job's result document (409 via JobStateError else)."""
        if job.state != "done":
            raise JobStateError(f"job {job.id} is {job.state}, not done; no result yet")
        return load_checked_json(self.result_path(job), expected_format=RESULT_FORMAT)
