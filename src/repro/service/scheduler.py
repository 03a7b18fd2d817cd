"""Fair job scheduler: priority + FIFO over worker threads.

Jobs queue as ``(-priority, submission seq)`` — higher priority first,
strict submission order within a priority, so no stream of urgent jobs
can reorder two equal-priority submissions (fairness is FIFO fairness,
the same contract the paper's cluster scheduler gave its sweep shards).

Execution happens on plain worker threads, and a job's heavy lifting
(tree builds, projections) runs in the thread that took it: no kernel
forks worker processes.  Guards are thread-local, so each job's
deadline and memory budget bind only to the thread running it.

Stopping distinguishes two intents:

- :meth:`cancel` (user asked): the job's cancel event trips the
  executor's next cell-boundary check and the job lands ``cancelled``;
- :meth:`stop` (daemon exiting): the same mechanism fires for every
  *running* job, but the catch re-queues instead of cancelling — the
  job's journal keeps its finished cells and a restarted daemon picks
  it up automatically (the store recovers queued jobs on replay).
"""

from __future__ import annotations

import heapq
import importlib
import logging
import threading

from repro.runtime.errors import DeadlineExceeded, MemoryBudgetExceeded
from repro.service.cache import ResultCache
from repro.service.errors import JobCancelled, JobStateError, SpecError
from repro.service.specs import JobSpec
from repro.service.store import TERMINAL_STATES, Job, JobStore
from repro.telemetry.metrics import get_registry

log = logging.getLogger(__name__)

#: how long an idle worker sleeps between queue checks; also bounds how
#: fast stop() is noticed by idle workers
_IDLE_WAIT_SECONDS = 0.2

#: join grace per worker thread at stop() — workers re-queue at the
#: next cell boundary, so this only needs to cover one cell
DEFAULT_STOP_TIMEOUT = 30.0


class Scheduler:
    """Runs store jobs on ``workers`` threads in fair priority order."""

    def __init__(self, store: JobStore, cache: ResultCache, workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.store = store
        self.cache = cache
        self.workers = workers
        self._cond = threading.Condition()
        self._heap: list[tuple[int, int, str]] = []
        self._cancel: dict[str, threading.Event] = {}
        self._stopping = threading.Event()
        self._threads: list[threading.Thread] = []

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Load the executor, re-queue recovered jobs, spawn workers.

        The executor — and with it the whole simulation stack — is
        imported here, on the calling thread, before any worker exists
        (a worker's own import of it is then a lookup), so no two
        threads ever import the stack for the first time at once.
        """
        importlib.import_module("repro.service.executor")
        for job in self.store.resumable():
            self._enqueue(job)
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"sbgp-job-worker-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = DEFAULT_STOP_TIMEOUT) -> None:
        """Graceful shutdown: suspend running jobs at their next cell.

        Running jobs re-queue (their journals keep every finished
        cell); worker threads are then joined with a bounded grace.
        """
        self._stopping.set()
        for job in self.store.jobs():
            if job.state == "running":
                self._cancel_event(job.id).set()
        with self._cond:
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)
        leaked = [t.name for t in self._threads if t.is_alive()]
        if leaked:
            log.warning("worker thread(s) still draining at stop timeout: %s", leaked)
        self._threads.clear()

    # -- API used by the HTTP layer -----------------------------------

    def submit(self, spec: JobSpec) -> tuple[Job, bool]:
        """Store + enqueue a job; coalesced submissions return the
        already-active job and enqueue nothing."""
        job, created = self.store.submit(spec)
        if created:
            self._enqueue(job)
        return job, created

    def cancel(self, job_id: str) -> Job:
        """Request cancellation (effective at the job's next cell)."""
        job = self.store.get(job_id)
        if job.state in TERMINAL_STATES:
            raise JobStateError(f"job {job_id} is already {job.state}")
        self._cancel_event(job_id).set()
        if job.state == "queued":
            # never started: settle it immediately (the worker skips
            # non-queued entries when it pops them)
            return self.store.set_state(job_id, "cancelled")
        return job

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._heap)

    # -- internals -----------------------------------------------------

    def _cancel_event(self, job_id: str) -> threading.Event:
        with self._cond:
            event = self._cancel.get(job_id)
            if event is None:
                event = self._cancel[job_id] = threading.Event()
            return event

    def _enqueue(self, job: Job) -> None:
        with self._cond:
            heapq.heappush(self._heap, (-job.spec.priority, job.seq, job.id))
            get_registry().gauge("service.scheduler.queue_depth").set(len(self._heap))
            self._cond.notify()

    def _pop_next(self) -> str | None:
        with self._cond:
            if not self._heap and not self._stopping.is_set():
                self._cond.wait(timeout=_IDLE_WAIT_SECONDS)
            if self._stopping.is_set() or not self._heap:
                return None
            _, _, job_id = heapq.heappop(self._heap)
            get_registry().gauge("service.scheduler.queue_depth").set(len(self._heap))
            return job_id

    def _worker_loop(self) -> None:
        while not self._stopping.is_set():
            job_id = self._pop_next()
            if job_id is None:
                continue
            job = self.store.get(job_id)
            if job.state != "queued":
                continue  # cancelled (or otherwise settled) while queued
            self._run_one(job)

    def _run_one(self, job: Job) -> None:
        from repro.service.executor import execute_job  # loaded by start()

        cancel = self._cancel_event(job.id)
        self.store.set_state(job.id, "running")
        if self._stopping.is_set():
            # closes the race with stop()'s scan over running jobs: a
            # job that slipped into "running" mid-shutdown still stops
            # at its first cell boundary
            cancel.set()
        try:
            result = execute_job(job, self.store, self.cache, cancel)
        except JobCancelled:
            if self._stopping.is_set():
                # daemon shutdown, not a user cancel: park the job back
                # in the queue so a restarted daemon resumes its journal
                self.store.set_state(job.id, "queued")
                log.info("job %s suspended for shutdown (resumes on restart)", job.id)
            else:
                self.store.set_state(job.id, "cancelled")
        except (DeadlineExceeded, MemoryBudgetExceeded, SpecError) as exc:
            self.store.set_state(job.id, "failed", error=str(exc))
        except Exception as exc:
            log.exception("job %s failed", job.id)
            get_registry().counter("service.scheduler.crashed_jobs").inc()
            self.store.set_state(job.id, "failed", error=f"{type(exc).__name__}: {exc}")
        else:
            self.store.write_result(job, result)
            self.store.set_state(job.id, "done")
