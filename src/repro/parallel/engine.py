"""A small crash-tolerant map-reduce engine (the DryadLINQ substitute).

The paper ran its ``O(N^3)`` simulations by *mapping* per-destination
computations over a 200-machine DryadLINQ cluster and *reducing* the
per-destination subtrees into utilities (Appendix C.3); the cluster
framework restarted failed workers and re-executed failed partitions.
This module provides the same decomposition — and the same fault
story — at laptop scale:

- :class:`SerialEngine` runs partitions in-process (default, and often
  fastest below a few thousand ASes);
- :class:`ProcessEngine` fans partitions out to worker processes
  (forked where the platform allows, spawned otherwise) with
  per-partition timeouts, retry with exponential backoff on worker
  death, requeue of failed partitions at finer granularity, and a
  serial in-parent fallback for work that keeps failing — so one
  poisoned item or crashed worker is isolated and reported instead of
  killing the whole map.

Both implement :class:`MapReduceEngine` and are interchangeable; tests
assert result equality, including under injected faults
(:mod:`repro.runtime.faults`).
"""

from __future__ import annotations

import abc
import collections
import dataclasses
import logging
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
import warnings
import weakref
from typing import Callable, Sequence, TypeVar

from repro.parallel.partition import partition
from repro.runtime.errors import EngineShutdownError, ItemFailedError
from repro.runtime.guard import current_guard
from repro.runtime.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.telemetry.metrics import get_registry
from repro.telemetry.worker import finish_capture, merge_worker_snapshot, start_capture

log = logging.getLogger(__name__)

#: Seconds a worker gets to deliver its result after its pipe polls
#: ready.  The pipe signalling readability and then never completing
#: the message means the worker died mid-send; 30s is orders of
#: magnitude above a pipe write, so hitting it is a death, not a race.
_RESULT_GRACE_SECONDS = 30.0

T = TypeVar("T")
R = TypeVar("R")
A = TypeVar("A")

#: Seconds a graceful shutdown waits for in-flight partitions to finish
#: before terminating their workers outright.  In-flight partitions are
#: small (seconds of work) so honest drains complete well inside this.
_SHUTDOWN_DRAIN_GRACE = 30.0

#: Engines with a map currently running, so a process-wide shutdown
#: request (SIGTERM handler, daemon stop) can reach all of them without
#: threading engine references through every call chain.
_active_engines: "weakref.WeakSet[ProcessEngine]" = weakref.WeakSet()


def shutdown_active_engines() -> int:
    """Request a graceful stop of every engine with a live map.

    Called from signal handlers and the simulation service's shutdown
    path.  Each engine stops dispatching, drains (or terminates) its
    in-flight partitions, and raises
    :class:`~repro.runtime.errors.EngineShutdownError` out of its
    ``map`` — so no worker process outlives the daemon.  Returns the
    number of engines signalled.
    """
    engines = list(_active_engines)
    for engine in engines:
        engine.request_shutdown()
    return len(engines)


#: start methods in preference order: fork keeps read-only graph
#: structures shared copy-on-write (the right trade-off for this
#: workload — spawn re-imports and re-pickles every structure per
#: worker), but not every platform has it.
_START_METHOD_PREFERENCE = ("fork", "forkserver", "spawn")


def choose_start_method() -> str | None:
    """Best available multiprocessing start method (None: serial only)."""
    available = multiprocessing.get_all_start_methods()
    if _START_METHOD_PREFERENCE[0] in available:
        return "fork"
    for method in _START_METHOD_PREFERENCE[1:]:
        if method in available:
            warnings.warn(
                f"fork start method unavailable on this platform; "
                f"falling back to {method!r} (workers re-import state, "
                f"mapped functions must be picklable)",
                RuntimeWarning,
                stacklevel=3,
            )
            return method
    warnings.warn(
        "no multiprocessing start method available; "
        "ProcessEngine will run maps serially",
        RuntimeWarning,
        stacklevel=3,
    )
    return None


class MapReduceEngine(abc.ABC):
    """Map a function over items, then fold the results."""

    @abc.abstractmethod
    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item, preserving order."""

    def map_reduce(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        reduce_fn: Callable[[A, R], A],
        initial: A,
    ) -> A:
        """Map then left-fold the mapped results in item order."""
        acc = initial
        for result in self.map(fn, items):
            acc = reduce_fn(acc, result)
        return acc


class SerialEngine(MapReduceEngine):
    """In-process engine; the baseline all backends must agree with."""

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        return [fn(item) for item in items]


@dataclasses.dataclass
class MapStats:
    """Fault accounting for the most recent :meth:`ProcessEngine.map`."""

    dispatched: int = 0        # partition tasks handed to workers
    worker_errors: int = 0     # fn raised inside a worker
    worker_deaths: int = 0     # worker exited abnormally (crash/kill)
    timeouts: int = 0          # partitions reaped at the deadline
    retries: int = 0           # failed partitions requeued
    splits: int = 0            # requeues that split the partition
    serial_fallback_items: int = 0  # items degraded to in-parent runs
    failed_items: int = 0      # items that failed even serially


@dataclasses.dataclass
class ItemFailure:
    """Placed in the result list for a failed item (``on_error="collect"``)."""

    index: int
    item: object
    error: str

    def __bool__(self) -> bool:  # failed slots are falsy for easy filtering
        return False


@dataclasses.dataclass
class _Task:
    """A partition of (original index, item) pairs awaiting dispatch."""

    pairs: list[tuple[int, object]]
    attempts: int = 0
    not_before: float = 0.0
    enqueued_at: float = dataclasses.field(default_factory=time.monotonic)


def _child_main(conn, fn, pairs) -> None:
    """Worker body: map ``fn`` over the partition, ship one message back.

    When the parent's telemetry was enabled (and the fork start method
    carried that state over), the worker records into a fresh registry
    and ships its snapshot back with the results so the parent can
    aggregate per-worker counters and histograms.
    """
    try:
        capture = start_capture()
        out = [(idx, fn(item)) for idx, item in pairs]
        conn.send(("ok", out, finish_capture(capture)))
    except BaseException as exc:  # report, never hang the parent
        try:
            conn.send(("err", f"{type(exc).__name__}: {exc}", None))
        except OSError:  # parent gone / pipe closed: nothing left to report to
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _Worker:
    """One live partition: a child process plus its result pipe."""

    def __init__(self, ctx, fn, task: _Task, timeout: float | None):
        self.task = task
        self.conn, child_conn = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_child_main, args=(child_conn, fn, task.pairs), daemon=True
        )
        self.process.start()
        child_conn.close()  # parent keeps only the read end
        self.deadline = None if timeout is None else time.monotonic() + timeout

    def reap(self) -> tuple[str, object, dict | None]:
        """Read the worker's message.

        Returns ``("ok", pairs, snapshot)``, ``("err", msg, None)`` or
        ``("dead", msg, None)``; ``snapshot`` is the worker's telemetry
        snapshot (None when telemetry is disabled or unavailable).
        """
        try:
            if not self.conn.poll(_RESULT_GRACE_SECONDS):
                self.terminate()
                return (
                    "dead",
                    "worker's pipe signalled a result that never arrived "
                    f"within {_RESULT_GRACE_SECONDS:g}s",
                    None,
                )
            kind, payload, snapshot = self.conn.recv()  # repro-lint: disable=RPR011 -- bounded by the poll() above
        except (EOFError, OSError):
            self.terminate()
            return (
                "dead",
                f"worker exited abnormally (exitcode {self.process.exitcode})",
                None,
            )
        self.process.join(timeout=10)
        if self.process.is_alive():  # sent a result but won't exit
            self.terminate()
        self.conn.close()
        return (kind, payload, snapshot)

    def terminate(self) -> None:
        """Force the worker down (terminate, then kill) and close the pipe."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=1.0)
        try:
            self.conn.close()
        except OSError:
            pass


class ProcessEngine(MapReduceEngine):
    """Crash-tolerant process-pool engine.

    Partitions are dispatched asynchronously to one child process each
    (at most ``workers`` live at a time).  A partition whose worker
    raises, dies, or overruns ``partition_timeout`` is requeued with
    exponential backoff, split in half to isolate the failing item;
    once a task exhausts ``retry.max_attempts`` its items run serially
    in the parent.  An item that fails even there raises
    :class:`~repro.runtime.errors.ItemFailedError` (``on_error="raise"``,
    default) or yields an :class:`ItemFailure` in its result slot
    (``on_error="collect"``).

    Parameters
    ----------
    workers:
        Number of worker processes (default: CPU count).
    partitions_per_worker:
        Oversubscription factor for load balancing.
    retry:
        :class:`~repro.runtime.retry.RetryPolicy` for failed partitions.
    partition_timeout:
        Seconds before a partition's worker is presumed hung and killed
        (None: wait forever).
    on_error:
        ``"raise"`` or ``"collect"`` for items that fail serially.
    start_method:
        Override the multiprocessing start method (default: best
        available; serial fallback with a warning when there is none).
    """

    def __init__(
        self,
        workers: int | None = None,
        partitions_per_worker: int = 4,
        retry: RetryPolicy | None = None,
        partition_timeout: float | None = None,
        on_error: str = "raise",
        start_method: str | None = None,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if on_error not in ("raise", "collect"):
            raise ValueError(f"on_error must be 'raise' or 'collect', got {on_error!r}")
        if start_method is not None:
            available = multiprocessing.get_all_start_methods()
            if start_method not in available:
                raise ValueError(
                    f"start method {start_method!r} unavailable (have {available})"
                )
        self.workers = workers or os.cpu_count() or 1
        self.partitions_per_worker = max(1, partitions_per_worker)
        self.retry = retry or DEFAULT_RETRY_POLICY
        self.partition_timeout = partition_timeout
        self.on_error = on_error
        self.start_method = start_method if start_method is not None else choose_start_method()
        self.last_stats = MapStats()
        self._shutdown = threading.Event()

    def request_shutdown(self) -> None:
        """Ask a running :meth:`map` to stop at its next dispatch cycle.

        Thread- and signal-safe.  The map stops handing out new
        partitions, drains in-flight ones within a bounded grace (then
        terminates stragglers), and raises
        :class:`~repro.runtime.errors.EngineShutdownError`.  A request
        made while no map is running stops the next one immediately.
        """
        self._shutdown.set()

    @property
    def shutdown_requested(self) -> bool:
        """True once :meth:`request_shutdown` has been called."""
        return self._shutdown.is_set()

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        self.last_stats = stats = MapStats()
        if self.workers == 1 or len(items) <= 1 or self.start_method is None:
            return SerialEngine().map(fn, items)
        ctx = multiprocessing.get_context(self.start_method)
        indexed = list(enumerate(items))
        parts = partition(indexed, self.workers * self.partitions_per_worker)
        queue: collections.deque[_Task] = collections.deque(
            _Task(list(p)) for p in parts
        )
        results: list = [None] * len(items)
        live: list[_Worker] = []
        guard = current_guard()
        _active_engines.add(self)
        try:
            while queue or live:
                if self._shutdown.is_set():
                    pending = self._drain_for_shutdown(queue, live)
                    self._publish_stats(stats)
                    raise EngineShutdownError(pending)
                # the finally-terminate below reaps every live worker,
                # so an expired deadline leaves no orphan processes
                guard.check_deadline("parallel map loop")
                self._dispatch(ctx, fn, queue, live, results, stats)
                self._reap(queue, live, results, stats)
        finally:
            _active_engines.discard(self)
            for worker in live:
                worker.terminate()
        self._publish_stats(stats)
        return results

    def _drain_for_shutdown(
        self, queue: "collections.deque[_Task]", live: list[_Worker]
    ) -> int:
        """Drain in-flight partitions, terminate stragglers, count losses.

        In-flight workers get :data:`_SHUTDOWN_DRAIN_GRACE` (capped to
        any deadline budget) to deliver; whatever they deliver is
        discarded, because the interrupted map returns nothing.  Returns the number
        of items left unfinished (queued + in-flight).
        """
        pending = sum(len(t.pairs) for t in queue)
        pending += sum(len(w.task.pairs) for w in live)
        log.warning(
            "shutdown requested: draining %d in-flight partition(s), "
            "abandoning %d queued task(s)",
            len(live), len(queue),
        )
        get_registry().counter("engine.shutdowns").inc()
        grace = current_guard().cap_timeout(_SHUTDOWN_DRAIN_GRACE)
        drain_deadline = time.monotonic() + (grace if grace is not None else 0.0)
        for worker in live:
            remaining = drain_deadline - time.monotonic()
            if remaining > 0 and worker.conn.poll(remaining):
                kind, _, snapshot = worker.reap()
                if kind == "ok":
                    merge_worker_snapshot(snapshot)
            else:
                worker.terminate()
        live.clear()
        queue.clear()
        return pending

    def _publish_stats(self, stats: MapStats) -> None:
        """Fold this map's fault accounting into the active registry."""
        registry = get_registry()
        if not registry.enabled:
            return
        registry.counter("engine.maps").inc()
        for field in dataclasses.fields(MapStats):
            registry.counter(f"engine.{field.name}").inc(getattr(stats, field.name))

    # -- dispatch -----------------------------------------------------

    def _dispatch(self, ctx, fn, queue, live, results, stats) -> None:
        """Start workers for every ready task while slots are free."""
        now = time.monotonic()
        queue_wait = get_registry().histogram("engine.partition_queue_wait_seconds")
        guard = current_guard()
        held: list[_Task] = []
        while queue and len(live) < self.workers:
            task = queue.popleft()
            if task.not_before > now:
                held.append(task)
                continue
            if task.attempts >= self.retry.max_attempts:
                self._run_serially(fn, task, results, stats)
                continue
            queue_wait.observe(time.monotonic() - task.enqueued_at)
            # a deadline tightens every partition's timeout to the
            # remaining budget: a hung worker cannot outlive it
            live.append(_Worker(ctx, fn, task, guard.cap_timeout(self.partition_timeout)))
            stats.dispatched += 1
        queue.extendleft(reversed(held))

    def _run_serially(self, fn, task: _Task, results, stats) -> None:
        """Graceful degradation: run a repeatedly-failing task in-parent."""
        log.warning(
            "partition of %d item(s) failed %d time(s); running serially in parent",
            len(task.pairs), task.attempts,
        )
        stats.serial_fallback_items += len(task.pairs)
        guard = current_guard()
        for idx, item in task.pairs:
            guard.check_deadline("serial in-parent fallback")
            try:
                results[idx] = fn(item)
            except Exception as exc:
                stats.failed_items += 1
                if self.on_error == "raise":
                    raise ItemFailedError(idx, item, exc) from exc
                log.error("item %d (%r) failed after retries: %s", idx, item, exc)
                results[idx] = ItemFailure(idx, item, f"{type(exc).__name__}: {exc}")

    # -- reaping ------------------------------------------------------

    def _reap(self, queue, live, results, stats) -> None:
        """Wait for worker messages, deadlines, or backoff expiries."""
        if not live:
            if queue:  # everything queued is backing off; wait it out
                pause = min(t.not_before for t in queue) - time.monotonic()
                if pause > 0:
                    self.retry.sleep(pause)
            return
        now = time.monotonic()
        next_wake = min(
            (w.deadline for w in live if w.deadline is not None), default=None
        )
        backoffs = [t.not_before for t in queue if t.not_before > now]
        if backoffs:
            soonest = min(backoffs)
            next_wake = soonest if next_wake is None else min(next_wake, soonest)
        wait_timeout = None if next_wake is None else max(0.0, next_wake - now)
        ready = set(
            multiprocessing.connection.wait([w.conn for w in live], timeout=wait_timeout)
        )
        now = time.monotonic()
        survivors: list[_Worker] = []
        for worker in live:
            if worker.conn in ready:
                kind, payload, snapshot = worker.reap()
                if kind == "ok":
                    for idx, value in payload:
                        results[idx] = value
                    merge_worker_snapshot(snapshot)
                else:
                    if kind == "err":
                        stats.worker_errors += 1
                    else:
                        stats.worker_deaths += 1
                    self._requeue(worker.task, queue, stats, str(payload))
            elif worker.deadline is not None and now >= worker.deadline:
                worker.terminate()
                stats.timeouts += 1
                self._requeue(
                    worker.task, queue, stats,
                    f"partition exceeded {self.partition_timeout}s timeout",
                )
            else:
                survivors.append(worker)
        live[:] = survivors

    def _requeue(self, task: _Task, queue, stats, reason: str) -> None:
        """Back off and requeue a failed partition, splitting to isolate."""
        attempts = task.attempts + 1
        not_before = time.monotonic() + self.retry.delay(attempts)
        stats.retries += 1
        if len(task.pairs) > 1:
            stats.splits += 1
            mid = len(task.pairs) // 2
            halves = (task.pairs[:mid], task.pairs[mid:])
            log.warning(
                "partition of %d item(s) failed (%s); splitting and retrying "
                "(attempt %d/%d)",
                len(task.pairs), reason, attempts, self.retry.max_attempts,
            )
            for half in halves:
                queue.append(_Task(half, attempts, not_before))
        else:
            log.warning(
                "item partition failed (%s); retrying (attempt %d/%d)",
                reason, attempts, self.retry.max_attempts,
            )
            queue.append(_Task(task.pairs, attempts, not_before))


def default_engine(workers: int = 1) -> MapReduceEngine:
    """Engine for a worker count: serial for 1, processes otherwise."""
    if workers <= 1:
        return SerialEngine()
    return ProcessEngine(workers=workers)


def parallel_warm_cache(cache, workers: int = 1) -> None:
    """Warm a :class:`~repro.routing.cache.RoutingCache`, in this process.

    ``workers`` is accepted and ignored.  On the default (compiled)
    tier a chunk's build is one walk per destination, so forking
    workers, shipping their pools back and joining them cost more than
    the build they split (DESIGN.md §10): the warm is
    :meth:`RoutingCache.warm`, whatever the worker count.
    """
    cache.warm()


def parallel_project_flips(
    cache, deriver, rd, jobs, model, projection, workers: int = 1
) -> list:
    """Project many candidate flips, in this process.

    ``workers`` is accepted and ignored, as :func:`parallel_warm_cache`'s
    is: a round's stacked projection costs milliseconds, less than the
    two forks it would take to split it (DESIGN.md §10).  Returns
    :func:`~repro.core.projection.project_flips` on ``jobs``.
    """
    from repro.core.projection import project_flips

    return project_flips(cache, deriver, rd, list(jobs), model, projection)
