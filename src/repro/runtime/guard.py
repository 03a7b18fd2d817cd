"""Resource governance: deadlines, memory budgets, graceful degradation.

The paper's evaluation ran on a 200-node DryadLINQ cluster whose
scheduler owned the resource problem; at laptop scale *this* module
owns it.  Three cooperating pieces:

- :class:`Deadline` — a cooperative wall-clock budget.  It is checked
  at work-unit boundaries (sweep cells, simulation rounds, cache warm
  chunks) and raises a typed
  :class:`~repro.runtime.errors.DeadlineExceeded` *after* completed
  units were journaled, so an interrupted run resumes exactly where the
  budget ran out.
- :class:`MemoryBudget` — a soft ceiling consulted *before* large
  allocations (the arena size predictor
  :meth:`~repro.routing.arena.RoutingArena.estimate_bytes` supplies the
  forecasts) so the system shrinks its working set instead of meeting
  the OOM killer.
- :class:`DegradationLadder` — the ordered set of fallbacks the system
  may take when resources are short.  Every rung taken emits a WARNING
  and a ``runtime.guard.degraded`` counter (plus a per-rung counter),
  so a degraded run is *visibly* degraded in the metrics snapshot.

:class:`RuntimeGuard` bundles the three and travels ambiently: the CLI
installs one via :func:`use_guard` and every layer reads it back with
:func:`current_guard`.  The default guard is permissive (no deadline,
no budget) and costs a couple of attribute loads per check, so guarded
code needs no ``if guard is not None`` litter.
"""

from __future__ import annotations

import contextlib
import logging
import re
import threading
import time
from typing import Callable, Iterator

from repro.runtime.errors import DeadlineExceeded, MemoryBudgetExceeded
from repro.telemetry.metrics import get_registry

log = logging.getLogger(__name__)

#: Injectable time source (tests pass a fake; production uses monotonic).
Clock = Callable[[], float]

#: The rungs of the degradation ladder, in the order a starved run
#: typically descends them.  Names are stable: they key the per-rung
#: ``runtime.guard.degraded.<rung>`` counters and the DESIGN.md table.
LADDER_RUNGS: tuple[str, ...] = (
    "chunked_batches",   # full-batch kernels -> per-destination-chunk batches
    "lazy_warm",         # eager warm -> build-on-first-use
    "compiled_to_numpy",  # compiled kernel backend -> pure-numpy kernels
)


class Deadline:
    """A cooperative wall-clock budget, checked at work-unit boundaries.

    The clock is injectable so chaos tests can expire a deadline at an
    exact, deterministic point (e.g. "after the second journal append")
    instead of racing real time.
    """

    __slots__ = ("budget_seconds", "_clock", "_started")

    def __init__(self, seconds: float, clock: Clock = time.monotonic):
        if not seconds >= 0:  # NaN fails too: it would never expire
            raise ValueError(f"deadline must be >= 0 seconds, got {seconds}")
        self.budget_seconds = float(seconds)
        self._clock = clock
        self._started = clock()

    def elapsed(self) -> float:
        """Seconds since the deadline started."""
        return self._clock() - self._started

    def remaining(self) -> float:
        """Seconds of budget left (negative once expired)."""
        return self.budget_seconds - self.elapsed()

    def expired(self) -> bool:
        """True once the budget has run out."""
        return self.remaining() <= 0.0

    def check(self, where: str) -> None:
        """Raise :class:`DeadlineExceeded` if the budget has run out.

        ``where`` names the checkpoint (``"sweep cell (top-5, 0.05)"``)
        so the one-line error says how far the run got.
        """
        if self.expired():
            get_registry().counter("runtime.guard.deadline_exceeded").inc()
            raise DeadlineExceeded(where, self.budget_seconds)


_SIZE_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([kmgt]?)i?b?\s*$", re.IGNORECASE)


def parse_size(text: str | int) -> int:
    """Parse a human-friendly byte size: ``"512MiB"``, ``"2GB"``, ``"750k"``.

    Suffixes are binary (``k``/``M``/``G``/``T`` = 2**10/20/30/40) with
    an optional ``i``/``B``; a bare number is bytes.  Used by the CLI's
    ``--memory-budget`` flag.
    """
    if isinstance(text, int):
        if text <= 0:
            raise ValueError(f"size must be positive, got {text}")
        return text
    match = _SIZE_RE.match(text)
    if match is None:
        raise ValueError(
            f"unparseable size {text!r}; expected e.g. 512MiB, 2GB, 750k, or bytes"
        )
    value = float(match.group(1))
    shift = {"": 0, "k": 10, "m": 20, "g": 30, "t": 40}[match.group(2).lower()]
    size = int(value * (1 << shift))
    if size <= 0:
        raise ValueError(f"size must be positive, got {text!r}")
    return size


class MemoryBudget:
    """A soft memory ceiling consulted before large allocations.

    The budget is advisory by design: call sites ask :meth:`fits` and
    take a degradation rung when the answer is no.  :meth:`require` is
    the hard variant for allocations that have no smaller fallback.
    """

    __slots__ = ("limit_bytes",)

    def __init__(self, limit_bytes: int | str):
        self.limit_bytes = parse_size(limit_bytes)

    def fits(self, nbytes: int) -> bool:
        """True when an allocation of ``nbytes`` fits the budget."""
        return nbytes <= self.limit_bytes

    def require(self, nbytes: int, what: str) -> None:
        """Raise :class:`MemoryBudgetExceeded` unless ``nbytes`` fits."""
        if not self.fits(nbytes):
            raise MemoryBudgetExceeded(what, nbytes, self.limit_bytes)


#: Divisor giving the budget share one kernel working set may claim.
#: The pooled arena stays resident while the kernels run, so their
#: transient gather/scratch arrays get 1/8 of the budget; the rest is
#: headroom for the arena, the round's output matrices, and Python.
KERNEL_BUDGET_FRACTION = 8


class DegradationLadder:
    """Accounting for the graceful-degradation rungs a run has taken.

    Each rung taken logs one WARNING (first time only — a 200-round
    sweep should not warn 200 times) and increments both the total
    ``runtime.guard.degraded`` counter and the per-rung
    ``runtime.guard.degraded.<rung>`` counter on every take, so the
    metrics snapshot shows *which* fallbacks ran and how often.
    """

    def __init__(self) -> None:
        self._taken: dict[str, int] = {}

    def take(self, rung: str, reason: str) -> None:
        """Record one descent onto ``rung`` (see :data:`LADDER_RUNGS`)."""
        if rung not in LADDER_RUNGS:
            raise ValueError(
                f"unknown degradation rung {rung!r}; known: {', '.join(LADDER_RUNGS)}"
            )
        first = rung not in self._taken
        self._taken[rung] = self._taken.get(rung, 0) + 1
        registry = get_registry()
        registry.counter("runtime.guard.degraded").inc()
        registry.counter(f"runtime.guard.degraded.{rung}").inc()
        if first:
            log.warning("degraded (%s): %s", rung, reason)

    def taken(self, rung: str) -> int:
        """How many times ``rung`` has been taken under this ladder."""
        return self._taken.get(rung, 0)

    def rungs_taken(self) -> dict[str, int]:
        """All rungs taken so far, with counts (insertion-ordered)."""
        return dict(self._taken)


class RuntimeGuard:
    """Deadline + memory budget + ladder, bundled for ambient carry.

    A guard with neither deadline nor budget (the default installed
    guard) is permissive: every check is a cheap no-op, every ``fits``
    is True, every plan returns its input unchanged.
    """

    def __init__(
        self,
        deadline: Deadline | None = None,
        memory: MemoryBudget | None = None,
        ladder: DegradationLadder | None = None,
    ):
        self.deadline = deadline
        self.memory = memory
        self.ladder = ladder if ladder is not None else DegradationLadder()

    @property
    def active(self) -> bool:
        """True when the guard enforces anything at all."""
        return self.deadline is not None or self.memory is not None

    # -- deadline ------------------------------------------------------

    def check_deadline(self, where: str) -> None:
        """Checkpoint: raise :class:`DeadlineExceeded` once expired."""
        if self.deadline is not None:
            self.deadline.check(where)

    # -- memory --------------------------------------------------------

    def fits_memory(self, nbytes: int) -> bool:
        """True when ``nbytes`` fits the budget (or there is none)."""
        return self.memory is None or self.memory.fits(nbytes)

    def degrade(self, rung: str, reason: str) -> None:
        """Take a ladder rung (warning + counters)."""
        self.ladder.take(rung, reason)

    def plan_batch_rows(self, rows: int, row_bytes: int, what: str = "kernel") -> int:
        """Rows per kernel batch under the budget (``rows`` = no limit).

        The batched tree kernels materialise ``[rows, n]`` working
        matrices; when that working set would claim more than
        ``1/KERNEL_BUDGET_FRACTION`` of the budget, the batch is split
        into chunks that fit (the ``chunked_batches`` rung).  Outputs
        are stitched back together, so chunking is bit-identical.
        """
        if self.memory is None or rows <= 1 or row_bytes <= 0:
            return rows
        share = self.memory.limit_bytes // KERNEL_BUDGET_FRACTION
        if rows * row_bytes <= share:
            return rows
        chunk_rows = max(1, int(share // row_bytes))
        self.degrade(
            "chunked_batches",
            f"{what}: full batch of {rows} rows needs "
            f"~{rows * row_bytes / 2**20:.0f} MiB working set; running in "
            f"chunks of {chunk_rows} row(s)",
        )
        return chunk_rows


#: The permissive default guard; module-level so :func:`current_guard`
#: never allocates on the hot path.
NULL_GUARD = RuntimeGuard()


class _GuardStack(threading.local):
    """Per-thread stack of installed guards.

    Thread-local so concurrent jobs (the simulation service runs one
    sweep per scheduler worker thread) each see their *own* deadline and
    memory budget — a shared stack would hand thread A the guard thread
    B pushed last.
    """

    def __init__(self) -> None:
        self.stack: list[RuntimeGuard] = []


_installed = _GuardStack()


def current_guard() -> RuntimeGuard:
    """The ambient guard of this thread (:data:`NULL_GUARD` by default)."""
    stack = _installed.stack
    return stack[-1] if stack else NULL_GUARD


@contextlib.contextmanager
def use_guard(guard: RuntimeGuard) -> Iterator[RuntimeGuard]:
    """Install ``guard`` as this thread's ambient guard for the block.

    Nestable (inner guards shadow outer ones) and thread-scoped (each
    scheduler worker governs only its own job).
    """
    _installed.stack.append(guard)
    try:
        yield guard
    finally:
        _installed.stack.pop()
