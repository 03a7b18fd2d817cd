"""Typed errors for the resilience layer.

Every recoverable failure in persistence, journaling and the resource
guard surfaces as one of these instead of a raw ``json.JSONDecodeError``,
so callers can distinguish "the file is damaged" from "the file is from
a different run" from "the budget ran out".
"""

from __future__ import annotations


class PersistenceError(Exception):
    """Base class for result/journal persistence failures."""


class CorruptFileError(PersistenceError):
    """A file exists but its bytes are damaged.

    Raised for truncated JSON, undecodable text, and checksum
    mismatches.  The original cause (if any) is chained as
    ``__cause__``.
    """

    def __init__(self, path, reason: str):
        self.path = str(path)
        self.reason = reason
        super().__init__(f"{self.path}: {reason}")


class SchemaError(PersistenceError, ValueError):
    """A file parsed cleanly but does not match the expected format.

    Subclasses :class:`ValueError` so pre-existing callers that caught
    the old untyped format check keep working.
    """


class JournalError(PersistenceError):
    """Base class for run-journal failures."""


class JournalCorruptError(JournalError):
    """A journal line (other than a torn final line) failed validation."""

    def __init__(self, path, lineno: int, reason: str):
        self.path = str(path)
        self.lineno = lineno
        self.reason = reason
        super().__init__(f"{self.path}:{lineno}: {reason}")


class JournalMismatchError(JournalError):
    """An existing journal belongs to a different run configuration.

    Resuming into a journal whose header metadata differs from the
    current run would silently mix incompatible cells; this error names
    the first differing key instead.
    """


class JournalLockedError(JournalError):
    """Another writer holds the journal's advisory lock.

    Appends take a best-effort ``flock`` so two daemon workers (or two
    daemon *processes* sharing a store directory) can never interleave
    half-lines into one journal.  Contention beyond the short retry
    window surfaces as this error instead of silent corruption; the
    caller decides whether to retry, requeue, or fail the work unit.
    """

    def __init__(self, path: object, waited_seconds: float):
        self.path = str(path)
        self.waited_seconds = waited_seconds
        super().__init__(
            f"{self.path}: journal is locked by another writer (gave up "
            f"after {waited_seconds:g}s); two runs may be sharing one "
            "journal path"
        )


class DeadlineExceeded(RuntimeError):
    """A cooperative wall-clock budget ran out (see ``runtime.guard``).

    Raised at a *checkpoint* — a sweep-cell, simulation-round, or
    map-loop boundary — never mid-computation, so everything finished
    before the raise has already been journaled and a ``--resume`` run
    picks up exactly where the budget ended.  ``where`` names the
    checkpoint; ``budget_seconds`` is the budget that expired.
    """

    def __init__(self, where: str, budget_seconds: float):
        self.where = where
        self.budget_seconds = budget_seconds
        super().__init__(
            f"deadline of {budget_seconds:g}s exceeded at {where}; "
            "completed work was journaled (rerun with --resume to continue)"
        )


class MemoryBudgetExceeded(RuntimeError):
    """An allocation was refused because it cannot fit the memory budget.

    Only raised by :meth:`~repro.runtime.guard.MemoryBudget.require` —
    the degradation ladder prefers shrinking the work (chunked batches,
    lazy warm) over refusing it, so this surfaces only
    when even the smallest possible unit exceeds the budget.
    """

    def __init__(self, what: str, needed_bytes: int, limit_bytes: int):
        self.what = what
        self.needed_bytes = needed_bytes
        self.limit_bytes = limit_bytes
        super().__init__(
            f"{what} needs ~{needed_bytes / 2**20:.1f} MiB but the memory "
            f"budget is {limit_bytes / 2**20:.1f} MiB; raise --memory-budget "
            "or shrink the run"
        )


class StateMemoScopeError(ValueError):
    """A state memo met a simulation other than the kind that filled it.

    A :class:`~repro.core.dynamics.StateMemo` holds theta-free state
    evaluations that are only valid for the configuration pinned at its
    first use; ``differing`` names the scope entries (cache, policy,
    utility model, player set, graph weights...) that do not match, so
    the caller sees stale sharing instead of another run's numbers.
    """

    def __init__(self, differing: list[str]):
        self.differing = differing
        super().__init__(
            f"state memo was filled under a different {', '.join(differing)}; "
            "its evaluations do not apply to this simulation (use one memo "
            "per fixed configuration)"
        )
