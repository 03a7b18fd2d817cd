"""Resilience layer: atomic persistence, run journals, resource guard.

The paper's 200-node DryadLINQ cluster re-ran failed partitions for
free; this package is the laptop-scale equivalent.  Long computations
journal their completed units (:class:`RunJournal`) so an interrupted
run resumes where it stopped, every file write is atomic and checksummed
(:mod:`repro.runtime.atomic`), and :class:`RuntimeGuard` bounds a run's
wall time and memory (:mod:`repro.runtime.guard`).
"""

from repro.runtime.atomic import (
    atomic_write_json,
    atomic_write_text,
    checksum_payload,
    load_checked_json,
    parse_checked_json,
)
from repro.runtime.errors import (
    CorruptFileError,
    DeadlineExceeded,
    JournalCorruptError,
    JournalError,
    JournalMismatchError,
    MemoryBudgetExceeded,
    PersistenceError,
    SchemaError,
)
from repro.runtime.guard import (
    LADDER_RUNGS,
    NULL_GUARD,
    Deadline,
    DegradationLadder,
    MemoryBudget,
    RuntimeGuard,
    current_guard,
    parse_size,
    use_guard,
)
from repro.runtime.journal import JOURNAL_FORMAT, RunJournal, coerce_journal

__all__ = [
    "JOURNAL_FORMAT",
    "LADDER_RUNGS",
    "NULL_GUARD",
    "CorruptFileError",
    "Deadline",
    "DeadlineExceeded",
    "DegradationLadder",
    "JournalCorruptError",
    "JournalError",
    "JournalMismatchError",
    "MemoryBudget",
    "MemoryBudgetExceeded",
    "PersistenceError",
    "RunJournal",
    "RuntimeGuard",
    "SchemaError",
    "current_guard",
    "parse_size",
    "use_guard",
    "atomic_write_json",
    "atomic_write_text",
    "checksum_payload",
    "coerce_journal",
    "load_checked_json",
    "parse_checked_json",
]
