"""Append-only run journals for checkpoint/resume.

A :class:`RunJournal` is a JSONL file: one header line identifying the
run, then one record per completed unit of work (a grid cell, a
service job event).  Appends are flushed and fsynced before returning,
so after a crash — including SIGKILL — the journal holds every unit
that finished, and a restarted run replays it instead of recomputing.

Format (``repro.run-journal/1``)::

    {"format": "repro.run-journal/1", "kind": "sweep", "meta": {...}}
    {"record": {...}, "sha256": "..."}
    {"record": {...}, "sha256": "..."}

Each record line carries a SHA-256 of its canonical record JSON.  A
torn *final* line (the crash happened mid-append) is dropped silently
on replay; damage anywhere else raises
:class:`~repro.runtime.errors.JournalCorruptError`.

A grid of cells (a sweep, the attack matrix) checkpoints through one
:class:`CellLog` over its journal: ``{"type": "cell", "cell": {...}}``
records, replayed by key on resume.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from pathlib import Path
from typing import IO, Any, Callable, Generic, TypeVar

from repro.runtime.errors import (
    JournalCorruptError,
    JournalLockedError,
    JournalMismatchError,
    SchemaError,
)
from repro.runtime.guard import current_guard
from repro.telemetry.metrics import get_registry

try:  # pragma: no cover - present on every POSIX CPython
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - Windows et al.: locking is a no-op
    _fcntl = None  # type: ignore[assignment]

log = logging.getLogger(__name__)

JOURNAL_FORMAT = "repro.run-journal/1"

#: seconds an append waits for a contended advisory lock before raising
#: :class:`~repro.runtime.errors.JournalLockedError` (appends are
#: one fsynced line, so honest contention clears in microseconds)
DEFAULT_LOCK_TIMEOUT = 5.0

#: polling interval while waiting on a contended lock
_LOCK_POLL_SECONDS = 0.02


def _lock_append_handle(fh: IO[str], path: Path, timeout: float) -> None:
    """Take the advisory append lock on ``fh`` (best-effort, exclusive).

    Uses non-blocking ``flock`` in a short retry loop so a contended
    journal raises the typed :class:`JournalLockedError` instead of
    parking the thread unboundedly.  On platforms without ``fcntl`` the
    lock is a documented no-op — appends there rely on the caller
    serialising writers, exactly as before this lock existed.
    """
    if _fcntl is None:
        return
    deadline = time.monotonic() + max(timeout, 0.0)
    while True:
        try:
            _fcntl.flock(fh.fileno(), _fcntl.LOCK_EX | _fcntl.LOCK_NB)
            return
        except OSError:
            if time.monotonic() >= deadline:
                raise JournalLockedError(path, timeout) from None
            time.sleep(_LOCK_POLL_SECONDS)


def _record_checksum(record: dict[str, Any]) -> str:
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class RunJournal:
    """An append-only JSONL journal of completed work units.

    Parameters
    ----------
    path:
        Journal file location.  The file is created lazily on the first
        :meth:`ensure_header` / :meth:`append`.
    lock_timeout:
        Seconds an append waits for the advisory file lock held by a
        concurrent writer before raising
        :class:`~repro.runtime.errors.JournalLockedError`.
    """

    def __init__(self, path: str | Path, lock_timeout: float = DEFAULT_LOCK_TIMEOUT):
        self.path = Path(path)
        self.lock_timeout = lock_timeout

    # -- writing ------------------------------------------------------

    def ensure_header(self, kind: str, meta: dict[str, Any] | None = None) -> list[dict[str, Any]]:
        """Create the header, or validate an existing one; return the records.

        A fresh (or empty) journal gets a header line with ``kind`` and
        ``meta``.  An existing journal must match both exactly —
        resuming a sweep into a journal from a different grid raises
        :class:`~repro.runtime.errors.JournalMismatchError` instead of
        silently mixing cells.  The file is read once (:meth:`_load`).
        """
        header, records = self._load()
        self._check_header(header, kind, meta or {})
        return records

    def append(self, record: dict[str, Any]) -> None:
        """Durably append one record (flushed + fsynced before return)."""
        line = json.dumps(
            {"record": record, "sha256": _record_checksum(record)},
            sort_keys=True,
        )
        self._append_line(line)

    def _load(self) -> tuple[dict[str, Any] | None, list[dict[str, Any]]]:
        """Read and verify the file once; drop a torn final line from it.

        A crash mid-append leaves a partial last line, and appending
        after it would weld two records together, so it is cut (a torn
        first-ever header empties the file).  Corruption anywhere but
        the tail raises :class:`~repro.runtime.errors.JournalCorruptError`.
        """
        from repro.runtime.atomic import atomic_write_text

        lines = self._read_lines()
        try:
            header, records = self._parse(lines)
        except JournalCorruptError:
            if len(lines) != 1:
                raise
            atomic_write_text(self.path, "")
            return None, []
        kept = len(records) + 1  # records + header
        if kept < len(lines):
            atomic_write_text(self.path, "\n".join(lines[:kept]) + "\n")
        return header, records

    def _check_header(
        self, header: dict[str, Any] | None, kind: str, meta: dict[str, Any]
    ) -> None:
        """Write the header of a fresh journal, or hold ``header`` to it."""
        if header is None:
            line = json.dumps(
                {"format": JOURNAL_FORMAT, "kind": kind, "meta": meta},
                sort_keys=True,
            )
            self._append_line(line)
            return
        if header.get("kind") != kind:
            raise JournalMismatchError(
                f"{self.path}: journal kind {header.get('kind')!r} != expected {kind!r}"
            )
        existing_meta = header.get("meta") or {}
        if existing_meta != meta:
            keys = sorted(
                k
                for k in set(existing_meta) | set(meta)
                if existing_meta.get(k) != meta.get(k)
            )
            raise JournalMismatchError(
                f"{self.path}: journal metadata differs from this run "
                f"(mismatched keys: {keys}); use a fresh journal path"
            )

    def _append_line(self, line: str) -> None:
        # The journal is the one sanctioned non-atomic writer: an
        # fsynced append is the point (atomic replace would rewrite the
        # whole file per record), and _load() handles the torn tail.
        # The advisory flock (released with the handle) keeps two
        # writers — daemon worker threads, or two processes sharing a
        # store directory — from interleaving halves of a line.
        with open(self.path, "a", encoding="utf-8") as fh:  # repro-lint: disable=RPR001
            _lock_append_handle(fh, self.path, self.lock_timeout)
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    # -- reading ------------------------------------------------------

    def exists(self) -> bool:
        """True if the journal file exists and is non-empty."""
        try:
            return self.path.stat().st_size > 0
        except OSError:
            return False

    def header(self) -> dict[str, Any] | None:
        """The header payload, or None for a missing/empty journal."""
        return self._parse(self._read_lines()[:1])[0]

    def records(self) -> list[dict[str, Any]]:
        """All validated records, in append order."""
        return self._parse(self._read_lines())[1]

    def __len__(self) -> int:
        return len(self.records())

    def _parse(self, lines: list[str]) -> tuple[dict[str, Any] | None, list[dict[str, Any]]]:
        """The header and records of ``lines``, each checksum verified once.

        The final line is allowed to be torn (dropped with a warning);
        any earlier damage raises
        :class:`~repro.runtime.errors.JournalCorruptError`.
        """
        if not lines:
            return None, []
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise JournalCorruptError(self.path, 1, f"unreadable header ({exc})") from exc
        if not isinstance(header, dict) or header.get("format") != JOURNAL_FORMAT:
            raise JournalCorruptError(
                self.path, 1, f"not a {JOURNAL_FORMAT} journal"
            )
        records = []
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                entry = json.loads(line)
                if (
                    not isinstance(entry, dict)
                    or "record" not in entry
                    or entry.get("sha256") != _record_checksum(entry["record"])
                ):
                    raise ValueError("record/checksum mismatch")
            except ValueError as exc:
                if lineno == len(lines):
                    log.warning(
                        "%s:%d: dropping torn final journal line (%s)",
                        self.path, lineno, exc,
                    )
                    break
                raise JournalCorruptError(self.path, lineno, str(exc)) from exc
            records.append(entry["record"])
        return header, records

    def _read_lines(self) -> list[str]:
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return []
        return [ln for ln in text.splitlines() if ln.strip()]


def coerce_journal(journal: "RunJournal | str | Path | None") -> RunJournal | None:
    """Accept a journal, a path, or None (helper for API entry points)."""
    if journal is None or isinstance(journal, RunJournal):
        return journal
    return RunJournal(journal)


_C = TypeVar("_C")


class CellLog(Generic[_C]):
    """Where each cell of one grid run comes from, and where it goes.

    A cell is replayed from ``journal`` when an earlier run recorded it,
    else taken from the shared ``store`` (anything with ``get(*key)`` /
    ``put(*key, cell)``; only sweeps pass one), else computed by the
    caller: :meth:`lookup` answers the first two, :meth:`record` takes
    the third.  Every cell is then reported once under its source
    (``"replayed"``, ``"cache"`` or ``"computed"``): the counter
    ``<telemetry>.cells_replayed`` / ``.cells_from_cache`` / ``.cells``,
    a journal record unless it was replayed (so the journal stays a
    complete resume record), the store for a computed one, then
    ``on_cell(cell, source)``.  Raising from ``on_cell`` stops the run
    at a cell boundary with everything finished journaled.

    Opening validates the journal's header against ``kind`` and
    ``meta``.  The ``named`` meta key is checked first, so that a run
    under another value of it (``legacy`` stands in for journals older
    than the key) raises :class:`~repro.runtime.errors.SchemaError`
    naming both values: cells under another policy or threat model are
    not comparable.  Any other difference raises
    :class:`~repro.runtime.errors.JournalMismatchError`.
    """

    def __init__(
        self,
        journal: RunJournal | str | Path | None,
        kind: str,
        meta: dict[str, Any],
        *,
        named: str,
        legacy: Any,
        key: Callable[[_C], tuple[Any, ...]],
        encode: Callable[[_C], dict[str, Any]],
        decode: Callable[[dict[str, Any]], _C],
        telemetry: str,
        store: Any = None,
        on_cell: Callable[[_C, str], None] | None = None,
    ) -> None:
        self._journal = coerce_journal(journal)
        self._kind = kind
        self._encode = encode
        self._store = store
        self._on_cell = on_cell
        self._counters = {
            "replayed": f"{telemetry}.cells_replayed",
            "cache": f"{telemetry}.cells_from_cache",
            "computed": f"{telemetry}.cells",
        }
        self._done: dict[tuple[Any, ...], _C] = {}
        if self._journal is None:
            return
        header, records = self._journal._load()
        if header is not None and header.get("kind") == kind:
            recorded = (header.get("meta") or {}).get(named, legacy)
            if recorded != meta[named]:
                raise SchemaError(
                    f"{self._journal.path}: {kind} journal was recorded with "
                    f"{named} {recorded!r} but this run has {meta[named]!r}; "
                    "resuming would mix cells that are not comparable — use "
                    "a fresh journal path"
                )
        self._journal._check_header(header, kind, meta)
        for record in records:
            if record.get("type") == "cell":
                cell = decode(record["cell"])
                self._done[key(cell)] = cell

    def lookup(self, key: tuple[Any, ...]) -> _C | None:
        """The cell at ``key`` from the journal or the store, reported,
        or None when the caller must compute it.

        A cell not replayed is a cell boundary: everything finished so
        far is journaled, so an expired deadline raises here and the run
        resumes losslessly."""
        cell = self._done.get(key)
        if cell is not None:
            return self._report(key, cell, "replayed")
        current_guard().check_deadline(f"{self._kind} cell {key}")
        cell = self._store.get(*key) if self._store is not None else None
        return None if cell is None else self._report(key, cell, "cache")

    def record(self, key: tuple[Any, ...], cell: _C) -> None:
        """Report the cell the caller computed at ``key``."""
        self._report(key, cell, "computed")

    def _report(self, key: tuple[Any, ...], cell: _C, source: str) -> _C:
        get_registry().counter(self._counters[source]).inc()
        if source != "replayed" and self._journal is not None:
            self._journal.append({"type": "cell", "cell": self._encode(cell)})
        if source == "computed" and self._store is not None:
            self._store.put(*key, cell)
        if self._on_cell is not None:
            self._on_cell(cell, source)
        return cell
