"""Cross-request result cache: sweep cells and kept environments.

The daemon's whole value proposition over ``sbgp-sim sweep`` in a cron
job is amortisation: two users sweeping overlapping grids on the same
topology should pay for the overlap once.  Two kinds of entry make that
happen:

- **cells** — finished :class:`~repro.experiments.sweeps.SweepCell`
  values, keyed by ``(cell-scope digest, adopter set, theta)`` where
  the scope digest (:func:`~repro.service.specs.cell_scope_digest`)
  pins everything else that affects a cell's value.  The executor binds
  a :class:`CellView` over this store as the sweep's
  :class:`~repro.experiments.sweeps.CellCache`;
- **environments** — a built :class:`~repro.experiments.setup.ExperimentEnv`
  (graph, traffic, warmed routing arena) and its state evaluations
  (:class:`~repro.core.dynamics.StateMemo`), keyed by environment
  digest and kernel backend (:class:`KeptEnv`), so the next job on a
  topology skips the build and every state an earlier job evaluated.
  A job holds the entry's lock while it runs: jobs on one environment
  run one at a time, jobs on different environments in parallel.  Only
  state-independent policies participate: a state-dependent arena is
  valid for one deployment state only.

Eviction is LRU under a byte budget.  An environment is charged at its
arena's bytes plus its evaluations' and charged again after each job,
so a growing memo moves it; environments dwarf cells (MiB vs a few
hundred bytes), so the budget is effectively "how many warm topologies
to keep"; cells ride along almost for free.  Every lookup lands in the
``service.cache.*`` telemetry counters — the acceptance criterion for
the whole subsystem is literally "the second job shows hits here"
(``arena_hits`` / ``arena_misses`` count environment lookups).
"""

from __future__ import annotations

import contextlib
import dataclasses
import logging
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterator

from repro.telemetry.metrics import get_registry

if TYPE_CHECKING:
    from repro.core.dynamics import StateMemo
    from repro.experiments.setup import ExperimentEnv
    from repro.experiments.sweeps import SweepCell

log = logging.getLogger(__name__)

#: default byte budget (256 MiB): a handful of tiny-topology environments
#: or one production-scale one, plus effectively unlimited cells
DEFAULT_BUDGET_BYTES = 256 * 2**20

#: accounting estimate for one cached cell (the dataclass plus key;
#: exact sizes vary with projection_ratios, but cells are noise next to
#: arenas and an estimate keeps the hot path allocation-free)
_CELL_BYTES = 512


@dataclasses.dataclass(frozen=True)
class ResultCacheStats:
    """Point-in-time accounting for one :class:`ResultCache`."""

    cell_hits: int
    cell_misses: int
    arena_hits: int  # lookups of a kept environment
    arena_misses: int
    evictions: int
    entries: int
    bytes_used: int
    budget_bytes: int


class _Entry:
    __slots__ = ("value", "nbytes")

    def __init__(self, value: object, nbytes: int):
        self.value = value
        self.nbytes = nbytes


class KeptEnv:
    """One environment kept between the jobs on its digest.

    ``env`` stays None until a job keeps the environment it built
    (:meth:`keep`).  ``lock`` is held by the job running on it.  The
    state memos are the environment's, one per ``stub_breaks_ties``
    (the one memo-scope field a spec varies); ``StateMemo.bind`` checks
    the rest.  Between jobs only the memos' round buffers are released.
    """

    def __init__(self) -> None:
        self.env: ExperimentEnv | None = None
        self.lock = threading.Lock()
        self._memos: dict[bool, StateMemo] = {}

    def keep(self, env: ExperimentEnv) -> None:
        """Keep ``env`` for later jobs: only with a warmed arena that no
        deployment state owns, which no job then changes."""
        arena = env.cache.arena
        if arena is None or arena.state_key is not None:
            raise ValueError(
                "refusing to keep an environment whose arena is not warmed "
                "or is state-dependent; only state-independent policies "
                "share environments across jobs"
            )
        self.env = env

    def memo(self, stub_breaks_ties: bool) -> StateMemo:
        """The environment's state memo for games with ``stub_breaks_ties``."""
        memo = self._memos.get(stub_breaks_ties)
        if memo is None:
            # imported here: the daemon answers before the stack loads
            from repro.core.dynamics import StateMemo

            memo = self._memos[stub_breaks_ties] = StateMemo()
        return memo

    def release_rounds(self) -> None:
        """Drop every memo's ``[dests, n]`` round buffers, keeping the
        evaluations."""
        for memo in self._memos.values():
            memo.release_buffers()

    @property
    def nbytes(self) -> int:
        """The arena's bytes plus the evaluations'."""
        arena = self.env.cache.arena if self.env is not None else None
        held = sum(memo.nbytes for memo in self._memos.values())
        return (arena.nbytes if arena is not None else 0) + held


class ResultCache:
    """LRU byte-budgeted store of sweep cells and kept environments.

    Thread-safe: every operation holds one lock for its (short, pure
    in-memory) duration.  An environment's *contents* are guarded by its
    entry's own lock instead (:meth:`environment`), taken after and
    never inside the cache's.
    """

    def __init__(self, budget_bytes: int = DEFAULT_BUDGET_BYTES):
        if budget_bytes < 1:
            raise ValueError(f"budget_bytes must be >= 1, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._bytes = 0
        self._cell_hits = 0
        self._cell_misses = 0
        self._arena_hits = 0
        self._arena_misses = 0
        self._evictions = 0

    # -- generic LRU core ---------------------------------------------

    def _get(self, key: tuple) -> object | None:
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry.value

    def _put(self, key: tuple, value: object, nbytes: int) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes
        self._entries[key] = _Entry(value, nbytes)
        self._bytes += nbytes
        registry = get_registry()
        while self._bytes > self.budget_bytes and len(self._entries) > 1:
            evicted_key, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes
            self._evictions += 1
            registry.counter("service.cache.evictions").inc()
            log.debug("evicted %s (%d bytes) from result cache", evicted_key, evicted.nbytes)
        registry.gauge("service.cache.bytes").set(self._bytes)
        registry.gauge("service.cache.entries").set(len(self._entries))

    # -- cells ---------------------------------------------------------

    def get_cell(self, scope: str, adopters: str, theta: float) -> SweepCell | None:
        """A shared cell for ``(scope, adopters, theta)``, or None."""
        with self._lock:
            value = self._get(("cell", scope, adopters, theta))
            if value is None:
                self._cell_misses += 1
                get_registry().counter("service.cache.cell_misses").inc()
                return None
            self._cell_hits += 1
            get_registry().counter("service.cache.cell_hits").inc()
            return value  # type: ignore[return-value]

    def put_cell(self, scope: str, adopters: str, theta: float, cell: SweepCell) -> None:
        """Publish a finished cell for other jobs in the same scope."""
        with self._lock:
            self._put(("cell", scope, adopters, theta), cell, _CELL_BYTES)

    def cell_view(self, scope: str) -> "CellView":
        """A :class:`~repro.experiments.sweeps.CellCache` bound to ``scope``."""
        return CellView(self, scope)

    # -- environments --------------------------------------------------

    @contextlib.contextmanager
    def environment(self, digest: str, backend: str | None) -> Iterator[KeptEnv]:
        """Hold the environment kept for ``(digest, backend)`` for one job.

        Yields its :class:`KeptEnv` with the entry's lock held; the
        lookup is a hit when an earlier job kept an environment there.
        On exit the memos' round buffers are released and the entry is
        charged again at its current :attr:`KeptEnv.nbytes` (unless the
        key was evicted and taken by a newer entry meanwhile).
        """
        key = ("env", digest, backend)
        with self._lock:
            entry = self._get(key)
            if not isinstance(entry, KeptEnv):
                entry = KeptEnv()
                self._put(key, entry, 1)
        with entry.lock:
            hit = entry.env is not None
            with self._lock:
                if hit:
                    self._arena_hits += 1
                    get_registry().counter("service.cache.arena_hits").inc()
                else:
                    self._arena_misses += 1
                    get_registry().counter("service.cache.arena_misses").inc()
            try:
                yield entry
            finally:
                entry.release_rounds()
                with self._lock:
                    current = self._entries.get(key)
                    if current is None or current.value is entry:
                        self._put(key, entry, max(entry.nbytes, 1))

    # -- accounting ----------------------------------------------------

    def stats(self) -> ResultCacheStats:
        """Current :class:`ResultCacheStats` snapshot."""
        with self._lock:
            return ResultCacheStats(
                cell_hits=self._cell_hits,
                cell_misses=self._cell_misses,
                arena_hits=self._arena_hits,
                arena_misses=self._arena_misses,
                evictions=self._evictions,
                entries=len(self._entries),
                bytes_used=self._bytes,
                budget_bytes=self.budget_bytes,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class CellView:
    """:class:`~repro.experiments.sweeps.CellCache` over one scope.

    ``run_sweep`` only knows ``(adopter set, theta)``; the view carries
    the scope digest that makes those coordinates globally unique.
    """

    def __init__(self, cache: ResultCache, scope: str):
        self._cache = cache
        self._scope = scope

    def get(self, adopters: str, theta: float) -> SweepCell | None:
        return self._cache.get_cell(self._scope, adopters, theta)

    def put(self, adopters: str, theta: float, cell: SweepCell) -> None:
        self._cache.put_cell(self._scope, adopters, theta, cell)
