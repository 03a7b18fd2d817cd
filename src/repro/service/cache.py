"""Cross-request result cache: sweep cells and warmed routing arenas.

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
- **arenas** — warmed read-only :class:`~repro.routing.arena.RoutingArena`
  pools keyed by environment digest, so the second job on a topology
  skips the (dominant) tree-build cost.  Only state-independent
  policies participate: their arenas are immutable after build, which
  is what makes sharing across scheduler threads safe.

Eviction is LRU under a byte budget.  Arenas dwarf cells (MiB vs a few
hundred bytes), so the budget is effectively "how many warm topologies
to keep"; cells ride along almost for free.  Every lookup lands in the
``service.cache.*`` telemetry counters — the acceptance criterion for
the whole subsystem is literally "the second job shows hits here".
"""

from __future__ import annotations

import dataclasses
import logging
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.telemetry.metrics import get_registry

if TYPE_CHECKING:
    from repro.experiments.sweeps import SweepCell
    from repro.routing.arena import RoutingArena

log = logging.getLogger(__name__)

#: default byte budget (256 MiB): a handful of tiny-topology arenas or
#: one production-scale one, plus effectively unlimited cells
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
    arena_hits: int
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


class ResultCache:
    """LRU byte-budgeted store of sweep cells and warmed arenas.

    Thread-safe: every operation holds one lock for its (short, pure
    in-memory) duration.  Arena *contents* need no locking — they are
    read-only after build by :class:`~repro.routing.arena.RoutingArena`
    contract, so handing the same arena to two concurrent jobs is safe.
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

    # -- arenas --------------------------------------------------------

    def get_arena(self, env_key: str) -> RoutingArena | None:
        """The warmed arena for environment ``env_key``, or None."""
        with self._lock:
            value = self._get(("arena", env_key))
            if value is None:
                self._arena_misses += 1
                get_registry().counter("service.cache.arena_misses").inc()
                return None
            self._arena_hits += 1
            get_registry().counter("service.cache.arena_hits").inc()
            return value  # type: ignore[return-value]

    def put_arena(self, env_key: str, arena: RoutingArena) -> None:
        """Publish a warmed arena (charged at its real ``nbytes``).

        Callers must only publish arenas for state-*independent*
        policies (``arena.state_key is None``); a state-dependent arena
        is only valid for one deployment state and sharing it would be
        a silent-wrong-results bug, so it is refused loudly.
        """
        if arena.state_key is not None:
            raise ValueError(
                "refusing to cache a state-dependent arena "
                f"(state_key={arena.state_key!r}); only state-independent "
                "policies share arenas across jobs"
            )
        with self._lock:
            self._put(("arena", env_key), arena, max(arena.nbytes, 1))

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
