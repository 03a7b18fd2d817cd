"""Cache of the routing structures of a destination list on a fixed graph.

Under state-independent policies (Observation C.1: SecP ranked last)
the structures are reusable across deployment states, so a simulation
computes them once and keeps them for every round and every projected
state.  What the cache stores is pooled
(:class:`~repro.routing.tree.StructurePools`): one pools object per
destination chunk while it fills, their concatenation — the
:class:`~repro.routing.arena.RoutingArena` — once a round needs them
all.  A :class:`~repro.routing.tree.DestRouting` is a view, made when a
per-destination consumer asks :meth:`RoutingCache.dest_routing` for one.

The cache is bound to one :class:`~repro.routing.policy.RoutingPolicy`
for its lifetime; the policy name travels with every structure it hands
out (``StructurePools.policy``, ``DestRouting.policy``), and installing
structures built under a different policy raises — mixed-policy reuse is
a silent-wrong-results bug, not a recoverable condition.  For
*state-dependent* policies (``security_1st`` / ``security_2nd``) the
structures are additionally keyed by the deployment state:
:meth:`RoutingCache.ensure_state` drops and rebuilds everything when
the ``(node_secure, breaks_ties)`` pair changes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.routing import backends as kernel_backends
from repro.routing.arena import RoutingArena
from repro.routing.compiled import CompiledGraph
from repro.routing.policy import RoutingPolicy, get_policy
from repro.routing.tree import DestRouting, StructurePools, chunk_rows, destination_chunks
from repro.runtime.guard import current_guard
from repro.telemetry.metrics import get_registry
from repro.topology.graph import ASGraph


def state_digest(node_secure: np.ndarray, breaks_ties: np.ndarray) -> str:
    """Short stable digest of a deployment state (for cache/arena keys)."""
    h = hashlib.blake2b(digest_size=8)
    h.update(np.asarray(node_secure, dtype=bool).tobytes())
    h.update(np.asarray(breaks_ties, dtype=bool).tobytes())
    return h.hexdigest()


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Public accounting for one :class:`RoutingCache` instance.

    ``hits`` and ``misses`` count :meth:`RoutingCache.dest_routing`
    lookups and the destinations a build had to cover; nothing on the
    warm, arena or round path looks a destination up.  ``warm_seconds``
    sums in-process build time plus any parallel warm wall time noted
    via :meth:`RoutingCache.note_warm_time`; ``installs`` counts
    structures computed elsewhere (worker processes) and shipped in,
    whose build time lives in the workers' telemetry snapshots rather
    than here.  ``state_rebuilds`` counts
    full drop-and-rebuild cycles triggered by deployment-state changes
    (always 0 for state-independent policies); ``arena_bytes`` is the
    pooled arena's footprint (0 until one is built).
    """

    hits: int
    misses: int
    builds: int
    installs: int
    warm_seconds: float
    cached: int
    total: int
    policy: str = "security_3rd"
    state_rebuilds: int = 0
    arena_bytes: int = 0
    backend: str = "numpy"

    @property
    def cached_fraction(self) -> float:
        """Fraction of this cache's destinations already computed."""
        return self.cached / self.total if self.total else 1.0

    @property
    def hit_rate(self) -> float:
        """Hits over all lookups (NaN-free: 0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class RoutingCache:
    """The pooled routing structures of ``destinations``, built lazily.

    Parameters
    ----------
    graph:
        The (already final) AS graph.  Mutating the graph after creating
        a cache invalidates it; create a new cache instead.
    destinations:
        Restrict the cache to these destination indices (default: all).
        Experiments on large graphs may sample destinations; utilities
        are then computed over the sampled destination set only.
    policy:
        A :class:`~repro.routing.policy.RoutingPolicy` or registry name
        / alias (``"security_3rd"`` default; see
        :func:`repro.routing.policy.available_policies`).
    backend:
        Kernel backend name for the batched tree/weight/fixpoint kernels
        (:mod:`repro.routing.backends`).  ``None`` resolves through the
        ``SBGP_KERNEL_BACKEND`` env var, else ``auto``: cext when it
        loads, numpy otherwise (a logged, counted fallback); an unusable
        explicitly named compiled backend degrades to numpy via the
        resource guard's ``compiled_to_numpy`` rung.  Resolved once
        here, so every arena this cache builds or adopts runs on one
        backend.
    """

    def __init__(
        self,
        graph: ASGraph,
        destinations: list[int] | None = None,
        policy: str | RoutingPolicy = "security_3rd",
        backend: str | None = None,
    ):
        self.policy = get_policy(policy)
        self.backend_name = kernel_backends.resolve_backend(backend)
        self.graph = graph
        self.compiled = CompiledGraph.from_graph(graph)
        self.destinations = list(range(graph.n)) if destinations is None else list(destinations)
        self._dest_pos = {d: k for k, d in enumerate(self.destinations)}
        #: destinations per chunk: the cache's pools cover runs of
        #: ``destinations`` cut where :func:`destination_chunks` cuts
        #: them, so a miss builds its chunk once and the arena is the
        #: concatenation of the chunks
        self.rows_per_chunk = chunk_rows(self.compiled)
        #: per chunk, ``(pools, slot of the chunk's first destination)``
        #: once built or installed; all None again once the arena holds them
        self._parts: list[tuple[StructurePools, int] | None] = [None] * len(
            range(0, len(self.destinations), self.rows_per_chunk)
        )
        self._arena: RoutingArena | None = None
        # deployment state the structures were built under; only
        # meaningful for state-dependent policies (None = all-insecure)
        self._node_secure: np.ndarray | None = None
        self._breaks_ties: np.ndarray | None = None
        self._state_key: str | None = None
        if self.policy.state_dependent:
            # structures built before any ensure_state() call use the
            # all-insecure default; key it explicitly so round 0 of a
            # pre-warmed simulation is not a spurious rebuild
            empty = np.zeros(graph.n, dtype=bool)
            self._state_key = state_digest(empty, empty)
        self._hits = 0
        self._misses = 0
        self._builds = 0
        self._installs = 0
        self._state_rebuilds = 0
        self._warm_seconds = 0.0
        get_registry().gauge(f"routing.policy.active.{self.policy.name}").set(1)

    @property
    def n(self) -> int:
        """Number of nodes in the underlying graph."""
        return self.graph.n

    @property
    def policy_name(self) -> str:
        """Canonical registry name of this cache's policy."""
        return self.policy.name

    @property
    def state_key(self) -> str | None:
        """Digest of the deployment state the structures are built for.

        ``None`` for state-independent policies (one structure serves
        every state); for state-dependent policies this starts at the
        all-insecure digest and tracks :meth:`ensure_state`.
        """
        return self._state_key

    def build_pools(self, dests: Sequence[int]) -> StructurePools:
        """The structures of ``dests`` under this cache's policy,
        deployment state and backend, with the accounting of every
        in-process build — built, not kept.  Parallel warmers run this
        in their workers (:func:`repro.parallel.engine.parallel_warm_cache`).
        """
        registry = get_registry()
        start = time.perf_counter()
        pools = self.policy.build_pools(
            self.graph,
            dests,
            self.compiled,
            node_secure=self._node_secure,
            breaks_ties=self._breaks_ties,
            backend=self.backend_name,
        )
        elapsed = time.perf_counter() - start
        self._misses += len(dests)
        self._builds += len(dests)
        self._warm_seconds += elapsed
        registry.counter("routing.cache.misses").inc(len(dests))
        registry.counter("routing.tree_builds").inc(len(dests))
        hist = registry.histogram("routing.tree_build_seconds")
        for _ in dests:  # one observation per tree, whatever built it
            hist.observe(elapsed / len(dests))
        return pools

    def arena_of(self, parts: Sequence[StructurePools]) -> RoutingArena:
        """``parts`` concatenated into an arena that carries this
        cache's policy, deployment state and backend."""
        return RoutingArena.build(
            self.graph.n,
            parts,
            policy=self.policy.name,
            state_key=self._state_key,
            backend=self.backend_name,
        )

    def _chunk(self, index: int) -> range:
        """Positions in ``destinations`` of chunk ``index``."""
        start = index * self.rows_per_chunk
        return range(start, min(start + self.rows_per_chunk, len(self.destinations)))

    def pools_for(self, dests: Iterable[int]) -> Iterator[tuple[StructurePools, np.ndarray]]:
        """``(pools, slots)`` pairs that together hold the structures of
        ``dests``: the arena's rows for this cache's own destinations,
        then chunk pools built for the others — a destination outside
        the cache's list is answered, never kept."""
        dests = list(dests)
        own = [self._dest_pos[d] for d in dests if d in self._dest_pos]
        if own:
            yield self.ensure_arena(), np.asarray(own, dtype=np.int64)
        others = [d for d in dests if d not in self._dest_pos]
        for chunk in destination_chunks(self.compiled, others):
            yield self.build_pools(chunk), np.arange(len(chunk))

    def dest_routing(self, dest: int) -> DestRouting:
        """The :class:`DestRouting` view for ``dest``, for consumers
        that work one destination at a time (its chunk is built on
        first use)."""
        pos = self._dest_pos.get(dest)
        if pos is None:
            return self.build_pools([dest]).view(0)
        index, offset = divmod(pos, self.rows_per_chunk)
        if self._arena is None and self._parts[index] is None:
            self._build_chunk(index)
        else:
            self._hits += 1
            get_registry().counter("routing.cache.hits").inc()
        if self._arena is not None:
            return self._arena.view(pos)
        pools, base = self._parts[index]
        return pools.view(base + offset)

    def _build_chunk(self, index: int) -> None:
        chunk = self._chunk(index)
        self._parts[index] = (
            self.build_pools(self.destinations[chunk.start:chunk.stop]), 0
        )

    def warm(self) -> None:
        """Build every chunk of ``destinations`` not built yet.

        For a state-dependent policy a chunk is one batched fixpoint
        run.  The deadline is checked between chunks: finished chunks
        stay cached, so an expired budget resumes where warming stopped.
        """
        if self._arena is not None:
            return
        for index, part in enumerate(self._parts):
            if part is None:
                current_guard().check_deadline("cache warm")
                self._build_chunk(index)

    def ensure_state(
        self, node_secure: np.ndarray, breaks_ties: np.ndarray
    ) -> bool:
        """Make cached structures valid for this deployment state.

        No-op (returns False) for state-independent policies and when
        the state matches what is already cached.  Otherwise every
        structure — chunk pools and the arena — is dropped and rebuilt
        under the new state; returns True.  Callers on the round loop
        invoke this before :meth:`ensure_arena`.
        """
        if not self.policy.state_dependent:
            return False
        key = state_digest(node_secure, breaks_ties)
        if key == self._state_key:
            return False
        self._node_secure = np.array(node_secure, dtype=bool)
        self._breaks_ties = np.array(breaks_ties, dtype=bool)
        self._state_key = key
        had_arena = self._arena is not None
        if had_arena or any(self._parts):
            self._state_rebuilds += 1
            get_registry().counter("routing.cache.state_rebuilds").inc()
        self._parts = [None] * len(self._parts)
        self._arena = None
        if had_arena:
            self.ensure_arena()
        return True

    @property
    def arena(self) -> RoutingArena | None:
        """The pooled routing arena, if one has been built (else None)."""
        return self._arena

    def ensure_arena(self) -> RoutingArena:
        """Warm everything and concatenate it into a :class:`RoutingArena`.

        A warm leaves a handful of chunk pools; the arena takes them in
        order, pools their tie-break keys, and the chunk pools are
        released.  Idempotent after the first call; a shared arena
        installed via :meth:`install_arena` is reused as-is.
        """
        if self._arena is None:
            self.warm()
            # a part that spans several chunks is listed under each
            self._adopt_arena(
                self.arena_of([pools for pools, base in self._parts if base == 0])
            )
        return self._arena

    def _check_provenance(self, pools: RoutingArena, dests: Sequence[int]) -> None:
        if pools.dest_ids.tolist() != list(dests):
            raise ValueError("arena destinations do not match this cache")
        if pools.policy != self.policy.name:
            raise ValueError(
                f"arena was built under policy {pools.policy!r}; this cache "
                f"uses {self.policy.name!r} (mixed-policy reuse is invalid)"
            )
        if pools.state_key != self._state_key:
            raise ValueError(
                f"arena was built for deployment state {pools.state_key!r}; "
                f"this cache is at {self._state_key!r}"
            )

    def install_arena(self, arena: RoutingArena) -> None:
        """Adopt a pre-built arena (e.g. attached from shared memory).

        The arena's slot order must match this cache's ``destinations``
        and it must have been built under the same policy (and, for
        state-dependent policies, the same deployment state); every
        destination is then considered cached (counted as installs,
        like structures shipped in from parallel warm workers).
        """
        self._check_provenance(arena, self.destinations)
        # The backend tag is execution metadata, not structure: kernels
        # are bit-identical across backends, so an arena shipped from a
        # peer simply runs on *this* cache's resolved backend.
        arena.backend = self.backend_name
        self._installs += arena.num_dests
        self._adopt_arena(arena)

    def _adopt_arena(self, arena: RoutingArena) -> None:
        self._arena = arena
        self._parts = [None] * len(self._parts)
        get_registry().gauge("routing.arena.bytes").set(arena.nbytes)

    def install_pools(self, start: int, pools: RoutingArena) -> None:
        """Adopt the structures of ``destinations[start:start +
        pools.num_dests]`` built elsewhere: the entry point for parallel
        warmers, whose workers ship one partition arena per run of
        :meth:`pending_runs`.  The run must cover whole chunks and carry
        this cache's policy and deployment state.
        """
        rows, stop = self.rows_per_chunk, start + pools.num_dests
        if start % rows or (stop % rows and stop != len(self.destinations)):
            raise ValueError(f"destinations[{start}:{stop}] does not cover whole chunks")
        self._check_provenance(pools, self.destinations[start:stop])
        self._installs += pools.num_dests
        for base in range(0, pools.num_dests, rows):
            self._parts[(start + base) // rows] = (pools, base)

    def note_warm_time(self, seconds: float) -> None:
        """Attribute externally-measured warm wall time to this cache.

        Called by :func:`repro.parallel.engine.parallel_warm_cache` with
        the wall time of the whole warm map, since installed structures
        carry no build timing of their own.
        """
        self._warm_seconds += seconds

    def pending_runs(self) -> list[tuple[int, int]]:
        """Maximal ``(start, stop)`` runs of positions in
        ``destinations`` whose chunks are not built yet, in order."""
        if self._arena is not None:
            return []
        runs: list[tuple[int, int]] = []
        for index, part in enumerate(self._parts):
            if part is None:
                chunk = self._chunk(index)
                if runs and runs[-1][1] == chunk.start:
                    runs[-1] = (runs[-1][0], chunk.stop)
                else:
                    runs.append((chunk.start, chunk.stop))
        return runs

    def stats(self) -> CacheStats:
        """Current :class:`CacheStats` (hits, misses, warm time, fill)."""
        total = len(self.destinations)
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            builds=self._builds,
            installs=self._installs,
            warm_seconds=self._warm_seconds,
            cached=total - sum(stop - start for start, stop in self.pending_runs()),
            total=total,
            policy=self.policy.name,
            state_rebuilds=self._state_rebuilds,
            arena_bytes=self._arena.nbytes if self._arena is not None else 0,
            backend=self.backend_name,
        )

    @property
    def cls_matrix(self) -> np.ndarray:
        """int8 matrix ``[len(destinations), n]`` of route classes.

        Row ``k`` corresponds to ``destinations[k]``.  For
        state-dependent policies the matrix reflects the state last
        passed to :meth:`ensure_state`.
        """
        return self.ensure_arena().cls

    def position_of(self, dest: int) -> int | None:
        """Row index of ``dest`` within ``destinations`` (None if absent)."""
        return self._dest_pos.get(dest)

    def dest_pos(self, dest: int) -> int:
        """Row index of ``dest`` within ``destinations``."""
        try:
            return self._dest_pos[dest]
        except KeyError:
            raise KeyError(f"destination {dest} not in cache") from None
