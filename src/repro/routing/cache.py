"""Cache of the routing structures of a destination list on a fixed graph.

Under state-independent policies (Observation C.1: SecP ranked last)
the structures are reusable across deployment states, so a simulation
computes them once and keeps them for every round and every projected
state.  The cache fills one way: a warm builds destination chunks into
the :class:`~repro.routing.tree.PoolsAssembly` that becomes the
:class:`~repro.routing.arena.RoutingArena` once a round needs them all.
Consumers read ``(pools, slots)`` pairs (:meth:`RoutingCache.pools_for`);
one that works a destination at a time takes the arena's
:class:`~repro.routing.tree.DestRouting` view of its slot.

The cache is bound to one :class:`~repro.routing.policy.RoutingPolicy`
for its lifetime, and builds every structure it holds itself; the
policy name travels with every structure it hands out
(``StructurePools.policy``, ``DestRouting.policy``).  For
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
from repro.routing.tree import (
    PoolsAssembly,
    StructurePools,
    chunk_rows,
    destination_chunks,
)
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

    ``builds`` counts the destinations a build had to cover, whether a
    warm kept them or :meth:`RoutingCache.pools_for` answered them;
    ``warm_seconds`` sums build time.  ``state_rebuilds`` counts
    full drop-and-rebuild cycles triggered by deployment-state changes
    (always 0 for state-independent policies); ``arena_bytes`` is the
    pooled arena's footprint (0 until one is built).
    """

    builds: int
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
        #: destinations per chunk: the cache builds runs of
        #: ``destinations`` cut where :func:`destination_chunks` cuts
        #: them, and the arena is assembled from the chunks
        self.rows_per_chunk = chunk_rows(self.compiled)
        #: the arena under construction: the chunks a warm built
        self._assembly: PoolsAssembly | None = None
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
        self._builds = 0
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
        build — built, not kept."""
        start = time.perf_counter()
        pools = self.policy.build_pools(self.graph, dests, self.compiled, **self._build_args())
        self._account(len(dests), time.perf_counter() - start)
        return pools

    def _build_args(self) -> dict:
        return {
            "node_secure": self._node_secure,
            "breaks_ties": self._breaks_ties,
            "backend": self.backend_name,
        }

    def _account(self, dests: int, elapsed: float) -> None:
        """Count a build of ``dests`` destinations that took ``elapsed``."""
        registry = get_registry()
        self._builds += dests
        self._warm_seconds += elapsed
        registry.counter("routing.tree_builds").inc(dests)
        hist = registry.histogram("routing.tree_build_seconds")
        for _ in range(dests):  # one observation per tree, whatever built it
            hist.observe(elapsed / dests)

    def _arena_args(self) -> dict:
        return {
            "policy": self.policy.name,
            "state_key": self._state_key,
            "backend": self.backend_name,
        }

    def _chunks(self) -> Iterator[range]:
        """Positions in ``destinations`` of each chunk, in order."""
        total = len(self.destinations)
        for start in range(0, total, self.rows_per_chunk):
            yield range(start, min(start + self.rows_per_chunk, total))

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

    def _assembled(self, chunk: range) -> bool:
        """Whether a warm built ``chunk`` into the assembly."""
        return self._assembly is not None and self._assembly.has(chunk.start)

    def warm(self) -> None:
        """Build every chunk of ``destinations`` not built yet, into the
        arena's assembly: on a tier that can, each chunk's labels go
        straight into the arena's rows and its pools wait for
        :meth:`ensure_arena`.

        For a state-dependent policy a chunk is one batched fixpoint
        run.  The deadline is checked between chunks: finished chunks
        stay cached, so an expired budget resumes where warming stopped.
        """
        if self._arena is not None:
            return
        if self._assembly is None:
            self._assembly = PoolsAssembly(self.graph.n, self.destinations)
        for chunk in self._chunks():
            if not self._assembled(chunk):
                current_guard().check_deadline("cache warm")
                dests = np.asarray(self.destinations[chunk.start:chunk.stop], dtype=np.int64)
                start = time.perf_counter()
                self.policy.build_into(
                    self._assembly, chunk.start, self.graph, dests, self.compiled,
                    **self._build_args(),
                )
                self._account(len(dests), time.perf_counter() - start)

    def ensure_state(
        self, node_secure: np.ndarray, breaks_ties: np.ndarray
    ) -> bool:
        """Make cached structures valid for this deployment state.

        No-op (returns False) for state-independent policies and when
        the state matches what is already cached.  Otherwise every
        structure — the warm's chunks and the arena — is dropped and rebuilt
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
        if had_arena or any(map(self._assembled, self._chunks())):
            self._state_rebuilds += 1
            get_registry().counter("routing.cache.state_rebuilds").inc()
        self._assembly = None
        self._arena = None
        if had_arena:
            self.ensure_arena()
        return True

    @property
    def arena(self) -> RoutingArena | None:
        """The pooled routing arena, if one has been built (else None)."""
        return self._arena

    def ensure_arena(self) -> RoutingArena:
        """Warm everything and finish it into a :class:`RoutingArena`.

        The warm leaves the chunks in an assembly whose dense fields
        are already the arena's; the pools are allocated once, at their
        final size, each chunk's slices filled, and the chunks released.
        Idempotent after the first call.
        """
        if self._arena is None:
            self.warm()
            start = time.perf_counter()
            arena = RoutingArena.assembled(self._assembly, **self._arena_args())
            self._warm_seconds += time.perf_counter() - start
            self._arena, self._assembly = arena, None
            get_registry().gauge("routing.arena.bytes").set(arena.nbytes)
        return self._arena

    def pending_runs(self) -> list[tuple[int, int]]:
        """Maximal ``(start, stop)`` runs of positions in
        ``destinations`` whose chunks are not built yet, in order."""
        if self._arena is not None:
            return []
        runs: list[tuple[int, int]] = []
        for chunk in self._chunks():
            if not self._assembled(chunk):
                if runs and runs[-1][1] == chunk.start:
                    runs[-1] = (runs[-1][0], chunk.stop)
                else:
                    runs.append((chunk.start, chunk.stop))
        return runs

    def stats(self) -> CacheStats:
        """Current :class:`CacheStats` (builds, warm time, fill)."""
        total = len(self.destinations)
        return CacheStats(
            builds=self._builds,
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
