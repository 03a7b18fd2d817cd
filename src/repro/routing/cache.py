"""Cache of per-destination routing structures for a fixed graph.

Under state-independent policies (Observation C.1: SecP ranked last)
everything in :class:`DestRouting` is reusable across deployment
states, so a simulation computes it once per destination and keeps it
for every round and every projected state.  The cache also exposes the
dense class matrix (``cls_matrix[d, i]`` = route class of node ``i``
toward destination ``d``) that the projection engine uses to filter
destinations.

The cache is bound to one :class:`~repro.routing.policy.RoutingPolicy`
for its lifetime; the policy name travels with every structure it hands
out (``DestRouting.policy``, ``RoutingArena.policy``), and installing a
structure built under a different policy raises — mixed-policy reuse is
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
from typing import Callable

import numpy as np

from repro.routing import backends as kernel_backends
from repro.routing.arena import RoutingArena
from repro.routing.compiled import CompiledGraph
from repro.routing.policy import RoutingPolicy, get_policy
from repro.routing.tree import DestRouting, destination_chunks
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

    ``warm_seconds`` sums in-process tree-build time plus any parallel
    warm wall time noted via :meth:`RoutingCache.note_warm_time`;
    ``installs`` counts trees computed elsewhere (worker processes) and
    shipped in, whose per-tree build time lives in the workers'
    telemetry snapshots rather than here.  ``state_rebuilds`` counts
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
    """Lazily computed :class:`DestRouting` per destination.

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
    transform:
        Optional post-processor applied to each computed
        :class:`DestRouting` (e.g. the sticky-primary restriction of
        :func:`repro.routing.policy.restrict_to_primary` with a
        custom mask — the registered ``sticky_primaries`` policy covers
        the standard §8.3 configuration without this hook).
    backend:
        Kernel backend name for the batched tree/weight/fixpoint kernels
        (:mod:`repro.routing.backends`).  ``None`` resolves through the
        ``SBGP_KERNEL_BACKEND`` env var (default ``numpy``); an unusable
        compiled backend degrades to numpy via the resource guard's
        ``compiled_to_numpy`` rung.  Resolved once here, so every arena
        this cache builds or adopts runs on one backend.
    """

    def __init__(
        self,
        graph: ASGraph,
        destinations: list[int] | None = None,
        policy: str | RoutingPolicy = "security_3rd",
        transform: Callable[[DestRouting], DestRouting] | None = None,
        backend: str | None = None,
    ):
        self.policy = get_policy(policy)
        self.transform = transform
        self.backend_name = kernel_backends.resolve_backend(backend)
        self.graph = graph
        self.compiled = CompiledGraph.from_graph(graph)
        self.destinations = list(range(graph.n)) if destinations is None else list(destinations)
        self._dest_pos = {d: k for k, d in enumerate(self.destinations)}
        self._routing: dict[int, DestRouting] = {}
        self._arena: RoutingArena | None = None
        self._cls_matrix: np.ndarray | None = None
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

    def current_state(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``(node_secure, breaks_ties)`` the structures are built under.

        ``(None, None)`` means the all-insecure default (and is the
        permanent answer for state-independent policies).  Parallel
        warmers ship this to worker processes so remotely-built
        structures match the cache's state.
        """
        return self._node_secure, self._breaks_ties

    def _build(self, dests: list[int]) -> None:
        """Build (transform, tag) and cache ``dests`` — a chunk or one lazy
        lookup, all misses — with the accounting of every in-process build."""
        registry = get_registry()
        start = time.perf_counter()
        routings = self.policy.build_many(
            self.graph,
            dests,
            self.compiled,
            node_secure=self._node_secure,
            breaks_ties=self._breaks_ties,
            backend=self.backend_name,
        )
        if self.transform is not None:
            routings = [self.transform(dr) for dr in routings]
            for dr in routings:
                dr.policy = self.policy.name
        elapsed = time.perf_counter() - start
        self._routing.update(zip(dests, routings))
        self._misses += len(dests)
        self._builds += len(dests)
        self._warm_seconds += elapsed
        registry.counter("routing.cache.misses").inc(len(dests))
        registry.counter("routing.tree_builds").inc(len(dests))
        hist = registry.histogram("routing.tree_build_seconds")
        for _ in dests:  # one observation per tree, whatever built it
            hist.observe(elapsed / len(dests))

    def dest_routing(self, dest: int) -> DestRouting:
        """The :class:`DestRouting` for ``dest`` (computed on first use)."""
        if dest not in self._routing:
            self._build([dest])
        else:
            self._hits += 1
            get_registry().counter("routing.cache.hits").inc()
        return self._routing[dest]

    def warm(self) -> None:
        """Precompute every destination in ``destinations``.

        Structures are built a chunk of destinations at a time
        (:func:`~repro.routing.tree.destination_chunks`; for a
        state-dependent policy a chunk is one batched fixpoint run),
        with the deadline checked between chunks: finished chunks stay
        cached, so an expired budget resumes where warming stopped.
        """
        for chunk in destination_chunks(self.compiled, self.pending_destinations()):
            current_guard().check_deadline("cache warm")
            self._build(chunk)

    def ensure_state(
        self, node_secure: np.ndarray, breaks_ties: np.ndarray
    ) -> bool:
        """Make cached structures valid for this deployment state.

        No-op (returns False) for state-independent policies and when
        the state matches what is already cached.  Otherwise every
        structure — per-destination routings, the arena, the class
        matrix — is dropped and rebuilt under the new state; returns
        True.  Callers on the round loop invoke this before
        :meth:`ensure_arena`.
        """
        if not self.policy.state_dependent:
            return False
        key = state_digest(node_secure, breaks_ties)
        if key == self._state_key:
            return False
        self._node_secure = np.array(node_secure, dtype=bool)
        self._breaks_ties = np.array(breaks_ties, dtype=bool)
        self._state_key = key
        had_routings = bool(self._routing)
        had_arena = self._arena is not None
        self._routing.clear()
        self._arena = None
        self._cls_matrix = None
        if had_routings or had_arena:
            self._state_rebuilds += 1
            get_registry().counter("routing.cache.state_rebuilds").inc()
        if had_arena:
            self.ensure_arena()
        return True

    @property
    def arena(self) -> RoutingArena | None:
        """The pooled routing arena, if one has been built (else None)."""
        return self._arena

    def ensure_arena(self) -> RoutingArena:
        """Warm everything and pack it into a :class:`RoutingArena`.

        A warm leaves views of a handful of chunk pools, which the arena
        joins chunk by chunk; the cached :class:`DestRouting` objects are
        then replaced by zero-copy views into the arena pools and the
        chunk pools are released.  Idempotent after the first call; a
        shared arena installed via :meth:`install_arena` is reused as-is.
        """
        if self._arena is None:
            self.warm()
            arena = RoutingArena.build(
                self.graph.n,
                self.destinations,
                [self._routing[d] for d in self.destinations],
                policy=self.policy.name,
                state_key=self._state_key,
                backend=self.backend_name,
            )
            self._adopt_arena(arena)
        return self._arena

    def install_arena(self, arena: RoutingArena) -> None:
        """Adopt a pre-built arena (e.g. attached from shared memory).

        The arena's slot order must match this cache's ``destinations``
        and it must have been built under the same policy (and, for
        state-dependent policies, the same deployment state); every
        destination is then considered cached (counted as installs,
        like trees shipped in from parallel warm workers).
        """
        if list(arena.dest_ids) != list(self.destinations):
            raise ValueError("arena destinations do not match this cache")
        if arena.policy != self.policy.name:
            raise ValueError(
                f"arena was built under policy {arena.policy!r}; this cache "
                f"uses {self.policy.name!r} (mixed-policy reuse is invalid)"
            )
        if arena.state_key != self._state_key:
            raise ValueError(
                f"arena was built for deployment state {arena.state_key!r}; "
                f"this cache is at {self._state_key!r}"
            )
        # The backend tag is execution metadata, not structure: kernels
        # are bit-identical across backends, so an arena shipped from a
        # peer simply runs on *this* cache's resolved backend.
        arena.backend = self.backend_name
        self._installs += arena.num_dests
        self._adopt_arena(arena)

    def _adopt_arena(self, arena: RoutingArena) -> None:
        self._arena = arena
        self._routing.update(zip(self.destinations, arena.views()))
        self._cls_matrix = arena.cls
        registry = get_registry()
        registry.gauge("routing.arena.bytes").set(arena.nbytes)

    def install(self, dest: int, routing: DestRouting) -> None:
        """Install a :class:`DestRouting` computed elsewhere.

        Public entry point for parallel warmers (the per-destination
        structures are computed in worker processes and shipped back).
        The structure must carry this cache's policy name (the worker
        builders tag it); ``dest`` must be one of ``destinations``.
        """
        if dest not in self._dest_pos:
            raise KeyError(f"destination {dest} not in cache")
        if routing.policy != self.policy.name:
            raise ValueError(
                f"routing for destination {dest} was built under policy "
                f"{routing.policy!r}; this cache uses {self.policy.name!r}"
            )
        self._installs += 1
        self._routing[dest] = routing

    def note_warm_time(self, seconds: float) -> None:
        """Attribute externally-measured warm wall time to this cache.

        Called by :func:`repro.parallel.engine.parallel_warm_cache` with
        the wall time of the whole warm map, since installed trees carry
        no per-tree timing of their own.
        """
        self._warm_seconds += seconds

    def stats(self) -> CacheStats:
        """Current :class:`CacheStats` (hits, misses, warm time, fill)."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            builds=self._builds,
            installs=self._installs,
            warm_seconds=self._warm_seconds,
            cached=len(self._routing),
            total=len(self.destinations),
            policy=self.policy.name,
            state_rebuilds=self._state_rebuilds,
            arena_bytes=self._arena.nbytes if self._arena is not None else 0,
            backend=self.backend_name,
        )

    def is_cached(self, dest: int) -> bool:
        """True if ``dest`` has already been computed or installed."""
        return dest in self._routing

    def pending_destinations(self) -> list[int]:
        """Destinations not yet computed, in ``destinations`` order."""
        return [d for d in self.destinations if d not in self._routing]

    @property
    def cls_matrix(self) -> np.ndarray:
        """int8 matrix ``[len(destinations), n]`` of route classes.

        Row ``k`` corresponds to ``destinations[k]``.  For
        state-dependent policies the matrix reflects the state last
        passed to :meth:`ensure_state`.
        """
        if self._cls_matrix is None:
            mat = np.empty((len(self.destinations), self.graph.n), dtype=np.int8)
            for k, dest in enumerate(self.destinations):
                mat[k] = self.dest_routing(dest).cls
            self._cls_matrix = mat
        return self._cls_matrix

    def position_of(self, dest: int) -> int | None:
        """Row index of ``dest`` within ``destinations`` (None if absent)."""
        return self._dest_pos.get(dest)

    def dest_pos(self, dest: int) -> int:
        """Row index of ``dest`` within ``destinations``."""
        try:
            return self._dest_pos[dest]
        except KeyError:
            raise KeyError(f"destination {dest} not in cache") from None
