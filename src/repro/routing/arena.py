"""Pooled structure-of-arrays routing arena + batched tree kernel.

:class:`RoutingArena` holds the routing structures of *all* of a cache's
destinations in a handful of contiguous pools with a per-destination
offset table — no Python object per destination, zero-copy transport
between processes, and routing-state sweeps that loop over a handful of
levels instead of ``n_dests x n_levels`` kernel launches:

- ``order_pool`` / ``level_pool`` / ``indptr_pool`` / ``cands_pool``:
  the CSR structures of every destination, concatenated, with
  ``*_ptr`` offset tables (``order_ptr[k]:order_ptr[k+1]`` is slot
  ``k``'s slice);
- ``keys_pool``: the state-independent tie-break keys (hash high bits |
  row-position low bits) for every tiebreak candidate.  These do not
  depend on the deployment state, so they are computed once, when the
  chunks are concatenated, instead of on every tree resolution;
- ``cls`` / ``lengths`` / ``row_of``: dense ``[num_dests, n]`` matrices
  (``cls`` doubles as the projection engine's class matrix).

That layout is :class:`~repro.routing.tree.StructurePools`, what the
structure builder emits per destination chunk; the arena is the
concatenation of a cache's chunks.  ``view(k)`` is a zero-copy
:class:`~repro.routing.tree.DestRouting` over the pools, for the
consumers that work one destination at a time.

On top of the pools, :func:`compute_trees_batched` resolves *many*
destinations in one call, and :func:`subtree_weights_batched` sums their
subtrees.  Every tier is handed the pools themselves plus the batch's
slots.  A slot's rows are sorted by ``(path length, node)`` and every
tiebreak candidate sits one level below its row, so the compiled tiers
resolve a batch row by walking its slot's rows in pool order, level by
level, in place.  Only the numpy tier, whose level body is a
whole-level gather across destinations, stacks the pools level-major;
that mirror is its own, built and cached in
:mod:`repro.routing.backends.numpy_impl`, and no other tier holds a
second copy of the arena.

Because every pool is a flat typed buffer, the arena also serialises to
a single byte blob (:meth:`RoutingArena.to_blocks` /
:meth:`RoutingArena.from_buffer`), which is what the shared-memory data
plane in :mod:`repro.parallel.shm` ships between processes.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.routing import backends as kernel_backends
from repro.routing.paths import RoutingTree
from repro.routing.tree import ARENA_FIELDS, StructurePools
from repro.telemetry.metrics import get_registry


@dataclasses.dataclass
class BatchedTrees:
    """Resolved routing trees for a batch of destination slots.

    Row ``i`` of each matrix is the tree for ``slots[i]``; rows are
    zero-copy views, so :meth:`tree` materialises a per-destination
    :class:`RoutingTree` without allocation.
    """

    dest_ids: np.ndarray      # int32[B]; dense destination node per row
    slots: np.ndarray         # int64[B]; arena slot per row
    choice: np.ndarray        # int32[B, n]
    secure: np.ndarray        # bool[B, n]
    any_secure: np.ndarray    # bool[B, n]

    def tree(self, i: int) -> RoutingTree:
        """The :class:`RoutingTree` of batch row ``i`` (views, no copy)."""
        return RoutingTree(
            dest=int(self.dest_ids[i]),
            choice=self.choice[i],
            secure=self.secure[i],
            any_secure_candidate=self.any_secure[i],
        )


class RoutingArena(StructurePools):
    """Pooled, contiguous routing structures for a destination set."""

    def __init__(
        self,
        graph_n: int,
        arrays: dict[str, np.ndarray],
        policy: str = "security_3rd",
        state_key: str | None = None,
        backend: str = "numpy",
    ):
        super().__init__(arrays, policy)  # install_arena refuses another policy
        self.graph_n = graph_n
        #: deployment-state digest for state-dependent policies (None
        #: for state-independent structures, which serve every state)
        self.state_key = state_key
        #: kernel backend name the batched kernels dispatch through
        #: (:mod:`repro.routing.backends`); plain data, so it travels
        #: with the arena through shared memory and job specs.  The
        #: *consuming* process resolves it — and degrades to numpy —
        #: at call time.
        self.backend = backend
        self._full_slots = np.arange(self.num_dests, dtype=np.int64)
        #: rows with several tiebreak candidates, per slot (telemetry;
        #: counted on first use)
        self._multi_rows: np.ndarray | None = None

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls,
        graph_n: int,
        parts: Sequence[StructurePools],
        policy: str = "security_3rd",
        state_key: str | None = None,
        backend: str = "numpy",
    ) -> "RoutingArena":
        """Concatenate chunk pools, in order, and pool their tie-break
        keys (:meth:`StructurePools.concat`).  ``policy`` / ``state_key``
        / ``backend`` are carried as metadata so a shipped arena can
        never be re-used under a different policy or deployment state,
        and so kernel dispatch follows the arena.
        """
        arena = cls(
            graph_n,
            cls.concat(graph_n, parts, keys=True),
            policy=policy,
            state_key=state_key,
            backend=backend,
        )
        registry = get_registry()
        registry.counter("routing.arena.builds").inc()
        registry.gauge("routing.arena.bytes").set(arena.nbytes)
        return arena

    # -- basic accessors -----------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total bytes of the pooled arrays (telemetry: arena bytes)."""
        return sum(getattr(self, name).nbytes for name, _ in ARENA_FIELDS)

    @classmethod
    def estimate_bytes(
        cls,
        num_dests: int,
        n: int,
        avg_reach_fraction: float = 1.0,
        avg_cands_per_node: float = 1.5,
        backend: str = "numpy",
    ) -> int:
        """Predict the pooled footprint of an arena *before* building it.

        The resource guard consults this forecast to plan worker counts
        and warm strategy, so it deliberately over- rather than
        under-estimates.  Derived from :data:`ARENA_FIELDS`:

        - dense matrices (``cls`` int8 + ``lengths``/``row_of`` int32):
          9 bytes per ``(dest, node)`` cell;
        - CSR pools: ``order_pool`` (int32) + ``indptr_pool`` (int64)
          cost 12 bytes per *reachable* node; ``cands_pool`` (int32) +
          ``keys_pool`` (uint64) cost 12 bytes per tie-break candidate
          (``avg_cands_per_node`` per reachable node — measured ~1.1-1.3
          on CAIDA-like graphs, 1.5 is the safe default);
        - offset tables: five int64 ``*_ptr`` arrays of ``num_dests+1``.

        ``avg_reach_fraction`` scales the per-destination reach (1.0 =
        every node reaches every destination, the connected-graph
        worst case).  ``backend`` is the resolved kernel tier the arena
        runs on.  The compiled tiers read the pools in place, so that is
        the whole forecast.  On ``numpy`` it also counts the tier's own
        level-major mirror (``numpy_impl._TreeStacks`` /
        ``_WeightStack``), resident during every round: 12 bytes per row
        for the weights stack, 20 per one-candidate row, 24 per
        multi-candidate row plus 20 per candidate of such a row.  The
        forecast only knows the totals, so it assumes the fewest
        one-candidate rows they allow (every other row holding two
        candidates), which is the costliest split.
        """
        if num_dests < 0 or n < 0:
            raise ValueError("num_dests and n must be >= 0")
        reach = num_dests * n * avg_reach_fraction
        cands = reach * avg_cands_per_node
        dense = num_dests * n * 9          # cls int8 + lengths/row_of int32
        csr_pools = reach * (4 + 8)        # order_pool int32 + indptr_pool int64
        cand_pools = cands * (4 + 8)       # cands_pool int32 + keys_pool uint64
        tables = 5 * 8 * (num_dests + 1) + 4 * num_dests
        level_pool = 4 * num_dests * 24    # level_starts: one int32 per level
        total = dense + csr_pools + cand_pools + tables + level_pool
        if backend == kernel_backends.DEFAULT_BACKEND:
            one_rows = max(0.0, 2 * reach - cands)
            multi_rows = reach - one_rows
            multi_cands = cands - one_rows
            total += reach * (8 + 4)                # flat + nodes
            total += one_rows * (8 + 8 + 4)         # one_flat/one_cflat/one_cands
            total += multi_rows * (8 + 8 + 8)       # multi_flat/starts/pick
            total += multi_cands * (8 + 4 + 8)      # edge_cflat/edge_cands/keys
            # the segment tables (three int64[num_dests+1] per level: one
            # per sub-stack and their sum for the weights stack; 24
            # levels matches the level_pool allowance above).  They are
            # what grows with num_dests alone, so at paper scale (36K
            # dests) they are no longer noise.
            total += 3 * 8 * (num_dests + 1) * 24
        return int(total)

    # -- serialisation (the shared-memory data plane) ------------------

    def to_blocks(self) -> tuple[int, list[tuple[str, str, tuple[int, ...], int]]]:
        """Layout for packing into one flat buffer.

        Returns ``(total_bytes, [(name, dtype, shape, offset), ...])``
        with every offset 16-byte aligned.
        """
        layout: list[tuple[str, str, tuple[int, ...], int]] = []
        offset = 0
        for name, dtype in ARENA_FIELDS:
            arr = getattr(self, name)
            offset = (offset + 15) & ~15
            layout.append((name, dtype, arr.shape, offset))
            offset += arr.nbytes
        return offset, layout

    def pack_into(self, buf) -> list[tuple[str, str, tuple[int, ...], int]]:
        """Copy every pool into ``buf`` (a writable buffer); returns layout."""
        total, layout = self.to_blocks()
        if len(buf) < total:
            raise ValueError(f"buffer too small: {len(buf)} < {total}")
        for name, dtype, shape, offset in layout:
            dest = np.ndarray(shape, dtype=dtype, buffer=buf, offset=offset)
            dest[...] = getattr(self, name)
        return layout

    @classmethod
    def from_buffer(
        cls,
        graph_n: int,
        buf,
        layout: list[tuple[str, str, tuple[int, ...], int]],
        copy: bool = False,
        policy: str = "security_3rd",
        state_key: str | None = None,
        backend: str = "numpy",
    ) -> "RoutingArena":
        """Rebuild an arena over ``buf`` (zero-copy views unless ``copy``)."""
        arrays: dict[str, np.ndarray] = {}
        for name, dtype, shape, offset in layout:
            arr = np.ndarray(tuple(shape), dtype=dtype, buffer=buf, offset=offset)
            arrays[name] = arr.copy() if copy else arr
        return cls(
            graph_n, arrays, policy=policy, state_key=state_key, backend=backend
        )

    # -- the batched kernels -------------------------------------------

    @property
    def num_levels(self) -> int:
        """Number of stacked levels: the longest selected route over all
        destinations (level 0, the destination itself, is not stacked)."""
        if not self.num_dests:
            return 0
        return max(int(np.diff(self.level_ptr).max()) - 2, 0)

    def _multi_row_count(self, slots: np.ndarray) -> int:
        """Rows of ``slots`` with several tiebreak candidates, the only
        ones route selection runs over (Fig 10: about a fifth).  Counted
        per slot from ``indptr_pool`` on first use."""
        if self._multi_rows is None:
            # one running count over every pooled indptr entry; a slot's
            # rows are its run's entries but the closing one
            seen = np.zeros(len(self.indptr_pool), dtype=np.int64)
            np.cumsum(np.diff(self.indptr_pool) > 1, out=seen[1:])
            self._multi_rows = seen[self.indptr_ptr[1:] - 1] - seen[self.indptr_ptr[:-1]]
        return int(self._multi_rows[slots].sum())

    def all_slots(self) -> np.ndarray:
        """``arange(num_dests)`` — the full-batch slot vector."""
        return self._full_slots


def _per_row(mask: np.ndarray, B: int, n: int) -> np.ndarray:
    """``mask`` (``[n]``, the same for every batch row, or ``[B, n]``)
    as the flat ``bool[B * n]`` the tree kernels index."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim == 1:
        return np.tile(mask, B)
    if mask.shape != (B, n):
        raise ValueError(f"per-row mask must be [{B}, {n}], got {list(mask.shape)}")
    return np.ascontiguousarray(mask).reshape(-1)


def compute_trees_batched(
    arena: RoutingArena,
    slots: np.ndarray,
    node_secure: np.ndarray,
    breaks_ties: np.ndarray,
) -> BatchedTrees:
    """Resolve the routing trees of many destinations in one pass.

    Bit-identical to resolving each destination on its own (the
    ``compute_tree`` reference of ``tests/references.py``, asserted by
    the differential suite in ``tests/routing/test_arena.py``).  A row
    with one tiebreak candidate takes it; SecP/TB selection runs over
    the multi-candidate rows only.  Every tier is handed the arena's
    pools and ``slots`` (a full round is ``slots = arange(num_dests)``)
    and dispatches through the arena's kernel backend
    (:mod:`repro.routing.backends`): the compiled tiers walk each batch
    row's slot in place, one linear pass over its rows, which run by
    path length; ``numpy`` stacks the pools level-major once (its own
    mirror), cuts a subset batch's stacks out of it and resolves each
    global level with a handful of flat numpy operations.  All backends
    are bit-identical (asserted by ``tests/routing/test_backends.py``).

    ``node_secure`` and ``breaks_ties`` are each ``[n]``, one deployment
    state for the whole batch, or ``[B, n]``, row ``i`` resolved under
    its own state — the kernels look both up per ``(batch row, node)``
    either way, so rows of different states share a pass (and a slot may
    repeat under different states).
    """
    slots = np.ascontiguousarray(slots, dtype=np.int64)
    B = len(slots)
    n = arena.graph_n
    # flat, one entry per (batch row, node): one kind of index serves
    # every lookup in the kernels
    secure_rows = _per_row(node_secure, B, n)
    secp_rows = _per_row(np.logical_and(node_secure, breaks_ties), B, n)
    choice = np.full((B, n), -1, dtype=np.int32)
    secure = np.zeros((B, n), dtype=bool)
    any_secure = np.zeros((B, n), dtype=bool)
    dest_ids = arena.dest_ids[slots]
    at_dest = np.arange(B) * n + dest_ids
    secure.reshape(-1)[at_dest] = secure_rows[at_dest]

    backend, kernels = kernel_backends.kernels_for(arena.backend)
    registry = get_registry()
    if registry.enabled:
        # every row but each slot's destination: the work the pools hold
        rows = arena.order_ptr[slots + 1] - arena.order_ptr[slots] - 1
        registry.counter("routing.batched.calls").inc()
        registry.counter("routing.batched.trees").inc(B)
        registry.counter("routing.batched.levels").inc(arena.num_levels)
        registry.counter("routing.batched.rows").inc(int(rows.sum()))
        registry.counter("routing.batched.multi_rows").inc(arena._multi_row_count(slots))
        registry.counter(f"routing.backend.calls.{backend}").inc()

    kernels.trees_stacked(
        slots, n,
        arena.order_ptr, arena.order_pool, arena.level_ptr, arena.level_pool,
        arena.indptr_ptr, arena.indptr_pool, arena.cand_ptr, arena.cands_pool,
        arena.keys_pool,
        secure_rows, secp_rows,
        choice.reshape(-1), secure.reshape(-1), any_secure.reshape(-1),
    )

    return BatchedTrees(
        dest_ids=dest_ids,
        slots=slots,
        choice=choice,
        secure=secure,
        any_secure=any_secure,
    )


def subtree_weights_batched(
    arena: RoutingArena,
    slots: np.ndarray,
    choice: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Weight of the subtree routing *through* each node, per tree.

    ``W[i, v] = sum of w_j over nodes j != v whose path to destination
    ``slots[i]`` traverses v``, the quantity the paper's utility
    definitions sum (Section 3.3; the worked example excludes the ISP's
    own weight).  ``choice`` is the ``[B, n]`` matrix from
    :func:`compute_trees_batched`; returns the matching ``[B, n]``
    float64 matrix.
    Levels dispatch through the arena's kernel backend, like
    :func:`compute_trees_batched`.
    """
    slots = np.ascontiguousarray(slots, dtype=np.int64)
    B = len(slots)
    n = arena.graph_n
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    choice = np.ascontiguousarray(choice, dtype=np.int32)
    w = np.zeros((B, n), dtype=np.float64)
    backend, kernels = kernel_backends.kernels_for(arena.backend)
    registry = get_registry()
    if registry.enabled:
        registry.counter(f"routing.backend.calls.{backend}").inc()
    kernels.weights_stacked(
        slots, n,
        arena.order_ptr, arena.order_pool, arena.level_ptr, arena.level_pool,
        choice.reshape(-1), weights, w.reshape(-1),
    )
    return w
