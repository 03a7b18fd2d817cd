"""Pooled structure-of-arrays routing arena + batched tree kernel.

:class:`RoutingArena` holds the routing structures of *all* of a cache's
destinations in a handful of contiguous pools with a per-destination
offset table — no Python object per destination, and routing-state
sweeps that loop over a handful of levels instead of ``n_dests x
n_levels`` kernel launches:

- ``order_pool`` / ``level_pool`` / ``indptr_pool`` / ``cands_pool``:
  the CSR structures of every destination, concatenated, with
  ``*_ptr`` offset tables (``order_ptr[k]:order_ptr[k+1]`` is slot
  ``k``'s slice);
- ``cls`` / ``lengths`` / ``row_of``: dense ``[num_dests, n]`` matrices
  (``cls`` doubles as the projection engine's class matrix).

Every tiebreak set is stored in tie-break order, ascending ``(
tie_hash(u, v) & ~POS_MASK, v)`` (:func:`~repro.routing.tree.tie_order`):
the hash depends on neither the destination nor the deployment state,
so the order is fixed when the set is built.  TB's pick is a row's
first candidate and SecP's its first secure one; no pool holds
tie-break keys and no tree kernel hashes.

That layout is :class:`~repro.routing.tree.StructurePools`, what the
structure builder emits per destination chunk; the arena is a cache's
chunks assembled into arrays allocated once, at their final size
(:class:`~repro.routing.tree.PoolsAssembly`).  ``view(k)`` is a zero-copy
:class:`~repro.routing.tree.DestRouting` over the pools, for the
consumers that work one destination at a time.

On top of the pools, :func:`compute_trees_batched` resolves *many*
destinations in one call and, given the node weights, sums their
subtrees in the same call; :func:`subtree_weights_batched` sums them
on their own.  Every tier is handed the pools themselves plus the
batch's slots.  A slot's rows are sorted by ``(path length, node)``
and every tiebreak candidate sits one level below its row, so the
cext tier resolves a batch row by walking its slot's rows in pool
order, level by level, in place.  Only the numpy tier, whose level body
is a whole-level gather across destinations, stacks the pools
level-major; that mirror is its own, built and cached in
:mod:`repro.routing.backends.numpy_impl`, and no other tier holds a
second copy of the arena.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.routing import backends as kernel_backends
from repro.routing.paths import RoutingTree
from repro.routing.tree import ARENA_FIELDS, PoolsAssembly, StructurePools
from repro.telemetry.metrics import get_registry


@dataclasses.dataclass
class BatchedTrees:
    """Resolved routing trees for a batch of destination slots.

    Row ``i`` of each matrix is the tree for ``slots[i]`` (row
    ``rows[i]`` when the call named output rows); rows are zero-copy
    views, so :meth:`tree` materialises a per-destination
    :class:`RoutingTree` without allocation.
    """

    dest_ids: np.ndarray      # int32[B]; dense destination node per row
    slots: np.ndarray         # int64[B]; arena slot per row
    choice: np.ndarray        # int32[B, n]
    secure: np.ndarray        # bool[B, n]
    any_secure: np.ndarray    # bool[B, n]
    #: float64[B, n] subtree weights, when the call was given node weights
    weights: np.ndarray | None = None

    def tree(self, i: int) -> RoutingTree:
        """The :class:`RoutingTree` of batch row ``i`` (views, no copy)."""
        return RoutingTree(
            dest=int(self.dest_ids[i]),
            choice=self.choice[i],
            secure=self.secure[i],
            any_secure_candidate=self.any_secure[i],
        )


@dataclasses.dataclass
class TreeBuffers:
    """What :func:`compute_trees_batched` writes for a batch of ``B``
    rows of ``n`` nodes, allocated by the caller that reuses them: the
    three ``[B, n]`` outputs.  The kernels write every entry, so they
    hold whatever the last call left until the next one."""

    choice: np.ndarray       # int32[B, n]
    secure: np.ndarray       # bool[B, n]
    any_secure: np.ndarray   # bool[B, n]

    @classmethod
    def empty(cls, rows: int, n: int) -> "TreeBuffers":
        """Buffers for ``rows`` batch rows."""
        return cls(
            choice=np.empty((rows, n), dtype=np.int32),
            secure=np.empty((rows, n), dtype=bool),
            any_secure=np.empty((rows, n), dtype=bool),
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
        super().__init__(arrays, policy)
        self.graph_n = graph_n
        #: deployment-state digest for state-dependent policies (None
        #: for state-independent structures, which serve every state)
        self.state_key = state_key
        #: kernel backend name the batched kernels dispatch through
        #: (:mod:`repro.routing.backends`); plain data, so it travels
        #: with the arena.  The *consumer* resolves it — and degrades
        #: to numpy — at call time.
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
        """The arena of chunk pools ``parts``, in order: each copied into
        arrays allocated once (:class:`~repro.routing.tree.PoolsAssembly`;
        a lone part is adopted).  ``policy`` / ``state_key`` / ``backend``
        are carried as metadata so a shipped arena can never be re-used
        under a different policy or deployment state, and so kernel
        dispatch follows the arena.
        """
        dests = np.concatenate([np.empty(0, dtype=np.int32), *(p.dest_ids for p in parts)])
        assembly = PoolsAssembly(graph_n, dests)
        lo = 0
        for part in parts:
            assembly.take(lo, part)
            lo += part.num_dests
        return cls.assembled(assembly, policy, state_key, backend)

    @classmethod
    def assembled(
        cls,
        assembly: PoolsAssembly,
        policy: str = "security_3rd",
        state_key: str | None = None,
        backend: str = "numpy",
    ) -> "RoutingArena":
        """The arena ``assembly`` finishes (metadata as :meth:`build`)."""
        arena = cls(
            assembly.n, assembly.finish(), policy=policy, state_key=state_key, backend=backend
        )
        registry = get_registry()
        registry.counter("routing.arena.builds").inc()
        registry.gauge("routing.arena.bytes").set(arena.nbytes)
        registry.gauge("routing.arena.bytes_per_entry").set(arena.bytes_per_entry)
        return arena

    # -- basic accessors -----------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total bytes of the pooled arrays (telemetry: arena bytes)."""
        return sum(getattr(self, name).nbytes for name, _ in ARENA_FIELDS)

    @property
    def bytes_per_entry(self) -> float:
        """:attr:`nbytes` per ``(destination, node)`` cell: the figure
        the arena grows by as N^2 (about 19 on the synthetic graphs)."""
        return self.nbytes / max(self.num_dests * self.graph_n, 1)

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

        The resource guard consults this forecast to decide whether to
        warm eagerly, so it deliberately over- rather than
        under-estimates.  Derived from :data:`ARENA_FIELDS`:

        - dense matrices (``cls`` / ``lengths`` int8 + ``row_of``
          int32): 6 bytes per ``(dest, node)`` cell;
        - CSR pools: ``order_pool`` + ``indptr_pool`` (int32 each) cost
          8 bytes per *reachable* node; ``cands_pool`` (int32) costs 4
          bytes per tie-break candidate (``avg_cands_per_node`` per
          reachable node — measured ~1.1-1.3 on CAIDA-like graphs, 1.5
          is the safe default).  No pool holds tie-break keys: every
          set is in tie-break order;
        - offset tables: four int64 ``*_ptr`` arrays of
          ``num_dests+1`` and the int32 ``dest_ids``.

        So a connected graph's arena costs 20 bytes per ``(dest,
        node)`` at the default 1.5 candidates a node, ~19 at the
        measured 1.2 (:attr:`bytes_per_entry`).

        ``avg_reach_fraction`` scales the per-destination reach (1.0 =
        every node reaches every destination, the connected-graph
        worst case).  ``backend`` is the resolved kernel tier the arena
        runs on.  cext reads the pools in place, so that is
        the whole forecast.  On ``numpy`` it also counts the tier's own
        level-major mirror (``numpy_impl._TreeStacks`` /
        ``_WeightStack``), resident during every round: 12 bytes per row
        for the weights stack, 20 per one-candidate row, 16 per
        multi-candidate row plus 12 per candidate of such a row.  The
        forecast only knows the totals, so it assumes the fewest
        one-candidate rows they allow (every other row holding two
        candidates), which is the costliest split.
        """
        if num_dests < 0 or n < 0:
            raise ValueError("num_dests and n must be >= 0")
        reach = num_dests * n * avg_reach_fraction
        cands = reach * avg_cands_per_node
        dense = num_dests * n * (1 + 1 + 4)  # cls/lengths int8 + row_of int32
        csr_pools = reach * (4 + 4)          # order_pool + indptr_pool int32
        cand_pools = cands * 4               # cands_pool int32
        tables = 4 * 8 * (num_dests + 1) + 4 * num_dests
        level_pool = 4 * num_dests * 24      # level_starts: one int32 per level
        total = dense + csr_pools + cand_pools + tables + level_pool
        if backend == kernel_backends.DEFAULT_BACKEND:
            one_rows = max(0.0, 2 * reach - cands)
            multi_rows = reach - one_rows
            multi_cands = cands - one_rows
            total += reach * (8 + 4)                # flat + nodes
            total += one_rows * (8 + 8 + 4)         # one_flat/one_cflat/one_cands
            total += multi_rows * (8 + 8)           # multi_flat/starts
            total += multi_cands * (8 + 4)          # edge_cflat/edge_cands
            # the segment tables (three int64[num_dests+1] per level: one
            # per sub-stack and their sum for the weights stack; 24
            # levels matches the level_pool allowance above).  They are
            # what grows with num_dests alone, so at paper scale (36K
            # dests) they are no longer noise.
            total += 3 * 8 * (num_dests + 1) * 24
        return int(total)

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


def _state_mask(mask: np.ndarray, B: int, n: int) -> np.ndarray:
    """``mask`` (``[n]``, one state for every batch row, or ``[B, n]``)
    as the flat contiguous bool array the tree kernels read: ``[n]``
    with stride 0, or ``[B * n]`` with stride ``n``."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape not in ((n,), (B, n)):
        raise ValueError(f"per-row mask must be [{n}] or [{B}, {n}], got {list(mask.shape)}")
    return np.ascontiguousarray(mask).reshape(-1)


def compute_trees_batched(
    arena: RoutingArena,
    slots: np.ndarray,
    node_secure: np.ndarray,
    breaks_ties: np.ndarray,
    *,
    out: TreeBuffers | None = None,
    rows: np.ndarray | None = None,
    node_weights: np.ndarray | None = None,
    weights_out: np.ndarray | None = None,
) -> BatchedTrees:
    """Resolve the routing trees of many destinations in one pass.

    Bit-identical to resolving each destination on its own (the
    ``compute_tree`` reference of ``tests/references.py``, asserted by
    the differential suite in ``tests/routing/test_arena.py``).  A row
    with one tiebreak candidate takes it; SecP/TB selection runs over
    the multi-candidate rows only.  Every tier is handed the arena's
    pools and ``slots`` (a full round is ``slots = arange(num_dests)``)
    and dispatches through the arena's kernel backend
    (:mod:`repro.routing.backends`): cext walks each batch
    row's slot in place, one linear pass over its rows, which run by
    path length; ``numpy`` stacks the pools level-major once (its own
    mirror), cuts a subset batch's stacks out of it and resolves each
    global level with a handful of flat numpy operations.  Both tiers
    are bit-identical (asserted by ``tests/routing/test_backends.py``).

    ``node_secure`` and ``breaks_ties`` are each ``[n]``, one deployment
    state for the whole batch, which the kernels read in place for
    every row, or ``[B, n]``, row ``i`` resolved under its own state —
    so rows of different states share a pass (and a slot may repeat
    under different states).

    With ``node_weights`` the same call also sums every tree's subtree
    weights (:func:`subtree_weights_batched`'s ``W``, bit for bit) into
    the returned ``weights``: cext weighs each batch row
    right after resolving it, while it is still in cache.  ``out`` takes
    tree buffers and ``weights_out`` a float64 ``[B, n]`` the caller
    reuses across calls: the returned matrices are those arrays,
    overwritten by the next call that gets them.  Without them every
    array is allocated here.

    ``rows`` (with ``out``) writes batch row ``i`` into row ``rows[i]``
    of ``out`` and ``weights_out`` instead, one distinct row each, and
    leaves their other rows as they are: how a round re-resolves only
    the destinations its state change can move, in place.  The
    returned matrices are then the whole buffers.
    """
    slots = np.ascontiguousarray(slots, dtype=np.int64)
    B = len(slots)
    n = arena.graph_n
    if rows is None:
        rows = np.arange(B, dtype=np.int64)
        R = B
    else:
        if out is None:
            raise ValueError("rows needs out")
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        R = len(out.choice)
        if len(rows) != B or B and (
            rows.min() < 0 or rows.max() >= R or np.bincount(rows).max() > 1
        ):
            raise ValueError(f"rows must name {B} distinct rows of the {R} in out")
    buffers = TreeBuffers.empty(B, n) if out is None else out
    if not all(
        a.shape == (R, n) and a.flags.c_contiguous
        for a in (buffers.choice, buffers.secure, buffers.any_secure)
    ):
        raise ValueError(f"tree buffers do not hold a contiguous batch of [{R}, {n}]")
    w = None
    if node_weights is not None:
        node_weights = np.ascontiguousarray(node_weights, dtype=np.float64)
        w = _weights_buffer(weights_out, R, n)
    elif weights_out is not None:
        raise ValueError("weights_out needs node_weights")
    secure_rows = _state_mask(node_secure, B, n)
    secp_rows = _state_mask(np.logical_and(node_secure, breaks_ties), B, n)
    choice, secure, any_secure = buffers.choice, buffers.secure, buffers.any_secure

    backend, kernels = kernel_backends.kernels_for(arena.backend)
    registry = get_registry()
    if registry.enabled:
        # every row but each slot's destination: the work the pools hold
        pooled = arena.order_ptr[slots + 1] - arena.order_ptr[slots] - 1
        registry.counter("routing.batched.calls").inc()
        registry.counter("routing.batched.trees").inc(B)
        registry.counter("routing.batched.levels").inc(arena.num_levels)
        registry.counter("routing.batched.rows").inc(int(pooled.sum()))
        registry.counter("routing.batched.multi_rows").inc(arena._multi_row_count(slots))
        registry.counter(f"routing.backend.calls.{backend}").inc()

    kernels.trees_stacked(
        slots, n,
        arena.order_ptr, arena.order_pool, arena.level_ptr, arena.level_pool,
        arena.indptr_ptr, arena.indptr_pool, arena.cand_ptr, arena.cands_pool,
        secure_rows, secp_rows, rows,
        choice.reshape(-1), secure.reshape(-1), any_secure.reshape(-1),
        *(() if w is None else (node_weights, w.reshape(-1))),
    )

    return BatchedTrees(
        dest_ids=arena.dest_ids[slots],
        slots=slots,
        choice=choice,
        secure=secure,
        any_secure=any_secure,
        weights=w,
    )


def _weights_buffer(out: np.ndarray | None, B: int, n: int) -> np.ndarray:
    """``out`` checked to be a contiguous float64 ``[B, n]``, or a new one."""
    if out is None:
        return np.empty((B, n), dtype=np.float64)
    if out.shape != (B, n) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"weights buffer is not a contiguous float64 [{B}, {n}]")
    return out


def subtree_weights_batched(
    arena: RoutingArena,
    slots: np.ndarray,
    choice: np.ndarray,
    weights: np.ndarray,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Weight of the subtree routing *through* each node, per tree.

    ``W[i, v] = sum of w_j over nodes j != v whose path to destination
    ``slots[i]`` traverses v``, the quantity the paper's utility
    definitions sum (Section 3.3; the worked example excludes the ISP's
    own weight).  ``choice`` is the ``[B, n]`` matrix from
    :func:`compute_trees_batched`; returns the matching ``[B, n]``
    float64 matrix: ``out``, a buffer the caller reuses, when given.
    Levels dispatch through the arena's kernel backend, like
    :func:`compute_trees_batched`, which computes the same matrix in its
    own call when given ``node_weights`` — what a caller that resolves
    the trees anyway wants.
    """
    slots = np.ascontiguousarray(slots, dtype=np.int64)
    B = len(slots)
    n = arena.graph_n
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    choice = np.ascontiguousarray(choice, dtype=np.int32)
    w = _weights_buffer(out, B, n)
    w.fill(0.0)
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
