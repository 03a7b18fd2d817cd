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
destinations in one level-synchronous pass: same-path-length segments
are stacked across destinations (the arena builds this level-major
mirror once, on first use), so the Python-level loop runs over the
handful of **global** levels instead of ``n_dests x n_levels``.
Candidates always sit one level below their row's node, so interleaving
destinations within a level is safe — each destination still sees its
own already-resolved previous level.  Each level is stacked as two
sub-stacks, rows with one tiebreak candidate and rows with several
(:class:`_TreeStacks`): only the second kind has a route to select.

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
from repro.routing.compiled import offsets, segment_index
from repro.routing.paths import RoutingTree
from repro.routing.policy import POSITION_BITS
from repro.routing.tree import ARENA_FIELDS, StructurePools
from repro.telemetry.metrics import get_registry

_POS_MASK = np.uint64((1 << POSITION_BITS) - 1)


def _array_bytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


@dataclasses.dataclass
class _TreeStacks:
    """Level-major stacks the tree kernel walks (layout v2).

    Every non-destination row of every destination is stacked by global
    path-length level, then slot, then BFS row ("stack order"), and each
    level is held as **two sub-stacks**: rows with exactly one tiebreak
    candidate, where routing has nothing to decide, and rows with
    several — the only ones SecP/TB selection runs over (Fig 10: about a
    fifth of all rows).  Positions are flat indices into a C-contiguous
    ``[num_dests, n]`` matrix (``flat = slot * n + node``, ``cflat = slot
    * n + candidate``); a kernel moves them to its batch row as it reads
    them, so one mirror serves every batch.

    ``ptr[0, i, k]:ptr[0, i, k + 1]`` is slot ``k``'s segment of level
    ``i`` in the ``one_*`` arrays, ``ptr[1]`` the same in the ``multi_*``
    arrays.  ``starts`` is one CSR index over *all* multi-candidate rows
    into the ``edge_*`` / ``keys`` arrays (absolute offsets, closing
    entry included); ``pick`` is the absolute edge index of each row's
    hash-minimal candidate — what TB selects whenever SecP does not
    apply, known without the state.
    """

    ptr: np.ndarray         # int64[2, num_levels, num_dests + 1]
    one_flat: np.ndarray    # int64
    one_cflat: np.ndarray   # int64; the one candidate's flat index
    one_cands: np.ndarray   # int32; the one candidate
    multi_flat: np.ndarray  # int64
    starts: np.ndarray      # int64[len(multi_flat) + 1]
    pick: np.ndarray        # int64
    edge_cflat: np.ndarray  # int64
    edge_cands: np.ndarray  # int32
    keys: np.ndarray        # uint64


@dataclasses.dataclass
class _WeightStack:
    """Both kinds of rows together, in stack order, for the weights pass.

    Not split: a parent's children must be added in stack order or the
    float64 sums (and the golden digests) move.  ``ptr[i, k]:ptr[i, k +
    1]`` is slot ``k``'s segment of level ``i`` — the sum of the tree
    stacks' two planes, kept so no pass has to add them.
    """

    ptr: np.ndarray         # int64[num_levels, num_dests + 1]
    flat: np.ndarray        # int64
    nodes: np.ndarray       # int32; node id per ``flat`` entry


@dataclasses.dataclass
class _LevelMajor:
    """The arena's level-major mirror: the stacks over *all* slots, which
    the kernels read in place for any batch of slots."""

    trees: _TreeStacks
    weights: _WeightStack

    @property
    def nbytes(self) -> int:
        return _array_bytes(self.trees) + _array_bytes(self.weights)


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
        self._mirror: _LevelMajor | None = None
        self._full_slots = np.arange(self.num_dests, dtype=np.int64)

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
        include_level_major: bool = True,
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
        worst case).  ``include_level_major`` also counts the level-major
        mirror the batched kernels build lazily
        (:attr:`level_major_nbytes`) — it is resident during every
        round, so planning without it would undercount by ~2x.  Per
        :class:`_TreeStacks` / :class:`_WeightStack`: 12 bytes per row
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
        if include_level_major:
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
            # dests) they are no longer noise — re-validated at N=36964
            # by tests/runtime/test_guard_chaos.py.
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

    # -- the batched kernel --------------------------------------------

    @property
    def num_levels(self) -> int:
        """Number of stacked levels: the longest selected route over all
        destinations (level 0, the destination itself, is not stacked)."""
        if not self.num_dests:
            return 0
        return max(int(np.diff(self.level_ptr).max()) - 2, 0)

    @property
    def level_major_nbytes(self) -> int:
        """Bytes of the level-major mirror (built on first use; it is
        not part of :attr:`nbytes`, which counts what is shipped)."""
        return self._level_major().nbytes

    def _level_major(self) -> _LevelMajor:
        """Build (once) the level-major mirror: one pass over the pools."""
        if self._mirror is not None:
            return self._mirror
        num, n, num_levels = self.num_dests, self.graph_n, self.num_levels

        # One run per (slot, level): consecutive rows of the pools.  The
        # runs of the stacked levels (level 0 is the destination itself)
        # go in level-major order; a stable sort keeps slot order.
        levels_of_slot = np.diff(self.level_ptr) - 1
        run_rows = np.delete(np.diff(self.level_pool), self.level_ptr[1:-1] - 1)
        run_start = np.cumsum(run_rows) - run_rows
        run_slot = np.repeat(np.arange(num, dtype=np.int32), levels_of_slot)
        run_level = np.arange(len(run_rows), dtype=np.int64) - np.repeat(
            self.level_ptr[:-1] - np.arange(num), levels_of_slot
        )
        stacked = np.flatnonzero(run_level > 0)
        stacked = stacked[np.argsort(run_level[stacked], kind="stable")]
        run_rows, run_start = run_rows[stacked], run_start[stacked]
        run_slot, run_level = run_slot[stacked], run_level[stacked]

        # ``all_ptr[i, k]``: where slot k's rows of level i + 1 start in
        # the stack (a slot has at most one run per level)
        cum = np.zeros(num_levels * num + 1, dtype=np.int64)
        cum[(run_level - 1) * num + run_slot + 1] = run_rows
        np.cumsum(cum, out=cum)
        all_ptr = np.empty((num_levels, num + 1), dtype=np.int64)
        all_ptr[:, :-1] = cum[:-1].reshape(num_levels, num)
        all_ptr[:, -1] = cum[num * np.arange(1, num_levels + 1)]

        # Per stacked row, in stack order: node, tiebreak-set size and
        # where its candidates start in cands_pool (a slot's indptr is
        # relative to its own candidates and has one closing entry).
        # The arrays are as long as the mirror's own, so each is freed
        # or reused in place as soon as it has served.
        rows = segment_index(run_start, run_rows)  # into order_pool
        slot = np.repeat(run_slot, run_rows)
        nodes = self.order_pool[rows]
        rows += slot
        edge_lo = self.indptr_pool[rows]
        rows += 1
        # (a set's size fits POSITION_BITS; narrow, the array is short-lived)
        size = (self.indptr_pool[rows] - edge_lo).astype(np.int32)
        edge_lo += self.cand_ptr[slot]
        if len(size) and size.min() < 1:
            raise ValueError("arena row without a tiebreak candidate")
        flat = np.multiply(slot, n, out=rows, dtype=np.int64)   # rows' buffer
        del rows, slot
        flat += nodes

        # the split; the one-candidate rows before each boundary of
        # all_ptr give ptr[0], the rest is ptr[1]
        one = np.flatnonzero(size == 1)
        multi = np.flatnonzero(size != 1)
        ptr = np.empty((2, num_levels, num + 1), dtype=np.int64)
        ptr[0] = np.searchsorted(one, all_ptr)
        ptr[1] = all_ptr - ptr[0]
        starts = offsets(size[multi])
        del size
        one_cands = self.cands_pool[edge_lo[one]]
        edge_lo = edge_lo[multi]
        one_flat = flat[one]
        one_cflat = one_flat - nodes[one]   # the row's base, slot * n ...
        del one
        one_cflat += one_cands              # ... plus the candidate
        multi_flat = flat[multi]
        base = multi_flat - nodes[multi]
        del multi
        sizes = np.diff(starts)
        edges = segment_index(edge_lo, sizes)
        del edge_lo
        edge_cands = self.cands_pool[edges]
        keys = self.keys_pool[edges]
        del edges
        edge_cflat = np.repeat(base, sizes)
        del base, sizes
        edge_cflat += edge_cands
        pick = starts[:-1].copy()
        if len(pick):
            pick += (np.minimum.reduceat(keys, pick) & _POS_MASK).astype(np.int64)

        self._mirror = _LevelMajor(
            trees=_TreeStacks(
                ptr=ptr,
                one_flat=one_flat,
                one_cflat=one_cflat,
                one_cands=one_cands,
                multi_flat=multi_flat,
                starts=starts,
                pick=pick,
                edge_cflat=edge_cflat,
                edge_cands=edge_cands,
                keys=keys,
            ),
            weights=_WeightStack(ptr=all_ptr, flat=flat, nodes=nodes),
        )
        get_registry().gauge("routing.arena.level_major_bytes").set(
            self._mirror.nbytes
        )
        return self._mirror

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
    the differential suite in ``tests/routing/test_arena.py``), but the
    Python-level loop runs over *global* path-length levels.  A row with one tiebreak candidate
    takes it; SecP/TB selection runs over the multi-candidate rows only
    (:class:`_TreeStacks`).  Every tier is handed the whole mirror and
    ``slots`` (a full round is ``slots = arange(num_dests)``) and
    dispatches through the arena's kernel backend
    (:mod:`repro.routing.backends`): the compiled tiers read each batch
    row's segments of the mirror in place; ``numpy`` cuts a subset
    batch's stacks out of it and resolves each sub-stack with a handful
    of flat numpy operations.  All backends are bit-identical (asserted
    by ``tests/routing/test_backends.py``).

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
    st = arena._level_major().trees
    registry = get_registry()
    if registry.enabled:
        rows = (st.ptr[:, :, slots + 1] - st.ptr[:, :, slots]).sum(axis=(1, 2))
        registry.counter("routing.batched.calls").inc()
        registry.counter("routing.batched.trees").inc(B)
        registry.counter("routing.batched.levels").inc(st.ptr.shape[1])
        registry.counter("routing.batched.rows").inc(int(rows.sum()))
        registry.counter("routing.batched.multi_rows").inc(int(rows[1]))
        registry.counter(f"routing.backend.calls.{backend}").inc()

    kernels.trees_stacked(
        st.ptr, slots, n,
        st.one_flat, st.one_cflat, st.one_cands,
        st.multi_flat, st.starts, st.pick,
        st.edge_cflat, st.edge_cands, st.keys,
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
    st = arena._level_major().weights
    kernels.weights_stacked(
        st.ptr, slots, n, st.flat, st.nodes, choice.reshape(-1), weights, w.reshape(-1)
    )
    return w
