"""Vectorised numpy kernels — the differential ground truth.

The bodies of ``repro.routing.arena.compute_trees_batched`` and
``repro.routing.arena.subtree_weights_batched`` and the Jacobi iteration
that :class:`repro.routing.fixpoint.JacobiDriver` calls, kept here so
every other backend has a fixed point of comparison: the parity suite
asserts **bit-identical** outputs against this module.

The contract is the *outputs*, not the instruction sequence: integer
and boolean results are exact whatever the order of evaluation, so how
a level is cut up (one-candidate rows apart from multi-candidate rows,
rows in blocks) is free to change, and so is how the Jacobi step finds
a node's best offer (one minimum over ``rank_key << 32 | tie_rank``,
which is the arg-min of the two-stage rule: least rank key, then least
tie-break key among the tied) and which nodes a sweep re-decides (here
all of them; the compiled tiers only those whose neighbours moved).
The one thing that is not free is
each parent's **summation order** in ``weights_stacked``: its children
are added in stack order (batch row, then BFS row), one after the other
— float64 addition does not associate, so a different order is a
different ground truth (``perf/golden.json`` and the ``uint64`` views in
the parity suite would move).

All three kernels share the calling convention documented in
:mod:`repro.routing.backends._loops` (same signatures, same dtypes,
outputs written in place).  The compiled tiers walk each batch row's
slot of the arena's pools in place.  A numpy level body is a
whole-level gather, which wants every destination's rows of one path
length side by side, so this tier keeps its own **level-major mirror**
of the pools (:class:`_TreeStacks` / :class:`_WeightStack`), built on
first use and kept for as long as the pools live.  A batch other than
the mirror's own slot order is cut out of it first (``_cut``), in the
same stack order.
"""

from __future__ import annotations

import dataclasses
import threading
import weakref

import numpy as np

from repro.routing.compiled import offsets, segment_index
from repro.routing.fixpoint import (
    EDGE_APPLIES,
    EDGE_DROPS,
    EDGE_GULLIBLE,
    EDGE_NONPROVIDER,
    PIN_ATT,
    PIN_CLS,
    PIN_LEN,
    PIN_SEC,
    ROW_CONVERGED,
    ROW_MOVING,
    ROW_REVISITS,
)
from repro.routing.policy import POSITION_BITS, RouteClass
from repro.telemetry.metrics import get_registry

_POS_MASK = np.uint64((1 << POSITION_BITS) - 1)
_BLOCKED = np.uint64(2**64 - 1)

# The sweep's selection word: rank key above, tie rank below.
_KEY_SHIFT = np.uint64(32)
_RANK_MASK = np.uint64(0xFFFFFFFF)


#: Rows per block of the weights pass.  The temporaries stay cache-sized
#: however many rows a level holds (measured at N=1000: 13 ms against 23
#: unblocked), and ``np.add.at`` applies the blocks' rows in the same
#: order as one call over the whole level would.
_BLOCK_ROWS = 1 << 14

_SELF = int(RouteClass.SELF)
_CUSTOMER = int(RouteClass.CUSTOMER)
_UNREACHABLE = int(RouteClass.UNREACHABLE)


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
    * n + candidate``); a cut moves them to its batch rows, so one mirror
    serves every batch.

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


def _nbytes(stacks) -> int:
    return sum(v.nbytes for v in vars(stacks).values() if isinstance(v, np.ndarray))


class _PoolMemo:
    """What this tier derives from an arena's pools, kept for as long as
    every pool it was derived from lives.

    Pools are never written once built, so the same array objects mean
    the same mirror; the entry holds them weakly and leaves with the
    first of them to go, so a mirror never outlives its arena.
    """

    def __init__(self):
        self._entries: dict[tuple[int, ...], tuple[object, tuple, object]] = {}
        # reentrant: a pool freed while the lock is held runs ``drop``
        self._lock = threading.RLock()

    def get(self, n: int, pools: tuple[np.ndarray, ...], build):
        key = (n, *map(id, pools))
        entry = self._entries.get(key)
        if entry is not None and all(ref() is p for ref, p in zip(entry[1], pools)):
            return entry[2]
        value = build()
        token = object()

        def drop(_, key=key, token=token):
            with self._lock:
                if self._entries.get(key, (None,))[0] is token:
                    del self._entries[key]

        with self._lock:
            self._entries[key] = (token, tuple(weakref.ref(p, drop) for p in pools), value)
        return value


_WEIGHT_STACKS = _PoolMemo()
_TREE_STACKS = _PoolMemo()


def _stacked_rows(
    level_ptr: np.ndarray, level_pool: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ptr, rows, slot)`` of the stack: ``ptr[i, k]:ptr[i, k + 1]`` is
    slot ``k``'s segment of level ``i + 1``, and per stacked row, in stack
    order, its row in ``order_pool`` and its slot."""
    num = len(level_ptr) - 1
    levels_of_slot = np.diff(level_ptr) - 1
    num_levels = max(int(levels_of_slot.max(initial=0)) - 1, 0)
    # One run per (slot, level): consecutive rows of the pools.  The
    # runs of the stacked levels (level 0 is the destination itself)
    # go in level-major order; a stable sort keeps slot order.
    run_rows = np.delete(np.diff(level_pool), level_ptr[1:-1] - 1)
    run_start = np.cumsum(run_rows) - run_rows
    run_slot = np.repeat(np.arange(num, dtype=np.int32), levels_of_slot)
    run_level = np.arange(len(run_rows), dtype=np.int64) - np.repeat(
        level_ptr[:-1] - np.arange(num), levels_of_slot
    )
    stacked = np.flatnonzero(run_level > 0)
    stacked = stacked[np.argsort(run_level[stacked], kind="stable")]
    run_rows, run_start = run_rows[stacked], run_start[stacked]
    run_slot, run_level = run_slot[stacked], run_level[stacked]

    # ``ptr[i, k]``: where slot k's rows of level i + 1 start in the
    # stack (a slot has at most one run per level)
    cum = np.zeros(num_levels * num + 1, dtype=np.int64)
    cum[(run_level - 1) * num + run_slot + 1] = run_rows
    np.cumsum(cum, out=cum)
    ptr = np.empty((num_levels, num + 1), dtype=np.int64)
    ptr[:, :-1] = cum[:-1].reshape(num_levels, num)
    ptr[:, -1] = cum[num * np.arange(1, num_levels + 1)]
    return ptr, segment_index(run_start, run_rows), np.repeat(run_slot, run_rows)


def _build_weight_stack(n, order_ptr, order_pool, level_ptr, level_pool) -> _WeightStack:
    ptr, rows, slot = _stacked_rows(level_ptr, level_pool)
    nodes = order_pool[rows]
    flat = np.multiply(slot, n, out=rows, dtype=np.int64)   # rows' buffer
    flat += nodes
    return _WeightStack(ptr=ptr, flat=flat, nodes=nodes)


def _build_tree_stacks(
    weights: _WeightStack, level_ptr, level_pool, indptr_pool, cand_ptr,
    cands_pool, keys_pool,
) -> _TreeStacks:
    # Per stacked row, in stack order: tiebreak-set size and where its
    # candidates start in cands_pool (a slot's indptr run is relative to
    # its own candidates and has one closing entry, so slot k's run
    # starts k entries past its first row).  The arrays are as long as
    # the mirror's own, so each is freed or reused in place as soon as
    # it has served.
    _, rows, slot = _stacked_rows(level_ptr, level_pool)
    rows += slot
    edge_lo = indptr_pool[rows]
    rows += 1
    # (a set's size fits POSITION_BITS; narrow, the array is short-lived)
    size = (indptr_pool[rows] - edge_lo).astype(np.int32)
    del rows
    edge_lo += cand_ptr[slot]
    del slot
    if len(size) and size.min() < 1:
        raise ValueError("arena row without a tiebreak candidate")
    flat, nodes = weights.flat, weights.nodes

    # the split; the one-candidate rows before each boundary of the
    # weights stack's table give ptr[0], the rest is ptr[1]
    one = np.flatnonzero(size == 1)
    multi = np.flatnonzero(size != 1)
    ptr = np.empty((2, *weights.ptr.shape), dtype=np.int64)
    ptr[0] = np.searchsorted(one, weights.ptr)
    ptr[1] = weights.ptr - ptr[0]
    starts = offsets(size[multi])
    del size
    one_cands = cands_pool[edge_lo[one]]
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
    edge_cands = cands_pool[edges]
    keys = keys_pool[edges]
    del edges
    edge_cflat = np.repeat(base, sizes)
    del base, sizes
    edge_cflat += edge_cands
    pick = starts[:-1].copy()
    if len(pick):
        pick += (np.minimum.reduceat(keys, pick) & _POS_MASK).astype(np.int64)
    return _TreeStacks(
        ptr=ptr, one_flat=one_flat, one_cflat=one_cflat, one_cands=one_cands,
        multi_flat=multi_flat, starts=starts, pick=pick, edge_cflat=edge_cflat,
        edge_cands=edge_cands, keys=keys,
    )


def _weight_stack(n, order_ptr, order_pool, level_ptr, level_pool) -> _WeightStack:
    pools = (order_ptr, order_pool, level_ptr, level_pool)
    return _WEIGHT_STACKS.get(n, pools, lambda: _build_weight_stack(n, *pools))


def _tree_stacks(n, order_ptr, order_pool, level_ptr, level_pool, indptr_ptr,
                 indptr_pool, cand_ptr, cands_pool, keys_pool) -> _TreeStacks:
    pools = (order_ptr, order_pool, level_ptr, level_pool, indptr_ptr,
             indptr_pool, cand_ptr, cands_pool, keys_pool)

    def build() -> _TreeStacks:
        weights = _weight_stack(n, *pools[:4])
        trees = _build_tree_stacks(
            weights, level_ptr, level_pool, indptr_pool, cand_ptr, cands_pool, keys_pool
        )
        get_registry().gauge("routing.arena.level_major_bytes").set(
            _nbytes(weights) + _nbytes(trees)
        )
        return trees

    return _TREE_STACKS.get(n, pools, build)


def build_level_major(
    n: int,
    order_ptr: np.ndarray,
    order_pool: np.ndarray,
    level_ptr: np.ndarray,
    level_pool: np.ndarray,
    indptr_ptr: np.ndarray,
    indptr_pool: np.ndarray,
    cand_ptr: np.ndarray,
    cands_pool: np.ndarray,
    keys_pool: np.ndarray,
) -> int:
    """Build the whole level-major mirror of the pools afresh, bypassing
    the cache; returns its bytes (the cost the compiled tiers do not
    pay: they read the pools in place)."""
    weights = _build_weight_stack(n, order_ptr, order_pool, level_ptr, level_pool)
    trees = _build_tree_stacks(
        weights, level_ptr, level_pool, indptr_pool, cand_ptr, cands_pool, keys_pool
    )
    return _nbytes(weights) + _nbytes(trees)


def _full_batch(ptr: np.ndarray, slots: np.ndarray) -> bool:
    return len(slots) == ptr.shape[-1] - 1 and bool(
        (slots == np.arange(len(slots))).all()
    )


def _cut(
    lo: np.ndarray, hi: np.ndarray, slots: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Select the segments ``lo[..., i]:hi[..., i]`` of batch row ``i``,
    in C order: ``(index, what to add to a flat index to move it from
    its slot's row to its batch row, segment lengths)``."""
    counts = hi - lo
    shift = np.empty(counts.shape, dtype=np.int64)
    shift[...] = (np.arange(len(slots), dtype=np.int64) - slots) * n
    flat_counts = counts.reshape(-1)
    index = segment_index(lo.reshape(-1), flat_counts)
    return index, np.repeat(shift.reshape(-1), flat_counts), counts


def _shifted(values: np.ndarray, index: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """``values[index] + shift``, added in place: a cut's index arrays
    are the largest allocations of a subset pass, and a second
    temporary per array showed in peak RSS (``sweep``: +2.5 %)."""
    out = values[index]
    out += shift
    return out


def trees_stacked(
    slots: np.ndarray,
    n: int,
    order_ptr: np.ndarray,
    order_pool: np.ndarray,
    level_ptr: np.ndarray,
    level_pool: np.ndarray,
    indptr_ptr: np.ndarray,
    indptr_pool: np.ndarray,
    cand_ptr: np.ndarray,
    cands_pool: np.ndarray,
    keys_pool: np.ndarray,
    secure_rows: np.ndarray,
    secp_rows: np.ndarray,
    choice: np.ndarray,
    secure: np.ndarray,
    any_secure: np.ndarray,
) -> None:
    """Resolve every stacked path-length level of the batch ``slots``
    off the pools' mirror (a subset batch is cut out of it first, in one
    pass over both kinds and all levels)."""
    st = _tree_stacks(n, order_ptr, order_pool, level_ptr, level_pool, indptr_ptr,
                      indptr_pool, cand_ptr, cands_pool, keys_pool)
    ptr, one_flat, one_cflat, one_cands = st.ptr, st.one_flat, st.one_cflat, st.one_cands
    multi_flat, starts, pick = st.multi_flat, st.starts, st.pick
    edge_cflat, edge_cands, keys = st.edge_cflat, st.edge_cands, st.keys
    if _full_batch(ptr, slots):
        one_off = [*ptr[0, :, 0].tolist(), len(one_flat)]
        multi_off = [*ptr[1, :, 0].tolist(), len(multi_flat)]
    else:
        index, shift, counts = _cut(ptr[:, :, slots], ptr[:, :, slots + 1], slots, n)
        one_off = offsets(counts[0].sum(axis=1)).tolist()
        multi_off = offsets(counts[1].sum(axis=1)).tolist()
        num_one = one_off[-1]
        one, multi = index[:num_one], index[num_one:]
        one_shift, multi_shift = shift[:num_one], shift[num_one:]
        edge_lo = starts[multi]
        sizes = starts[multi + 1] - edge_lo
        edges = segment_index(edge_lo, sizes)
        starts = offsets(sizes)
        one_flat = _shifted(one_flat, one, one_shift)
        one_cflat = _shifted(one_cflat, one, one_shift)
        one_cands = one_cands[one]
        multi_flat = _shifted(multi_flat, multi, multi_shift)
        pick = _shifted(pick, multi, starts[:-1] - edge_lo)
        edge_cflat = _shifted(edge_cflat, edges, np.repeat(multi_shift, sizes))
        edge_cands = edge_cands[edges]
        keys = keys[edges]

    for level in range(len(one_off) - 1):
        a, b = one_off[level], one_off[level + 1]
        if b > a:
            # one candidate: nothing to select
            f = one_flat[a:b]
            csec = secure[one_cflat[a:b]]
            choice[f] = one_cands[a:b]
            any_secure[f] = csec
            secure[f] = csec & secure_rows[f]
        a, b = multi_off[level], multi_off[level + 1]
        if b > a:
            f = multi_flat[a:b]
            begin = starts[a:b]
            lo, hi = begin[0], starts[b]
            # the hash-minimal *secure* candidate per row; all-blocked
            # means no candidate is secure (a real key never has every
            # position bit set: the row would need 2**POSITION_BITS
            # candidates)
            ksec = np.where(secure[edge_cflat[lo:hi]], keys[lo:hi], _BLOCKED)
            kmin = np.minimum.reduceat(ksec, begin - lo)
            any_sec = kmin != _BLOCKED
            any_secure[f] = any_sec
            # SecP narrows the set to its secure candidates where it
            # applies and there are any; everywhere else TB's pick is
            # static
            chosen = np.where(
                secp_rows[f] & any_sec,
                begin + (kmin & _POS_MASK).astype(np.int64),
                pick[a:b],
            )
            choice[f] = edge_cands[chosen]
            secure[f] = secure_rows[f] & secure[edge_cflat[chosen]]


def weights_stacked(
    slots: np.ndarray,
    n: int,
    order_ptr: np.ndarray,
    order_pool: np.ndarray,
    level_ptr: np.ndarray,
    level_pool: np.ndarray,
    choice: np.ndarray,
    node_weights: np.ndarray,
    w: np.ndarray,
) -> None:
    """Push subtree weights up to the chosen parents, deepest level first
    (a subset batch is cut out of the mirror first, in stack order:
    level, batch row, BFS row)."""
    st = _weight_stack(n, order_ptr, order_pool, level_ptr, level_pool)
    ptr, flat, nodes = st.ptr, st.flat, st.nodes
    if _full_batch(ptr, slots):
        off = [*ptr[:, 0].tolist(), len(flat)]
    else:
        rows, shift, counts = _cut(ptr[:, slots], ptr[:, slots + 1], slots, n)
        off = offsets(counts.sum(axis=1)).tolist()
        flat = _shifted(flat, rows, shift)
        nodes = nodes[rows]
    for level in range(len(off) - 2, -1, -1):
        for lo in range(off[level], off[level + 1], _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, off[level + 1])
            f, u = flat[lo:hi], nodes[lo:hi]
            vals = w[f]
            vals += node_weights[u]
            parents = f - u        # the batch row's base ...
            parents += choice[f]   # ... plus the chosen next hop
            np.add.at(w, parents, vals)


class _SweepPlan:
    """What a sweep derives from its static arguments alone.

    ``v`` offers ``u`` a rank key that depends on ``v``'s label and on
    the edge's four flag bits, so a sweep computes one ``[chunk, n]``
    word per flag combination the table holds (its *variants*), and
    every edge then reads its word at ``variant * n + v`` — ``index`` —
    and ORs in ``static``, the bits only the edge knows: the LP field
    and ``tie_rank``.  A minimum per segment needs the segments that are
    not empty (``seg_starts`` / ``seg_sizes`` / ``seg_u``); the winner
    of a segment is decoded by its place ``seg_start + tie rank``, so
    what a step reads of it is kept by place.  The two ``[chunk, ...]``
    buffers live here too: successive sweeps reuse them (a fresh
    megabyte per sweep is a megabyte of page faults per sweep).

    A plan is good for as long as the driver that owns ``edge_flags``
    converges, and no longer: it refers to the static arguments weakly,
    and leaves its thread's ``slot`` when ``edge_flags`` goes — kept
    past that, its buffers would sit under the peak of whatever the
    process builds next.
    """

    def __init__(self, slot, n, v, route_cls, node_ptr, tie_rank, rank_edge,
                 lp_field, edge_flags, rank_shifts):
        self.key = (
            weakref.ref(edge_flags, lambda _: slot.pop("plan", None)),
            weakref.ref(v), weakref.ref(tie_rank), weakref.ref(rank_shifts),
        )
        sizes = np.diff(node_ptr)
        self.seg_u = np.flatnonzero(sizes)
        self.seg_starts = node_ptr[self.seg_u]
        self.seg_sizes = sizes[self.seg_u]
        self.variants = np.flatnonzero(np.bincount(edge_flags, minlength=1)).tolist()
        variant_of = np.zeros(max(self.variants, default=0) + 1, dtype=np.int64)
        variant_of[self.variants] = np.arange(len(self.variants))
        self.index = variant_of[edge_flags] * n + v
        # the rank key sits above the tie rank in the selection word
        lp_shift, sp_shift, secp_shift = (int(s) + 32 for s in rank_shifts)
        self.static = (lp_field.astype(np.uint64) << np.uint64(lp_shift)) | tie_rank
        self.sp_shift = np.uint64(sp_shift)
        self.secp_bit = np.uint64(1 << secp_shift)
        self.place_v = v[rank_edge].astype(np.int64)
        self.place_cls = route_cls[rank_edge]
        self.place_gullible = (edge_flags[rank_edge] & EDGE_GULLIBLE) != 0
        self.gullible = bool(self.place_gullible.any())
        # every node has a segment on a connected graph: then the
        # segments *are* the columns, in order
        self.columns = slice(None) if len(self.seg_u) == n else self.seg_u
        self.row_base = np.zeros((0, 1), dtype=np.int64)
        self.table = np.empty((0, len(self.variants), n), dtype=np.uint64)
        self.words = np.empty((0, len(v)), dtype=np.uint64)

    def buffers(self, chunk: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(table [chunk, variants, n], words [chunk, edges], row_base
        [chunk, 1])``; ``row_base + node`` indexes a flat ``[chunk, n]``."""
        if chunk > len(self.table):
            _, variants, n = self.table.shape
            self.table = np.empty((chunk, variants, n), dtype=np.uint64)
            self.words = np.empty((chunk, self.words.shape[1]), dtype=np.uint64)
            self.row_base = (np.arange(chunk, dtype=np.int64) * n)[:, None]
        return self.table[:chunk], self.words[:chunk], self.row_base[:chunk]


#: ``plan``: the plan of this thread's last converge — a driver
#: converges its chunks over the same static arrays.  Used through its
#: ``__dict__``, which a plan's release hook can hold on to whichever
#: thread ends up dropping ``edge_flags``.
_THREAD = threading.local()


def _sweep(plan, attacker, leak, cls, length, sec, att, node_secure,
           new_cls, new_len, new_sec, new_att, tied):
    """One synchronous best-response step of every row, into ``new_*``.

    Every node takes the offer with the least selection word
    ``rank_key << 32 | tie_rank`` (all-ones: the offer is barred), so a
    step is one gather of a word per edge, one minimum per segment and
    a decode of the winner's place ``seg_start + tie rank`` (the plan's
    ``place_*`` read what the edge that holds it offers).  Nodes without
    a segment are not written.
    """
    chunk, n = cls.shape
    table, words, row_base = plan.buffers(chunk)

    # the label's part of the rank key: SP, and SecP as a node that
    # does not apply it (or does, and sees no security) ranks it
    plain = (np.maximum(length, 0) + 1).astype(np.uint64)
    plain <<= plan.sp_shift
    plain |= plan.secp_bit
    secure = sec.astype(np.uint64)
    trusted = plain ^ (secure * plan.secp_bit)  # SecP applies and is met
    # all-ones where an offer is barred (0 - 1 wraps), to OR over the
    # key.  GR2: across a peering or up to a provider only customer
    # routes and the origin's own prefix travel; down to a customer
    # anything does.
    one = np.uint64(1)
    unreached = (cls != _UNREACHABLE).astype(np.uint64) - one
    unannounced = ((cls == _CUSTOMER) | (cls == _SELF)).astype(np.uint64) - one
    unvalidated = secure - one
    # the adversary terms differ from the rest at one node per row, its
    # attacker: offers from it bypass GR2 under a leak, and a gullible
    # stub takes its word for security
    rows = np.flatnonzero(attacker >= 0)
    at = rows, attacker[rows]
    for variant, flags in enumerate(plan.variants):
        word = table[:, variant]
        np.bitwise_or(
            trusted if flags & EDGE_APPLIES else plain,
            unannounced if flags & EDGE_NONPROVIDER else unreached,
            out=word,
        )
        if flags & EDGE_DROPS:
            word |= unvalidated
        if len(rows) and (
            flags & EDGE_APPLIES and flags & EDGE_GULLIBLE
            or leak and flags & EDGE_NONPROVIDER
        ):
            key = plain[at]
            if flags & EDGE_APPLIES:
                believed = sec[at] | att[at] if flags & EDGE_GULLIBLE else sec[at]
                key ^= believed * plan.secp_bit
            restricted = flags & EDGE_NONPROVIDER and not leak
            key |= unannounced[at] if restricted else unreached[at]
            if flags & EDGE_DROPS:
                key |= unvalidated[at]  # belief does not survive ROV
            word[at] = key

    # barred stays all-ones under the OR, so it needs no mask
    np.take(table.reshape(chunk, -1), plan.index, axis=1, out=words, mode="clip")
    words |= plan.static
    best = np.minimum.reduceat(words, plan.seg_starts, axis=1)
    reachable = best != _BLOCKED
    if tied is not None:
        np.equal(
            words >> _KEY_SHIFT,
            np.repeat(best >> _KEY_SHIFT, plan.seg_sizes, axis=1),
            out=tied,
        )
        tied &= np.repeat(reachable, plan.seg_sizes, axis=1)
    # an unreachable node's place is past its segment (clipped: past the
    # table); what it reads there, ``reachable`` masks below
    place = (best & _RANK_MASK).astype(np.int64)
    place += plan.seg_starts
    v_sel = np.take(plan.place_v, place, mode="clip")
    at_sel = v_sel + row_base
    att_sel = np.take(att, at_sel)
    seen_sel = np.take(sec, at_sel)
    if plan.gullible:
        seen_sel |= (
            np.take(plan.place_gullible, place, mode="clip")
            & (v_sel == attacker[:, None])
            & att_sel
        )
    cols = plan.columns
    new_cls[:, cols] = np.where(
        reachable, np.take(plan.place_cls, place, mode="clip"), np.int8(_UNREACHABLE)
    )
    new_len[:, cols] = np.where(reachable, np.take(length, at_sel) + 1, -1)
    new_sec[:, cols] = reachable & node_secure[plan.seg_u] & seen_sel
    new_att[:, cols] = reachable & att_sel


def _blank(chunk: int, n: int) -> tuple[np.ndarray, ...]:
    return (
        np.full((chunk, n), _UNREACHABLE, dtype=np.int8),
        np.full((chunk, n), -1, dtype=np.int32),
        np.zeros((chunk, n), dtype=bool),
        np.zeros((chunk, n), dtype=bool),
    )


def _held(pins: np.ndarray) -> list[tuple]:
    """The pins as assignments ``(rows, nodes, values, fields)``: the
    chunk rows whose pin in one slot holds the same fields, with its
    node, its ``[rows, 4]`` values and the labels (by index) it holds,
    in the order pins apply."""
    held = []
    for k in range(pins.shape[1]):
        node, fields = pins[:, k, 0], pins[:, k, 1]
        pinned = np.flatnonzero(node >= 0)
        masks = set(fields[pinned].tolist())
        for mask in masks:
            rows = pinned if len(masks) == 1 else pinned[fields[pinned] == mask]
            fields_held = [
                j for j, bit in enumerate((PIN_CLS, PIN_LEN, PIN_SEC, PIN_ATT)) if mask & bit
            ]
            held.append((rows, node[rows], pins[rows, k, 2:], fields_held))
    return held


def _compact(held: list[tuple], moved: np.ndarray) -> list[tuple]:
    """``held`` for the rows that moved, numbered as they are compacted."""
    remap = np.cumsum(moved) - 1
    out = []
    for rows, nodes, values, fields in held:
        keep = moved[rows]
        out.append((remap[rows[keep]], nodes[keep], values[keep], fields))
    return out


def _pin(labels, held) -> None:
    for rows, nodes, values, fields in held:
        for j in fields:
            labels[j][rows, nodes] = values[:, j]


def _rows_differ(a, b) -> np.ndarray:
    """Per row: does any of the four labels differ between ``a`` and ``b``?"""
    differ = (a[1] != b[1]).any(axis=1)  # lengths first: they move most
    for i in (0, 2, 3):
        if differ.all():
            break
        differ |= (a[i] != b[i]).any(axis=1)
    return differ


def jacobi_converge(
    v: np.ndarray,
    route_cls: np.ndarray,
    node_ptr: np.ndarray,
    tie_rank: np.ndarray,
    rank_edge: np.ndarray,
    lp_field: np.ndarray,
    rev_ptr: np.ndarray,
    rev_seg: np.ndarray,
    edge_flags: np.ndarray,
    rank_shifts: np.ndarray,
    node_secure: np.ndarray,
    attacker: np.ndarray,
    leak: bool,
    pins: np.ndarray,
    cap: int,
    cls: np.ndarray,
    length: np.ndarray,
    sec: np.ndarray,
    att: np.ndarray,
    stats: np.ndarray,
    tied: np.ndarray | None = None,
) -> None:
    """Converge every row of the chunk, in place, one vectorised sweep
    across the rows still moving at a time (see
    ``_loops.jacobi_converge`` for the contract).

    Every sweep re-decides every node, so the reverse index goes unused.
    A row that a sweep left unchanged retires, its labels (and its part
    of ``tied``) final, and the rest are compacted into smaller arrays.
    Label sets ping-pong: a sweep writes every node that has a segment
    and the pins every pinned field, so a set is blanked once, not once
    per sweep, and the set of two sweeps back is kept so that a moving
    row found equal to it is caught the sweep it comes round — which
    ends the call, since the chunk cannot converge.

    The static arguments are never written once built, so the same
    objects mean the same :class:`_SweepPlan` as the call before.
    """
    chunk, n = cls.shape
    slot = _THREAD.__dict__
    plan = slot.get("plan")
    if plan is None or any(
        ref() is not a
        for ref, a in zip(plan.key, (edge_flags, v, tie_rank, rank_shifts))
    ):
        plan = slot["plan"] = _SweepPlan(
            slot, n, v, route_cls, node_ptr, tie_rank, rank_edge, lp_field,
            edge_flags, rank_shifts,
        )
    labels = (cls, length, sec, att)
    live = np.arange(chunk)
    held = _held(pins)
    _pin(labels, held)
    # a row still moving at the end ran every sweep
    stats[:, 0], stats[:, 1] = ROW_MOVING, cap
    # ``cur`` steps to ``new``; ``prev`` is the step before ``cur``.
    # Spare sets were blanked once; ``labels`` never becomes one, since
    # its nodes without a segment hold what the caller put there.
    prev, cur, spare = None, labels, []
    live_attacker, live_tied = attacker, tied
    for sweep in range(1, cap + 1):
        new = spare.pop() if spare else _blank(len(live), n)
        _sweep(plan, live_attacker, leak, *cur, node_secure, *new, live_tied)
        _pin(new, held)
        moved = _rows_differ(new, cur)
        if prev is not None:
            back = moved & ~_rows_differ(new, prev)
            if back.any():
                stats[live, 1] = sweep
                stats[live[back], 0] = ROW_REVISITS
                break
        if moved.all():
            if prev is not None and prev is not labels:
                spare.append(prev)
            prev, cur = cur, new
            continue
        # the other rows are at their fixed point: they retire
        idle = ~moved
        stats[live[idle], :2] = ROW_CONVERGED, sweep
        if cur is not labels:
            for out, last in zip(labels, cur):
                out[live[idle]] = last[idle]
        if live_tied is not tied:
            tied[live[idle]] = live_tied[idle]
        if not moved.any():
            break
        live, live_attacker = live[moved], live_attacker[moved]
        held = _compact(held, moved)
        prev = tuple(x[moved] for x in cur)
        cur = tuple(x[moved] for x in new)
        spare = []
        if tied is not None:
            live_tied = np.empty((len(live), len(v)), dtype=bool)
    stats[:, 2] = stats[:, 1] * n   # every node, every sweep
