"""Vectorised numpy kernels — the differential ground truth.

The bodies of ``repro.routing.arena.compute_trees_batched`` and
``repro.routing.arena.subtree_weights_batched`` and the Jacobi step that
:class:`repro.routing.fixpoint.JacobiDriver` iterates, kept here so
every other backend has a fixed point of comparison: the parity suite
asserts **bit-identical** outputs against this module.

The contract is the *outputs*, not the instruction sequence: integer
and boolean results are exact whatever the order of evaluation, so how
a level is cut up (one-candidate rows apart from multi-candidate rows,
rows in blocks) is free to change, and so is how the Jacobi step finds
a node's best offer (one minimum over ``rank_key << 32 | tie_rank``,
which is the arg-min of the two-stage rule: least rank key, then least
tie-break key among the tied).  The one thing that is not free is
each parent's **summation order** in ``weights_stacked``: its children
are added in stack order (batch row, then BFS row), one after the other
— float64 addition does not associate, so a different order is a
different ground truth (``perf/golden.json`` and the ``uint64`` views in
the parity suite would move).

All three kernels share the calling convention documented in
:mod:`repro.routing.backends._loops` (same signatures, same dtypes,
outputs written in place).  The compiled tiers read a batch's segments
of the level-major mirror in place; a whole-level numpy gather wants the
batch's rows contiguous, so here a batch other than the mirror's own
slot order is first cut out of it (``_cut``), in the same stack order.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from repro.routing.compiled import offsets, segment_index
from repro.routing.policy import POSITION_BITS, RouteClass

_POS_MASK = np.uint64((1 << POSITION_BITS) - 1)
_BLOCKED = np.uint64(2**64 - 1)

# The sweep's selection word: rank key above, tie rank below.
_KEY_SHIFT = np.uint64(32)
_RANK_MASK = np.uint64(0xFFFFFFFF)

# Bits of the sweep's ``edge_flags`` (set by fixpoint.JacobiDriver).
_APPLIES, _NONPROVIDER, _GULLIBLE, _DROPS = 1, 2, 4, 8

#: Rows per block of the weights pass.  The temporaries stay cache-sized
#: however many rows a level holds (measured at N=1000: 13 ms against 23
#: unblocked), and ``np.add.at`` applies the blocks' rows in the same
#: order as one call over the whole level would.
_BLOCK_ROWS = 1 << 14

_SELF = int(RouteClass.SELF)
_CUSTOMER = int(RouteClass.CUSTOMER)
_UNREACHABLE = int(RouteClass.UNREACHABLE)


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
    ptr: np.ndarray,
    slots: np.ndarray,
    n: int,
    one_flat: np.ndarray,
    one_cflat: np.ndarray,
    one_cands: np.ndarray,
    multi_flat: np.ndarray,
    starts: np.ndarray,
    pick: np.ndarray,
    edge_cflat: np.ndarray,
    edge_cands: np.ndarray,
    keys: np.ndarray,
    secure_rows: np.ndarray,
    secp_rows: np.ndarray,
    choice: np.ndarray,
    secure: np.ndarray,
    any_secure: np.ndarray,
) -> None:
    """Resolve every stacked path-length level of the batch ``slots``
    (a subset batch is cut out of the mirror first, in one pass over
    both kinds and all levels)."""
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
    ptr: np.ndarray,
    slots: np.ndarray,
    n: int,
    flat: np.ndarray,
    nodes: np.ndarray,
    choice: np.ndarray,
    node_weights: np.ndarray,
    w: np.ndarray,
) -> None:
    """Push subtree weights up to the chosen parents, deepest level first
    (a subset batch is cut out of the mirror first, in stack order:
    level, batch row, BFS row)."""
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
    and ``tie_rank``.  The winner of a segment is decoded by its place
    ``seg_start + tie rank``, so what a step reads of it is kept by
    place.  The two ``[chunk, ...]`` buffers live here too: successive
    sweeps reuse them (a fresh megabyte per sweep is a megabyte of page
    faults per sweep).

    A plan is good for as long as the driver that owns ``edge_flags``
    sweeps, and no longer: it refers to the static arguments weakly,
    and leaves its thread's ``slot`` when ``edge_flags`` goes — kept
    past that, its buffers would sit under the peak of whatever the
    process builds next.
    """

    def __init__(self, slot, n, v, route_cls, seg_u, tie_rank, rank_edge,
                 lp_field, edge_flags, rank_codes, rank_widths):
        self.key = (
            weakref.ref(edge_flags, lambda _: slot.pop("plan", None)),
            weakref.ref(v), weakref.ref(tie_rank), weakref.ref(rank_codes),
        )
        self.variants = np.flatnonzero(np.bincount(edge_flags, minlength=1)).tolist()
        variant_of = np.zeros(max(self.variants, default=0) + 1, dtype=np.int64)
        variant_of[self.variants] = np.arange(len(self.variants))
        self.index = variant_of[edge_flags] * n + v
        # the ranking's first criterion sits in the highest bits
        shift, at = {}, _KEY_SHIFT
        for code, width in zip(rank_codes[::-1].tolist(), rank_widths[::-1].tolist()):
            shift[code] = at
            at += width
        self.static = (lp_field.astype(np.uint64) << np.uint64(shift[0])) | tie_rank
        self.sp_shift = np.uint64(shift[1])
        self.secp_bit = np.uint64(1 << shift[2])
        self.place_v = v[rank_edge].astype(np.int64)
        self.place_cls = route_cls[rank_edge]
        self.place_gullible = (edge_flags[rank_edge] & _GULLIBLE) != 0
        self.gullible = bool(self.place_gullible.any())
        # every node has a segment on a connected graph: then the
        # segments *are* the columns, in order
        self.columns = slice(None) if len(seg_u) == n else seg_u
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


#: ``plan``: the plan of this thread's last sweep — a driver sweeps
#: the same static arrays until its chunk converges.  Used through its
#: ``__dict__``, which a plan's release hook can hold on to whichever
#: thread ends up dropping ``edge_flags``.
_THREAD = threading.local()


def jacobi_sweep(
    v: np.ndarray,
    route_cls: np.ndarray,
    seg_starts: np.ndarray,
    seg_sizes: np.ndarray,
    seg_u: np.ndarray,
    tie_rank: np.ndarray,
    rank_edge: np.ndarray,
    lp_field: np.ndarray,
    edge_flags: np.ndarray,
    rank_codes: np.ndarray,
    rank_widths: np.ndarray,
    attacker: np.ndarray,
    leak: bool,
    cls: np.ndarray,
    length: np.ndarray,
    sec: np.ndarray,
    att: np.ndarray,
    node_secure: np.ndarray,
    new_cls: np.ndarray,
    new_len: np.ndarray,
    new_sec: np.ndarray,
    new_att: np.ndarray,
    tied: np.ndarray | None = None,
) -> None:
    """One synchronous best-response step over the edge table.

    Every node takes the offer with the least selection word
    ``rank_key << 32 | tie_rank`` (all-ones: the offer is barred), so a
    step is one gather of a word per edge, one minimum per segment and
    a decode of the winner's place ``seg_start + tie rank`` (``rank_edge``
    names the edge that holds it).

    Every row carries its own adversary (``attacker[row]``, ``-1`` for
    none): ``att`` marks labels descending from the attacker's
    announcement, and ``leak`` lets offers *from* the attacker bypass
    GR2.  ``edge_flags`` holds the static bits of an edge ``u <- v``:
    ``u`` applies SecP (1), ``v`` is not ``u``'s provider, so GR2
    restricts the export (2), ``u`` is a simplex stub that believes the
    attacker's word over this provider edge (4, §2.2.1), ``u`` rejects
    routes it cannot validate (8).  ``-1`` equals no node id, so a row
    without an adversary is plain single-origin BGP and may share a
    chunk with rows that have one.  The caller pins the origins' labels
    after each step.  ``tied``, when given, receives the per-edge
    tiebreak-set mask.

    The static arguments are never written once built, so the same
    objects mean the same :class:`_SweepPlan` as the sweep before.
    """
    chunk, n = cls.shape
    slot = _THREAD.__dict__
    plan = slot.get("plan")
    if plan is None or any(
        ref() is not a
        for ref, a in zip(plan.key, (edge_flags, v, tie_rank, rank_codes))
    ):
        plan = slot["plan"] = _SweepPlan(
            slot, n, v, route_cls, seg_u, tie_rank, rank_edge, lp_field,
            edge_flags, rank_codes, rank_widths,
        )
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
            trusted if flags & _APPLIES else plain,
            unannounced if flags & _NONPROVIDER else unreached,
            out=word,
        )
        if flags & _DROPS:
            word |= unvalidated
        if len(rows) and (
            flags & _APPLIES and flags & _GULLIBLE
            or leak and flags & _NONPROVIDER
        ):
            key = plain[at]
            if flags & _APPLIES:
                believed = sec[at] | att[at] if flags & _GULLIBLE else sec[at]
                key ^= believed * plan.secp_bit
            restricted = flags & _NONPROVIDER and not leak
            key |= unannounced[at] if restricted else unreached[at]
            if flags & _DROPS:
                key |= unvalidated[at]  # belief does not survive ROV
            word[at] = key

    # barred stays all-ones under the OR, so it needs no mask
    np.take(table.reshape(chunk, -1), plan.index, axis=1, out=words, mode="clip")
    words |= plan.static
    best = np.minimum.reduceat(words, seg_starts, axis=1)
    reachable = best != _BLOCKED
    if tied is not None:
        np.equal(
            words >> _KEY_SHIFT,
            np.repeat(best >> _KEY_SHIFT, seg_sizes, axis=1),
            out=tied,
        )
        tied &= np.repeat(reachable, seg_sizes, axis=1)
    # an unreachable node's place is past its segment (clipped: past the
    # table); what it reads there, ``reachable`` masks below
    place = (best & _RANK_MASK).astype(np.int64)
    place += seg_starts
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
    new_sec[:, cols] = reachable & node_secure[seg_u] & seen_sel
    new_att[:, cols] = reachable & att_sel
