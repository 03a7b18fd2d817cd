"""The compiled kernels' executable spec, in pure Python.

Each function here is the scalar loop that the C translation unit in
:mod:`repro.routing.backends.cext_impl` transliterates line for line:
typed numpy indexing, no Python objects, no vectorisation.  The module
is registered as the hidden ``python`` backend so the parity suite can
run that control flow under plain CPython — far too slow for real work,
but it pins, against the numpy ground truth, the semantics the C code
inherits, and it is where a reader checks what the C loops mean.

Calling convention (all backends):

- outputs are written **in place**; the functions return ``None``;
- the batched kernels read the arena's pools in place
  (``repro.routing.tree.StructurePools``), all of them in one call,
  plus the batch's ``slots`` (int64, any order, repeats allowed).  Slot
  ``k``'s rows are ``order_pool[order_ptr[k]:order_ptr[k + 1]]``,
  reachable nodes by ``(path length, node)``, row 0 its destination;
  ``level_pool[level_ptr[k]:level_ptr[k + 1]]`` are its
  ``level_starts`` (where each path length starts among those rows, the
  last entry closing them); ``indptr_pool[indptr_ptr[k]:]`` is its
  tiebreak CSR, one entry per row plus a closing one, relative to
  ``cand_ptr[k]`` in ``cands_pool`` and ``keys_pool``.  Pools: ``*_ptr``
  / ``indptr_pool`` int64, ``order_pool`` / ``level_pool`` /
  ``cands_pool`` int32, ``keys_pool`` uint64.  Batch row ``b`` resolves
  slot ``slots[b]`` into row ``b`` of the C-contiguous ``[batch, n]``
  outputs ``choice`` (int32), ``secure`` / ``any_secure`` (bool) and
  ``w`` (float64), taken flat; ``secure_rows`` / ``secp_rows`` are
  ``node_secure`` and ``node_secure & breaks_ties`` per batch row, taken
  the same way;
- the Jacobi iteration takes the edge table of
  ``repro.routing.fixpoint`` (``v`` int32, ``route_cls`` int8,
  ``node_ptr`` / ``rev_ptr`` / ``rank_edge`` int64, ``tie_rank`` /
  ``lp_field`` uint32, ``rev_seg`` int32), ``edge_flags`` uint8,
  ``rank_shifts`` int64[3], ``attacker`` int64[chunk], ``pins``
  int64[chunk, MAX_PINS, 6], the labels int8/int32/bool as C-contiguous
  ``[chunk, n]`` matrices (updated in place), ``stats`` int64[chunk, 3]
  and the optional ``tied`` bool[chunk, edges].

Bit-identity with the numpy backend is structural, not accidental:

- trees: a row with one candidate takes it; a row with several takes
  the *minimum* key over its secure candidates where SecP applies and
  there are any, and otherwise the minimum key over all of them (the
  numpy mirror's precomputed ``pick``) — minima are order-independent,
  and every candidate sits one level below its row, so walking a slot's
  rows level by level in pool order (a level's several-candidate rows
  settled after its other rows took their first candidate, which no row
  of the same level reads) sees the same already-resolved state the
  whole-level gather sees;
- subtree weights: every parent receives contributions only while its
  children's level is processed (children sit exactly one level deeper)
  and ``0.0 + x == x`` exactly in IEEE-754, so accumulating child by
  child — levels deepest first, a level's rows in pool order —
  reproduces ``np.add.at``'s sequential sum over the mirror's stack
  order bit for bit (batch rows write disjoint rows of ``w``, so which
  batch row goes first does not matter);
- the Jacobi iteration takes the minimum of ``rank_key << 32 |
  tie_rank`` over a segment in one pass, the word the numpy step gathers
  per edge; minima are order-independent.  Only the tie mask needs the
  keys again (the key is a pure function of the labels, so both passes
  agree), and only structure building asks for it.  Which nodes a sweep
  re-decides changes no label: a node not on the frontier would decide
  from the same neighbours' labels, and the same pins, as it did the
  last time it was decided — so it would decide the same, and its part
  of ``tied`` is the same too.
"""

from __future__ import annotations

import numpy as np

from repro.routing.fixpoint import (
    EDGE_APPLIES,
    EDGE_DROPS,
    EDGE_GULLIBLE,
    EDGE_NONPROVIDER,
    MAX_PINS,
    PIN_ATT,
    PIN_CLS,
    PIN_LEN,
    PIN_SEC,
    ROW_CONVERGED,
    ROW_MOVING,
    ROW_REVISITS,
)
from repro.routing.policy import POSITION_BITS, RouteClass

_BLOCKED = np.uint64(2**64 - 1)
_POS_MASK = np.uint64((1 << POSITION_BITS) - 1)
_INVALID_KEY = np.uint32(0xFFFFFFFF)

# The sweep's selection word: rank key above, tie rank below.
_KEY_SHIFT = np.uint64(32)
_RANK_MASK = np.uint64(0xFFFFFFFF)

_SELF = int(RouteClass.SELF)
_CUSTOMER = int(RouteClass.CUSTOMER)
_UNREACHABLE = int(RouteClass.UNREACHABLE)


def trees_stacked(slots, n, order_ptr, order_pool, level_ptr, level_pool,
                  indptr_ptr, indptr_pool, cand_ptr, cands_pool, keys_pool,
                  secure_rows, secp_rows, choice, secure, any_secure):
    """Resolve each batch row's tree over its slot's rows, level by level
    in pool order: every row of a level takes its first candidate, then
    the rows with several are settled."""
    multi = np.empty(int(np.diff(order_ptr)[slots].max(initial=1)), dtype=np.int32)
    for b in range(slots.shape[0]):
        k = slots[b]
        base = b * n
        o = order_ptr[k]
        starts = level_ptr[k]
        last = level_ptr[k + 1] - starts - 1
        ip = indptr_ptr[k]
        c0 = cand_ptr[k]
        s = indptr_pool[ip + level_pool[starts + 1]]
        for level in range(1, last):
            m = 0
            for r in range(level_pool[starts + level], level_pool[starts + level + 1]):
                end = indptr_pool[ip + r + 1]
                if end == s:
                    continue   # the builders never leave a row without one
                f = base + order_pool[o + r]
                c = cands_pool[c0 + s]
                choice[f] = c
                any_secure[f] = secure[base + c]
                secure[f] = secure_rows[f] and secure[base + c]
                multi[m] = r
                m += end - s > 1
                s = end
            for i in range(m):
                r = multi[i]
                lo = c0 + indptr_pool[ip + r]
                end = c0 + indptr_pool[ip + r + 1]
                f = base + order_pool[o + r]
                any_sec = False
                min_all = _BLOCKED
                min_sec = _BLOCKED
                for e in range(lo, end):
                    if keys_pool[e] < min_all:
                        min_all = keys_pool[e]
                    if secure[base + cands_pool[e]]:
                        any_sec = True
                        if keys_pool[e] < min_sec:
                            min_sec = keys_pool[e]
                key = min_sec if secp_rows[f] and any_sec else min_all
                c = cands_pool[lo + np.int64(key & _POS_MASK)]
                choice[f] = c
                any_secure[f] = any_sec
                secure[f] = secure_rows[f] and secure[base + c]


def weights_stacked(slots, n, order_ptr, order_pool, level_ptr, level_pool,
                    choice, node_weights, w):
    """Push subtree weights up to the chosen parents: per batch row,
    levels deepest first, a level's rows in pool order."""
    for b in range(slots.shape[0]):
        k = slots[b]
        base = b * n
        o = order_ptr[k]
        starts = level_ptr[k]
        for level in range(level_ptr[k + 1] - starts - 2, 0, -1):
            for r in range(level_pool[starts + level], level_pool[starts + level + 1]):
                u = order_pool[o + r]
                p = choice[base + u]
                if p >= 0:
                    w[base + p] += w[base + u] + node_weights[u]


def jacobi_converge(v, route_cls, node_ptr, tie_rank, rank_edge, lp_field,
                    rev_ptr, rev_seg, edge_flags, rank_shifts, node_secure,
                    attacker, leak, pins, cap, cls, length, sec, att, stats,
                    tied=None):
    """Converge every row of the chunk to its fixed point, in place.

    Every row carries its own adversary (``attacker[row]``, ``-1`` for
    none — no node id equals it, so such a row is plain single-origin
    BGP): ``att`` tracks which labels descend from the attacker's
    announcement, and ``leak`` lets offers *from* the attacker bypass
    GR2 (a route leak).  ``edge_flags`` holds the static bits of an
    edge ``u <- v`` (``EDGE_*``): ``u`` applies SecP, ``v`` is not
    ``u``'s provider, ``u`` is a simplex stub that believes the
    attacker's word over this provider edge (§2.2.1), ``u`` rejects
    routes it cannot validate.  ``rank_shifts`` places the LP, SP and
    SecP fields in the rank key.  ``pins[row, k]`` is a ``(node,
    fields, cls, length, sec, att)`` record that holds the ``fields``
    labels of ``node`` fixed, on the starting labels and after every
    sweep (``node = -1``: none).  ``tied``, when given, receives the
    per-edge tiebreak-set mask of the converged labels.

    ``stats[row]`` gets ``(status, sweeps, decisions)``: ``ROW_CONVERGED``
    after the sweep that left the row alone, ``ROW_REVISITS`` at the
    sweep that brought a moving row back to the labels of two sweeps
    before, ``ROW_MOVING`` if it still moved at the last sweep it was
    allowed — ``cap``, or one short of the earliest revisit of a row
    before it: only that sweep matters once a chunk is known not to
    converge.  ``decisions`` counts the nodes re-decided.

    A row at a time, with three label buffers: the labels themselves,
    the frontier's new labels (staged, so every decision of a sweep
    reads the labels before it), and each node's labels before its last
    change.  Sweep 1 decides every node; after that only the nodes that
    read a node the sweep before changed (``rev_seg``), since every
    other node would decide from the same neighbours' labels as last
    time.  A node changed by the sweep before that has changed back if
    its new labels are its before-labels; when every change of a sweep
    is such a return, and the sweep before changed as many nodes, the
    row is back at the labels of two sweeps before.
    """
    chunk, n = cls.shape
    shifts = rank_shifts.astype(np.uint32)
    front = np.empty(n, dtype=np.int64)     # the nodes a sweep decides
    moved = np.empty(n, dtype=np.int64)     # the nodes a sweep changed
    new_cls = np.empty(n, dtype=np.int8)    # staged, by frontier place
    new_len = np.empty(n, dtype=np.int32)
    new_sec = np.empty(n, dtype=np.bool_)
    new_att = np.empty(n, dtype=np.bool_)
    old_cls = np.empty(n, dtype=np.int8)    # before the last change
    old_len = np.empty(n, dtype=np.int32)
    old_sec = np.empty(n, dtype=np.bool_)
    old_att = np.empty(n, dtype=np.bool_)
    last = np.zeros(n, dtype=np.int64)      # stamp of the last change
    mark = np.zeros(n, dtype=np.int64)      # stamp of the last frontier
    stamp = 0                               # sweeps run, over all rows
    limit = cap
    for row in range(chunk):
        att_row = attacker[row]
        for k in range(MAX_PINS):
            u = pins[row, k, 0]
            if u >= 0:
                cls[row, u], length[row, u], sec[row, u], att[row, u] = _pinned(
                    pins[row, k], cls[row, u], length[row, u], sec[row, u], att[row, u]
                )
        for i in range(n):
            front[i] = i
        nf = n
        prev_changed = -1
        status = ROW_MOVING
        sweep = 0
        decisions = 0
        while sweep < limit:
            sweep += 1
            stamp += 1
            for i in range(nf):
                u = front[i]
                label = _decide(u, row, att_row, leak, v, route_cls, node_ptr,
                                tie_rank, rank_edge, lp_field, edge_flags,
                                shifts, node_secure, cls, length, sec, att, tied)
                for k in range(MAX_PINS):
                    if pins[row, k, 0] == u:
                        label = _pinned(pins[row, k], *label)
                new_cls[i], new_len[i], new_sec[i], new_att[i] = label
            decisions += nf
            changed = 0
            back = 0
            for i in range(nf):
                u = front[i]
                if (new_cls[i] == cls[row, u] and new_len[i] == length[row, u]
                        and new_sec[i] == sec[row, u] and new_att[i] == att[row, u]):
                    continue
                back += (
                    last[u] == stamp - 1 and new_cls[i] == old_cls[u]
                    and new_len[i] == old_len[u] and new_sec[i] == old_sec[u]
                    and new_att[i] == old_att[u]
                )
                old_cls[u], old_len[u] = cls[row, u], length[row, u]
                old_sec[u], old_att[u] = sec[row, u], att[row, u]
                last[u] = stamp
                cls[row, u], length[row, u] = new_cls[i], new_len[i]
                sec[row, u], att[row, u] = new_sec[i], new_att[i]
                moved[changed] = u
                changed += 1
            if changed == 0:
                status = ROW_CONVERGED
                break
            if changed == prev_changed and back == changed:
                status = ROW_REVISITS
                limit = sweep - 1
                break
            prev_changed = changed
            # the next frontier: every reader of a changed node, once
            nf = 0
            for i in range(changed):
                x = moved[i]
                for j in range(rev_ptr[x], rev_ptr[x + 1]):
                    u = rev_seg[j]
                    if mark[u] != stamp:
                        mark[u] = stamp
                        front[nf] = u
                        nf += 1
        stats[row, 0] = status
        stats[row, 1] = sweep
        stats[row, 2] = decisions


def _pinned(pin, c, ln, s, a):
    """Labels ``(c, ln, s, a)`` with the fields ``pin`` holds put in."""
    fields = pin[1]
    if fields & PIN_CLS:
        c = pin[2]
    if fields & PIN_LEN:
        ln = pin[3]
    if fields & PIN_SEC:
        s = pin[4] != 0
    if fields & PIN_ATT:
        a = pin[5] != 0
    return c, ln, s, a


def _decide(u, row, att_row, leak, v, route_cls, node_ptr, tie_rank,
            rank_edge, lp_field, edge_flags, shifts, node_secure, cls,
            length, sec, att, tied):
    """Node ``u``'s new ``(cls, length, sec, att)``: the offer of its
    segment with the least selection word, rank key above, tie rank
    below."""
    lo = node_ptr[u]
    hi = node_ptr[u + 1]
    best = _BLOCKED
    for e in range(lo, hi):
        k = _offer_key(e, row, att_row, leak, v, lp_field, edge_flags,
                       shifts, cls, length, sec, att)
        if k != _INVALID_KEY:
            word = (np.uint64(k) << _KEY_SHIFT) | np.uint64(tie_rank[e])
            if word < best:
                best = word
    if tied is not None:
        # the tie mask is the one thing that needs the keys twice
        for e in range(lo, hi):
            k = _offer_key(e, row, att_row, leak, v, lp_field, edge_flags,
                           shifts, cls, length, sec, att)
            tied[row, e] = k != _INVALID_KEY and np.uint64(k) == best >> _KEY_SHIFT
    if best == _BLOCKED:
        return _UNREACHABLE, -1, False, False
    eidx = rank_edge[lo + np.int64(best & _RANK_MASK)]
    vv = v[eidx]
    seen = sec[row, vv] or (
        edge_flags[eidx] & EDGE_GULLIBLE and vv == att_row and att[row, vv]
    )
    return route_cls[eidx], length[row, vv] + 1, node_secure[u] and seen, att[row, vv]


def _offer_key(e, row, att_row, leak, v, lp_field, edge_flags, shifts,
               cls, length, sec, att):
    """Packed uint32 rank key of one offer; ``_INVALID_KEY`` if barred."""
    vv = v[e]
    flags = edge_flags[e]
    cv = cls[row, vv]
    if cv == _UNREACHABLE:
        return _INVALID_KEY
    # GR2: only customer routes / the origin's own prefix are exported
    # across peerings and up to providers — with the leak escape hatch:
    # the attacker exports its selected route to every neighbor.
    if flags & EDGE_NONPROVIDER and not (
        cv == _CUSTOMER or cv == _SELF or (leak and vv == att_row)
    ):
        return _INVALID_KEY
    # end-state filtering: validators reject what cannot be validated
    # (genuine security only — gullible belief does not survive ROV).
    if flags & EDGE_DROPS and not sec[row, vv]:
        return _INVALID_KEY
    lv = length[row, vv]
    if lv < 0:
        lv = 0
    seen = sec[row, vv] or (
        flags & EDGE_GULLIBLE and vv == att_row and att[row, vv]
    )
    secp = np.uint32(0 if flags & EDGE_APPLIES and seen else 1)
    return (
        (np.uint32(lp_field[e]) << shifts[0])
        | (np.uint32(lv + 1) << shifts[1])
        | (secp << shifts[2])
    )
