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
- the sweep: ``tie_rank`` / ``lp_field`` uint32, ``rank_edge`` int64,
  ``edge_flags`` uint8, labels int8/int32/bool as C-contiguous
  ``[batch, n]`` matrices, ``attacker`` int64, rank metadata int64 codes
  + uint32 widths.

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
- the Jacobi sweep takes the minimum of ``rank_key << 32 | tie_rank``
  over a segment in one pass, the word the numpy step gathers per edge;
  minima are order-independent.  Only the tie mask needs the keys again
  (the key is a pure function of the labels, so both passes agree), and
  only structure building asks for it.
"""

from __future__ import annotations

import numpy as np

from repro.routing.policy import POSITION_BITS, RouteClass

_BLOCKED = np.uint64(2**64 - 1)
_POS_MASK = np.uint64(0xFFFF)       # (1 << POSITION_BITS) - 1
_INVALID_KEY = np.uint32(0xFFFFFFFF)

# The sweep's selection word: rank key above, tie rank below.
_KEY_SHIFT = np.uint64(32)
_RANK_MASK = np.uint64(0xFFFFFFFF)

# Bits of the sweep's ``edge_flags`` (set by fixpoint.JacobiDriver).
_APPLIES, _NONPROVIDER, _GULLIBLE, _DROPS = 1, 2, 4, 8

# The C code hardcodes these as literals, so pin them to the enum.
_SELF = 3          # RouteClass.SELF
_CUSTOMER = 2      # RouteClass.CUSTOMER
_UNREACHABLE = -1  # RouteClass.UNREACHABLE

if (_SELF, _CUSTOMER, _UNREACHABLE) != (
    int(RouteClass.SELF), int(RouteClass.CUSTOMER), int(RouteClass.UNREACHABLE)
) or int(_POS_MASK) != (1 << POSITION_BITS) - 1:  # pragma: no cover
    raise AssertionError(
        "compiled-kernel constants drifted from repro.routing.policy; "
        "update _loops.py and the C source in cext_impl.py together"
    )


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


def jacobi_sweep(v, route_cls, seg_starts, seg_sizes, seg_u, tie_rank,
                 rank_edge, lp_field, edge_flags, rank_codes, rank_widths,
                 attacker, leak, cls, length, sec, att, node_secure,
                 new_cls, new_len, new_sec, new_att, tied=None):
    """One synchronous best-response step over the segment-sorted edges.

    Every row carries its own adversary (``attacker[row]``, ``-1`` for
    none — no node id equals it, so such a row is plain single-origin
    BGP): ``att`` tracks which labels descend from the attacker's
    announcement, and ``leak`` lets offers *from* the attacker bypass
    GR2 (a route leak).  ``edge_flags`` holds the static bits of an
    edge ``u <- v``: ``u`` applies SecP, ``v`` is not ``u``'s provider,
    ``u`` is a simplex stub that believes the attacker's word over this
    provider edge (§2.2.1), ``u`` rejects routes it cannot validate.
    The caller pins the origins' labels after each step.  ``tied``,
    when given, receives the per-edge tiebreak-set mask.
    """
    for row in range(cls.shape[0]):
        att_row = attacker[row]
        for s in range(seg_starts.shape[0]):
            lo = seg_starts[s]
            m = seg_sizes[s]
            uu = seg_u[s]
            # the least selection word: rank key above, tie rank below
            best = _BLOCKED
            for e in range(lo, lo + m):
                k = _offer_key(e, row, att_row, leak, v, lp_field,
                               edge_flags, rank_codes, rank_widths,
                               cls, length, sec, att)
                if k != _INVALID_KEY:
                    word = (np.uint64(k) << _KEY_SHIFT) | np.uint64(tie_rank[e])
                    if word < best:
                        best = word
            if tied is not None:
                # the tie mask is the one thing that needs the keys twice
                for e in range(lo, lo + m):
                    k = _offer_key(e, row, att_row, leak, v, lp_field,
                                   edge_flags, rank_codes, rank_widths,
                                   cls, length, sec, att)
                    tied[row, e] = (
                        k != _INVALID_KEY and np.uint64(k) == best >> _KEY_SHIFT
                    )
            if best == _BLOCKED:
                new_cls[row, uu] = _UNREACHABLE
                new_len[row, uu] = -1
                new_sec[row, uu] = False
                new_att[row, uu] = False
                continue
            eidx = rank_edge[lo + np.int64(best & _RANK_MASK)]
            vv = v[eidx]
            seen = sec[row, vv] or (
                edge_flags[eidx] & _GULLIBLE and vv == att_row and att[row, vv]
            )
            new_cls[row, uu] = route_cls[eidx]
            new_len[row, uu] = length[row, vv] + 1
            new_sec[row, uu] = node_secure[uu] and seen
            new_att[row, uu] = att[row, vv]


def _offer_key(e, row, att_row, leak, v, lp_field, edge_flags,
               rank_codes, rank_widths, cls, length, sec, att):
    """Packed uint32 rank key of one offer; ``_INVALID_KEY`` if barred."""
    vv = v[e]
    flags = edge_flags[e]
    cv = cls[row, vv]
    if cv == _UNREACHABLE:
        return _INVALID_KEY
    # GR2: only customer routes / the origin's own prefix are exported
    # across peerings and up to providers — with the leak escape hatch:
    # the attacker exports its selected route to every neighbor.
    if flags & _NONPROVIDER and not (
        cv == _CUSTOMER or cv == _SELF or (leak and vv == att_row)
    ):
        return _INVALID_KEY
    # end-state filtering: validators reject what cannot be validated
    # (genuine security only — gullible belief does not survive ROV).
    if flags & _DROPS and not sec[row, vv]:
        return _INVALID_KEY
    lv = length[row, vv]
    if lv < 0:
        lv = 0
    sp = np.uint32(lv + 1)
    seen = sec[row, vv] or (
        flags & _GULLIBLE and vv == att_row and att[row, vv]
    )
    if flags & _APPLIES and seen:
        secp = np.uint32(0)
    else:
        secp = np.uint32(1)
    key = np.uint32(0)
    for i in range(rank_codes.shape[0]):
        code = rank_codes[i]
        if code == 0:
            field = np.uint32(lp_field[e])
        elif code == 1:
            field = sp
        else:
            field = secp
        key = np.uint32((key << rank_widths[i]) | field)
    return key
