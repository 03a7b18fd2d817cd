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
  ``cand_ptr[k]`` in ``cands_pool``.  Pools: ``*_ptr`` int64,
  ``order_pool`` / ``level_pool`` / ``indptr_pool`` / ``cands_pool``
  int32 (an ``indptr`` run counts one slot's candidates).  A row's
  candidates are in tie-break order (``repro.routing.tree.tie_order``):
  TB takes the first, SecP the first secure one.  Batch row ``b`` resolves
  slot ``slots[b]`` into row ``b`` of the C-contiguous ``[batch, n]``
  outputs ``choice`` (int32), ``secure`` / ``any_secure`` (bool) and
  ``w`` (float64), taken flat.  ``trees_stacked`` writes its rows
  whole (cleared, then resolved) and, given ``node_weights`` (float64
  ``[n]``) and ``w``, their subtree weights too; ``weights_stacked``
  adds into a ``w`` its caller zeroed.  ``secure_rows`` / ``secp_rows``
  are ``node_secure`` and ``node_secure & breaks_ties``, each ``[n]``
  when the whole batch shares it (read with stride 0) or a flat
  ``[batch, n]`` with a row per batch row (stride ``n``:
  ``repro.routing.backends.mask_stride``);
- the Jacobi iteration takes the edge table of
  ``repro.routing.fixpoint`` (``v`` int32, ``route_cls`` int8,
  ``node_ptr`` / ``rev_ptr`` / ``rev_edge`` int64, ``lp_field`` uint32,
  ``rev_seg`` int32; each segment in tie-break order), ``edge_flags`` uint8,
  ``rank_shifts`` int64[3], ``attacker`` int64[chunk], ``pins``
  int64[chunk, MAX_PINS, 6], the labels int8/int32/bool as C-contiguous
  ``[chunk, n]`` matrices (updated in place), ``stats`` int64[chunk, 3]
  and the optional ``tied`` bool[chunk, edges];
- the structure build takes the ``CompiledGraph`` (its three CSRs,
  int64 ``*_indptr`` and int32 ``*_idx``) and a chunk of destinations
  (int64, any order, repeats allowed).  ``build_structures`` returns
  the chunk's 12 ``ARENA_FIELDS``, each allocated exactly once its
  size is known.  Its two halves are kernels of their own, so the
  arena's assembly can place a chunk before any pool exists:
  ``structure_labels`` writes the chunk's ``[rows, n]`` labels (``cls``
  and ``lengths``, both int8: a route longer than ``MAX_ROUTE_LENGTH``
  hops raises ``RouteTooLongError``) and ``sizes`` int64[rows, 3]
  (reachable nodes, level_starts entries, candidates per row) in
  place, and ``structure_pools`` fills the rest
  of the chunk's fields, handed over as a dict whose ``*_ptr`` tables
  start at 0 — its own arrays, or its slices of the arena's.

Bit-identity with the numpy backend is structural, not accidental:

- trees: a row takes its first secure candidate where SecP applies and
  there are any, and otherwise its first candidate — positions in the
  same pools on every tier, and every candidate sits one level below its
  row, so walking a slot's
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
  batch row goes first does not matter, nor whether a row's weights
  follow its own tree at once or every row's tree first);
- the Jacobi iteration takes the minimum of ``rank_key << 32 | e``
  over a segment in one pass, the word the numpy step gathers per edge;
  minima are order-independent.  Only the tie mask needs the keys again
  (the key is a pure function of the labels, so both passes agree), and
  only structure building asks for it.  Which nodes a sweep
  re-decides changes no label: a node not on the frontier would decide
  from the same neighbours' labels, and the same pins, as it did the
  last time it was decided — so it would decide the same, and its part
  of ``tied`` is the same too.  On a row that starts blank that holds
  from sweep 1: a node that neither is pinned nor reads a pin sees
  only unreachable neighbours, so it would decide blank with no tie;
- the structure build settles a destination's nodes pass by pass in
  order of their route's length — the order in which the numpy passes
  relax whole levels — so every node takes the same class and length.
  A node's tiebreak set is then every neighbour, on the one CSR its
  class allows, that holds a route it may export to the node and is one
  hop shorter: exactly the offers that reached the node at the level it
  was settled.  Rows are counted by length and placed in node order,
  i.e. by ``(length, node)``, and each row's candidates are pulled in
  segment order from CSRs whose segments are in tie-break order
  (``repro.routing.tree.tie_ordered``): the orders the numpy assembler
  sorts into.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.routing.backends import mask_stride
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
from repro.routing.policy import RouteClass
from repro.routing.tree import MAX_ROUTE_LENGTH, PoolsAssembly, route_too_long, tie_ordered

_BLOCKED = np.uint64(2**64 - 1)
_INVALID_KEY = np.uint32(0xFFFFFFFF)

# The sweep's selection word: rank key above, edge index below.
_KEY_SHIFT = np.uint64(32)
_EDGE_MASK = np.uint64(0xFFFFFFFF)

_SELF = int(RouteClass.SELF)
_CUSTOMER = int(RouteClass.CUSTOMER)
_PEER = int(RouteClass.PEER)
_PROVIDER = int(RouteClass.PROVIDER)
_UNREACHABLE = int(RouteClass.UNREACHABLE)


def trees_stacked(slots, n, order_ptr, order_pool, level_ptr, level_pool,
                  indptr_ptr, indptr_pool, cand_ptr, cands_pool,
                  secure_rows, secp_rows, choice, secure, any_secure,
                  node_weights=None, w=None):
    """Resolve each batch row's tree over its slot's rows, one batch row
    at a time: clear the row's outputs, seed its destination's
    security, then level by level in pool order every row takes its
    first candidate, TB's pick, and the rows with several are settled:
    SecP's pick is the first secure candidate.  Given ``node_weights``
    and ``w``, the row's subtree weights follow at once
    (:func:`weights_stacked`'s loop), so the row is walked while it is
    still in cache.

    A state mask is ``[n]``, one state for the whole batch (stride 0),
    or a flat ``[batch, n]`` (stride ``n``); the selection takes no
    branch on a candidate's security: the first secure candidate is
    found walking the row back to front."""
    sec_stride = mask_stride(secure_rows, len(slots), n)
    secp_stride = mask_stride(secp_rows, len(slots), n)
    multi = np.empty(int(np.diff(order_ptr)[slots].max(initial=1)), dtype=np.int32)
    for b in range(slots.shape[0]):
        k = slots[b]
        base = b * n
        sec_in = b * sec_stride
        secp_in = b * secp_stride
        o = order_ptr[k]
        starts = level_ptr[k]
        last = level_ptr[k + 1] - starts - 1
        ip = indptr_ptr[k]
        c0 = cand_ptr[k]
        choice[base:base + n] = -1
        secure[base:base + n] = False
        any_secure[base:base + n] = False
        dest = order_pool[o]   # row 0
        secure[base + dest] = secure_rows[sec_in + dest]
        s = indptr_pool[ip + level_pool[starts + 1]]
        for level in range(1, last):
            m = 0
            for r in range(level_pool[starts + level], level_pool[starts + level + 1]):
                end = indptr_pool[ip + r + 1]
                if end == s:
                    continue   # the builders never leave a row without one
                u = order_pool[o + r]
                c = cands_pool[c0 + s]
                choice[base + u] = c
                any_secure[base + u] = secure[base + c]
                secure[base + u] = secure_rows[sec_in + u] & secure[base + c]
                multi[m] = r
                m += end - s > 1
                s = end
            for i in range(m):
                r = multi[i]
                lo = c0 + indptr_pool[ip + r]
                end = c0 + indptr_pool[ip + r + 1]
                u = order_pool[o + r]
                first = end
                for e in range(end - 1, lo - 1, -1):
                    first = e if secure[base + cands_pool[e]] else first
                any_sec = first < end
                c = cands_pool[first if secp_rows[secp_in + u] & any_sec else lo]
                choice[base + u] = c
                any_secure[base + u] = any_sec
                secure[base + u] = secure_rows[sec_in + u] & secure[base + c]
        if w is not None:
            w[base:base + n] = 0.0
            _weigh_row(order_pool, o, level_pool, starts, last, choice, base,
                       node_weights, w)


def weights_stacked(slots, n, order_ptr, order_pool, level_ptr, level_pool,
                    choice, node_weights, w):
    """Push subtree weights up to the chosen parents: per batch row,
    levels deepest first, a level's rows in pool order.  ``w`` starts
    zeroed (the caller's)."""
    for b in range(slots.shape[0]):
        k = slots[b]
        starts = level_ptr[k]
        _weigh_row(order_pool, order_ptr[k], level_pool, starts,
                   level_ptr[k + 1] - starts - 1, choice, b * n, node_weights, w)


def _weigh_row(order_pool, o, level_pool, starts, last, choice, base,
               node_weights, w):
    """One batch row's subtree weights, from its levels ``last - 1`` up
    to 1: each row adds its own to its chosen parent's."""
    for level in range(last - 1, 0, -1):
        for r in range(level_pool[starts + level], level_pool[starts + level + 1]):
            u = order_pool[o + r]
            p = choice[base + u]
            if p >= 0:
                w[base + p] += w[base + u] + node_weights[u]


def jacobi_converge(v, route_cls, node_ptr, lp_field, rev_ptr, rev_seg,
                    rev_edge, edge_flags, rank_shifts, node_secure, attacker,
                    leak, pins, cap, cls, length, sec, att, stats, tied=None):
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
    change.  Every node keeps its least selection word, ``best[u]``, and
    its decision is a function of that word and of the labels of the
    word's source alone.  Sweep 1 scans the segment of every node.
    After a sweep, each node ``x`` it changed is *pushed*: along its
    reverse slots (``rev_seg`` names the reader ``u``, ``rev_edge`` the
    edge) ``x``'s new word is offered, and ``u`` is queued for the next
    sweep only if the word undercuts ``cand[u]`` — ``best[u]``, or the
    least word pushed to ``u`` since — or if ``x`` is the source of
    ``u``'s best edge (the edge ``best[u]``'s low half names), whose
    labels ``u`` copies even when its word stays.  No other node can
    move: its least word and that word's source are as before.
    A queued node scans its segment again only if its best source's
    word got worse (or barred), since then an offer that was not the
    least may be now; otherwise its least word is ``cand[u]``.  A row
    that starts blank (every label unreachable, as a structure build's
    and an attack's do) seeds sweep 1 with its pins and their readers
    alone: every other node reads only unreachable neighbours, so it
    would decide the blank labels it holds, and its least word is the
    all-ones of no offer.  ``tied`` is written once per row, after its
    last sweep, from ``best``: a converged row's least words are those
    of its final labels.  A node changed by the sweep before that has
    changed back if its new labels are its before-labels; when every
    change of a sweep is such a return, and the sweep before changed as
    many nodes, the row is back at the labels of two sweeps before.
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
    best = np.empty(n, dtype=np.uint64)     # each node's least word
    cand = np.empty(n, dtype=np.uint64)     # ... and the least pushed since
    scan = np.empty(n, dtype=np.bool_)      # its next decision scans
    stamp = 0                               # sweeps run, over all rows
    limit = cap
    for row in range(chunk):
        att_row = attacker[row]
        blank = True
        for i in range(n):
            if (cls[row, i] != _UNREACHABLE or length[row, i] != -1
                    or sec[row, i] or att[row, i]):
                blank = False
                break
        for k in range(MAX_PINS):
            u = pins[row, k, 0]
            if u >= 0:
                cls[row, u], length[row, u], sec[row, u], att[row, u] = _pinned(
                    pins[row, k], cls[row, u], length[row, u], sec[row, u], att[row, u]
                )
        # a node sweep 1 leaves out is offered nothing
        for i in range(n):
            best[i] = cand[i] = _BLOCKED
            scan[i] = False
        nf = 0
        if blank:
            # every node but the pins and their readers reads only
            # unreachable neighbours, which offer it nothing: it would
            # decide the blank labels it holds, with no tie
            stamp += 1
            for k in range(MAX_PINS):
                x = pins[row, k, 0]
                if x < 0:
                    continue
                if mark[x] != stamp:
                    mark[x] = stamp
                    front[nf] = x
                    nf += 1
                for j in range(rev_ptr[x], rev_ptr[x + 1]):
                    u = rev_seg[j]
                    if mark[u] != stamp:
                        mark[u] = stamp
                        front[nf] = u
                        nf += 1
        else:
            for i in range(n):
                front[i] = i
            nf = n
        for i in range(nf):
            scan[front[i]] = True   # sweep 1 scans its whole frontier
        prev_changed = -1
        status = ROW_MOVING
        sweep = 0
        decisions = 0
        while sweep < limit:
            sweep += 1
            stamp += 1
            for i in range(nf):
                u = front[i]
                word = cand[u]
                if scan[u]:
                    word = _BLOCKED
                    for e in range(node_ptr[u], node_ptr[u + 1]):
                        word = min(word, _offer_word(
                            e, row, att_row, leak, v, lp_field, edge_flags,
                            shifts, cls, length, sec, att,
                        ))
                    scan[u] = False
                best[u] = cand[u] = word
                label = _decide(u, word, row, att_row, v, route_cls,
                                edge_flags, node_secure, length, sec, att)
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
            # the next frontier: push each changed node's new offers to
            # its readers, and queue those they can move, once
            nf = 0
            for i in range(changed):
                x = moved[i]
                for j in range(rev_ptr[x], rev_ptr[x + 1]):
                    u = rev_seg[j]
                    e = rev_edge[j]
                    word = _offer_word(e, row, att_row, leak, v, lp_field,
                                       edge_flags, shifts, cls, length, sec,
                                       att)
                    if (best[u] & _EDGE_MASK) == e:
                        scan[u] |= word > best[u]   # its best source: scan if worse
                    elif word >= cand[u]:
                        continue
                    cand[u] = min(cand[u], word)
                    if mark[u] != stamp:
                        mark[u] = stamp
                        front[nf] = u
                        nf += 1
        if tied is not None:
            for u in range(n):
                for e in range(node_ptr[u], node_ptr[u + 1]):
                    k = _offer_key(e, row, att_row, leak, v, lp_field,
                                   edge_flags, shifts, cls, length, sec, att)
                    tied[row, e] = (
                        k != _INVALID_KEY and np.uint64(k) == best[u] >> _KEY_SHIFT
                    )
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


def _decide(u, word, row, att_row, v, route_cls, edge_flags, node_secure,
            length, sec, att):
    """Node ``u``'s new ``(cls, length, sec, att)`` from its least
    selection word ``word``: the offer of the edge the word's low half
    names, or no route if every offer is barred."""
    if word == _BLOCKED:
        return _UNREACHABLE, -1, False, False
    eidx = np.int64(word & _EDGE_MASK)
    vv = v[eidx]
    seen = sec[row, vv] or (
        edge_flags[eidx] & EDGE_GULLIBLE and vv == att_row and att[row, vv]
    )
    return route_cls[eidx], length[row, vv] + 1, node_secure[u] and seen, att[row, vv]


def _offer_word(e, row, att_row, leak, v, lp_field, edge_flags, shifts,
                cls, length, sec, att):
    """Selection word ``rank_key << 32 | e`` of one offer; ``_BLOCKED``
    if barred."""
    k = _offer_key(e, row, att_row, leak, v, lp_field, edge_flags, shifts,
                   cls, length, sec, att)
    if k == _INVALID_KEY:
        return _BLOCKED
    return (np.uint64(k) << _KEY_SHIFT) | np.uint64(e)


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


def build_structures(cg, dests):
    """The 12 pooled fields of the destination chunk ``dests``, in two
    walks per destination: the labels, which size its pools, then the
    pools."""
    return PoolsAssembly.labelled(cg, dests, sys.modules[__name__])


def structure_labels(cg, dests, cls, length, sizes):
    """Passes 1-3 toward each destination of the chunk into its row of
    the ``[rows, n]`` labels, and the row's pool sizes into ``sizes``."""
    sizes[...] = 0
    seq = np.empty(max(cg.n, 1), dtype=np.int32)
    for row in range(len(dests)):
        if not _route_labels(cg, dests[row], cls[row], length[row], seq, sizes[row]):
            raise route_too_long(int(dests[row]))


def structure_pools(cg, arrays):
    """Every slot's pools from its labels, into ``arrays`` (the chunk's
    12 fields, its offset tables starting at 0), over the graph's
    tie-ordered CSRs."""
    ordered = tie_ordered(cg)
    for row in range(len(arrays["order_ptr"]) - 1):
        _pool_row(cg, ordered, arrays, row)


def _offer(u, route_cls, at, cls, length, size):
    """Offer ``u`` a route of ``route_cls`` and length ``at``: a node
    without a route takes it (1: ``u`` is settled), a node holding
    exactly that route ties with it.  Either way it is a candidate.  A
    route longer than the int8 lengths hold settles nothing (-1): a
    wrapped length would misorder the walk before any later check."""
    if cls[u] == _UNREACHABLE:
        if at > MAX_ROUTE_LENGTH:
            return -1
        cls[u] = route_cls
        length[u] = at
        size[2] += 1
        return 1
    if cls[u] == route_cls and length[u] == at:
        size[2] += 1
    return 0


def _route_labels(cg, dest, cls, length, seq, size):
    """Passes 1-3 toward ``dest`` into one row of labels.  ``seq`` lists
    the nodes as they are settled — the customer cone breadth first,
    then the peer routes, then the provider routes — each run in length
    order.  ``size`` gets the row's reachable nodes, level_starts
    entries and tiebreak candidates.  Returns False when a route is
    longer than :data:`~repro.routing.tree.MAX_ROUTE_LENGTH` hops."""
    for u in range(cg.n):
        cls[u] = _UNREACHABLE
        length[u] = -1
    cls[dest] = _SELF
    length[dest] = 0
    seq[0] = dest
    end = 1
    over = False
    # pass 1: customer routes, breadth first up provider edges
    i = 0
    while i < end:
        v = seq[i]
        i += 1
        for e in range(cg.prov_indptr[v], cg.prov_indptr[v + 1]):
            got = _offer(cg.prov_idx[e], _CUSTOMER, int(length[v]) + 1, cls, length, size)
            if got > 0:
                seq[end] = cg.prov_idx[e]
                end += 1
            over |= got < 0
    cone = end
    # pass 2: one peer hop off the cone, nearest level first
    for i in range(cone):
        v = seq[i]
        for e in range(cg.peer_indptr[v], cg.peer_indptr[v + 1]):
            got = _offer(cg.peer_idx[e], _PEER, int(length[v]) + 1, cls, length, size)
            if got > 0:
                seq[end] = cg.peer_idx[e]
                end += 1
            over |= got < 0
    peers = end
    # pass 3: provider routes down customer edges by increasing length,
    # the three runs of seq (the last one growing) merged
    a, b, c = 0, cone, peers
    deepest = 0
    while a < cone or b < peers or c < end:
        la = length[seq[a]] if a < cone else -1
        lb = length[seq[b]] if b < peers else -1
        lc = length[seq[c]] if c < end else -1
        if la >= 0 and (lb < 0 or la <= lb) and (lc < 0 or la <= lc):
            v = seq[a]
            a += 1
        elif lb >= 0 and (lc < 0 or lb <= lc):
            v = seq[b]
            b += 1
        else:
            v = seq[c]
            c += 1
        deepest = int(length[v])
        for e in range(cg.cust_indptr[v], cg.cust_indptr[v + 1]):
            got = _offer(cg.cust_idx[e], _PROVIDER, deepest + 1, cls, length, size)
            if got > 0:
                seq[end] = cg.cust_idx[e]
                end += 1
            over |= got < 0
    if over:
        return False
    size[0] = end
    size[1] = deepest + 2
    return True


def _pool_row(cg, ordered, arrays, row):
    """Slot ``row`` of the pools: its rows by ``(length, node)``, its
    level_starts, and per row the tiebreak set, pulled in segment order
    from ``ordered``, the CSR index arrays in tie-break order."""
    n = cg.n
    cls = arrays["cls"][row]
    length = arrays["lengths"][row]
    row_of = arrays["row_of"][row]
    order = arrays["order_pool"][arrays["order_ptr"][row]:arrays["order_ptr"][row + 1]]
    starts = arrays["level_pool"][arrays["level_ptr"][row]:arrays["level_ptr"][row + 1]]
    indptr = arrays["indptr_pool"][arrays["indptr_ptr"][row]:arrays["indptr_ptr"][row + 1]]
    cands = arrays["cands_pool"][arrays["cand_ptr"][row]:arrays["cand_ptr"][row + 1]]
    # a counting sort by length: count, sum, place in node order (which
    # leaves each entry where the next length starts), shift back
    levels = starts.shape[0]
    for i in range(levels):
        starts[i] = 0
    for u in range(n):
        if length[u] >= 0:
            starts[int(length[u]) + 1] += 1
    for i in range(1, levels):
        starts[i] += starts[i - 1]
    for u in range(n):
        if length[u] < 0:
            row_of[u] = -1
        else:
            r = starts[length[u]]
            starts[length[u]] += 1
            order[r] = u
            row_of[u] = r
    for i in range(levels - 1, 0, -1):
        starts[i] = starts[i - 1]
    starts[0] = 0
    # a row pulls its candidates from the one CSR its class allows:
    # customers or peers whose route they export to it (a customer
    # route, or the destination's own), providers with any route — one
    # hop shorter all
    cust_idx, peer_idx, prov_idx = ordered
    pos = 0
    indptr[0] = 0
    for r in range(order.shape[0]):
        u = order[r]
        cu = cls[u]
        if cu != _SELF:
            if cu == _CUSTOMER:
                ptr, idx = cg.cust_indptr, cust_idx
            elif cu == _PEER:
                ptr, idx = cg.peer_indptr, peer_idx
            else:
                ptr, idx = cg.prov_indptr, prov_idx
            for e in range(ptr[u], ptr[u + 1]):
                v = idx[e]
                if length[v] == int(length[u]) - 1 and (
                    cu == _PROVIDER or cls[v] == _CUSTOMER or cls[v] == _SELF
                ):
                    cands[pos] = v
                    pos += 1
        indptr[r + 1] = pos
