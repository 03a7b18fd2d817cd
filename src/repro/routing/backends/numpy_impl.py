"""Vectorised numpy kernels — the differential ground truth.

The bodies of ``repro.routing.arena.compute_trees_batched`` and
``repro.routing.arena.subtree_weights_batched`` and the Jacobi step that
:class:`repro.routing.fixpoint.JacobiDriver` iterates, kept here so
every other backend has a fixed point of comparison: the parity suite
asserts **bit-identical** outputs against this module.

The contract is the *outputs*, not the instruction sequence: integer
and boolean results are exact whatever the order of evaluation, so how
a level is cut up (one-candidate rows apart from multi-candidate rows,
rows in blocks) is free to change.  The one thing that is not free is
each parent's **summation order** in ``weights_stacked``: its children
are added in stack order (batch row, then BFS row), one after the other
— float64 addition does not associate, so a different order is a
different ground truth (``perf/golden.json`` and the ``uint64`` views in
the parity suite would move).

All three kernels share the calling convention documented in
:mod:`repro.routing.backends._loops` (same signatures, same dtypes,
outputs written in place).
"""

from __future__ import annotations

import numpy as np

from repro.routing.policy import POSITION_BITS, RouteClass

_POS_MASK = np.uint64((1 << POSITION_BITS) - 1)
_BLOCKED = np.uint64(2**64 - 1)
_INVALID_A = np.uint32(0xFFFFFFFF)

#: Rows per block of the weights pass.  The temporaries stay cache-sized
#: however many rows a level holds (measured at N=1000: 13 ms against 23
#: unblocked), and ``np.add.at`` applies the blocks' rows in the same
#: order as one call over the whole level would.
_BLOCK_ROWS = 1 << 14

_SELF = int(RouteClass.SELF)
_CUSTOMER = int(RouteClass.CUSTOMER)
_UNREACHABLE = int(RouteClass.UNREACHABLE)


def trees_stacked(
    one_off: np.ndarray,
    multi_off: np.ndarray,
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
    """Resolve every stacked path-length level of the batched tree kernel."""
    one_off, multi_off = one_off.tolist(), multi_off.tolist()
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
    off: np.ndarray,
    flat: np.ndarray,
    nodes: np.ndarray,
    choice: np.ndarray,
    node_weights: np.ndarray,
    w: np.ndarray,
) -> None:
    """Push subtree weights up to the chosen parents, deepest level first."""
    off = off.tolist()
    for level in range(len(off) - 2, -1, -1):
        for lo in range(off[level], off[level + 1], _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, off[level + 1])
            f, u = flat[lo:hi], nodes[lo:hi]
            vals = w[f]
            vals += node_weights[u]
            parents = f - u        # the batch row's base ...
            parents += choice[f]   # ... plus the chosen next hop
            np.add.at(w, parents, vals)


def jacobi_sweep(
    u: np.ndarray,
    v: np.ndarray,
    route_cls: np.ndarray,
    seg_starts: np.ndarray,
    seg_sizes: np.ndarray,
    seg_u: np.ndarray,
    tie_key: np.ndarray,
    lp_field: np.ndarray,
    is_provider_edge: np.ndarray,
    rank_codes: np.ndarray,
    rank_widths: np.ndarray,
    attacker: np.ndarray,
    gullible_edge: np.ndarray,
    validators: np.ndarray,
    leak: bool,
    drop: bool,
    cls: np.ndarray,
    length: np.ndarray,
    sec: np.ndarray,
    att: np.ndarray,
    applies_edge: np.ndarray,
    node_secure: np.ndarray,
    new_cls: np.ndarray,
    new_len: np.ndarray,
    new_sec: np.ndarray,
    new_att: np.ndarray,
    tied: np.ndarray | None = None,
) -> None:
    """One synchronous best-response step over the edge table.

    Every row carries its own adversary (``attacker[row]``, ``-1`` for
    none): ``att`` marks labels descending from the attacker's
    announcement, ``gullible_edge`` the provider edges where a simplex
    stub believes the attacker's word (§2.2.1), ``validators`` + ``drop``
    bar unvalidated routes at fully-validating ASes, and ``leak`` lets
    offers *from* the attacker bypass GR2.  ``-1`` equals no node id, so
    a row without an adversary is plain single-origin BGP and may share
    a chunk with rows that have one.  The caller pins the origins'
    labels after each step.  ``tied``, when given, receives the
    per-edge tiebreak-set mask.
    """
    # the adversary terms cost a [chunk, edges] pass each, so they are
    # skipped when their inputs are empty (always, for attacker = -1 rows)
    gullible = bool(gullible_edge.any())
    if leak or gullible:
        from_attacker = v[None, :] == attacker[:, None]
    cls_v = cls[:, v]
    sec_v = sec[:, v]
    # GR2: across a peering or up to a provider only customer routes and
    # the origin's own prefix travel; down to a customer anything does.
    announces = (cls_v == _CUSTOMER) | (cls_v == _SELF)
    exportable = is_provider_edge | announces
    if leak:
        exportable = exportable | from_attacker
    valid = (cls_v != _UNREACHABLE) & exportable
    if drop:
        valid &= sec_v | ~validators[u][None, :]
    seen = sec_v
    if gullible:
        seen = sec_v | (gullible_edge[None, :] & from_attacker & att[:, v])

    sp_field = (np.maximum(length[:, v], 0) + 1).astype(np.uint32)
    secp_field = 1 - (applies_edge & seen).astype(np.uint32)
    key = np.zeros(valid.shape, dtype=np.uint32)
    for i in range(len(rank_codes)):
        code = int(rank_codes[i])
        if code == 0:
            field: np.ndarray = lp_field
        elif code == 1:
            field = sp_field
        else:
            field = secp_field
        key = (key << np.uint32(rank_widths[i])) | field
    key_a = np.where(valid, key, _INVALID_A)

    best_a = np.minimum.reduceat(key_a, seg_starts, axis=1)
    tied = np.logical_and(
        key_a == np.repeat(best_a, seg_sizes, axis=1),
        key_a != _INVALID_A,
        out=tied,
    )
    key_b = np.where(tied, tie_key[None, :], _BLOCKED)
    chosen = np.minimum.reduceat(key_b, seg_starts, axis=1)
    reachable = best_a != _INVALID_A
    eidx = seg_starts[None, :] + np.where(
        reachable, (chosen & _POS_MASK).astype(np.int64), 0
    )
    v_sel = v[eidx]
    len_sel = np.take_along_axis(length, v_sel, axis=1)
    att_sel = np.take_along_axis(att, v_sel, axis=1)
    seen_sel = np.take_along_axis(seen, eidx, axis=1)
    new_cls[:, seg_u] = np.where(
        reachable, route_cls[eidx], np.int8(_UNREACHABLE)
    )
    new_len[:, seg_u] = np.where(reachable, len_sel + 1, -1)
    new_sec[:, seg_u] = reachable & node_secure[seg_u] & seen_sel
    new_att[:, seg_u] = reachable & att_sel
