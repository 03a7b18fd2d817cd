"""Vectorised numpy kernels — the differential ground truth.

The level bodies of ``repro.routing.arena.compute_trees_batched`` and
``repro.routing.arena.subtree_weights_batched`` and the Jacobi step that
:class:`repro.routing.fixpoint.JacobiDriver` iterates, kept here so
every other backend has a fixed point of comparison: the parity suite
asserts **bit-identical** outputs against this module.  Do not
"improve" the numerics here — a change to operation order is a change
to the ground truth.

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

_SELF = int(RouteClass.SELF)
_CUSTOMER = int(RouteClass.CUSTOMER)
_UNREACHABLE = int(RouteClass.UNREACHABLE)


def trees_level(
    nodes: np.ndarray,
    sizes: np.ndarray,
    starts: np.ndarray,
    row_of_edge: np.ndarray,
    cands: np.ndarray,
    keys: np.ndarray,
    node_b: np.ndarray,
    node_secure: np.ndarray,
    breaks_ties: np.ndarray,
    choice: np.ndarray,
    secure: np.ndarray,
    any_secure: np.ndarray,
) -> None:
    """Resolve one stacked path-length level of the batched tree kernel."""
    edge_b = node_b[row_of_edge]
    csec = secure[edge_b, cands]
    any_sec = np.logical_or.reduceat(csec, starts)
    any_secure[node_b, nodes] = any_sec
    use_sec = node_secure[nodes] & breaks_ties[nodes] & any_sec

    key = np.where(csec | ~use_sec[row_of_edge], keys, _BLOCKED)
    kmin = np.minimum.reduceat(key, starts)
    chosen = starts + (kmin & _POS_MASK).astype(np.int64)
    choice[node_b, nodes] = cands[chosen]
    secure[node_b, nodes] = node_secure[nodes] & csec[chosen]


def weights_level(
    nodes: np.ndarray,
    node_b: np.ndarray,
    choice: np.ndarray,
    node_weights: np.ndarray,
    w: np.ndarray,
) -> None:
    """Push one level's subtree weights up to the chosen parents."""
    n = w.shape[1]
    nb = node_b.astype(np.int64)
    parents = choice[nb, nodes].astype(np.int64)
    vals = w[nb, nodes] + node_weights[nodes]
    w += np.bincount(
        nb * n + parents, weights=vals, minlength=w.size
    ).reshape(w.shape)


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
