"""Reference kernels the test suite holds ``src/`` to.

These ran in ``src/`` until the stacked kernels
(:func:`repro.routing.arena.compute_trees_batched`,
:func:`~repro.routing.arena.subtree_weights_batched`, the chunked
three-pass build of :mod:`repro.routing.tree`) had replaced their last
production caller; they stay here, one destination at a time and easy
to read, as what the differential suites compare against:

- :func:`compute_tree` — the level-by-level routing-tree resolution of
  Appendix C.2 over one :class:`~repro.routing.tree.DestRouting`:

    "we start at the destination d and proceed through each node i in
    ascending order of path length.  For each node i we determine (a)
    which AS in i's tiebreak set i chooses as its next hop, and (b)
    whether i has a fully-secure path, by checking if (1) i is secure
    and (2) there are nodes in i's tiebreak set with a secure path."

- :func:`compute_tree_scalar` — the same, one node at a time;
- :func:`subtree_weights` — the weight routed through each node;
- :func:`route_classes_and_lengths_scalar` — passes 1-3 of the
  structure build with queues and a heap;
- :func:`project_flip_per_destination` — the projection delta summed in
  a Python loop over one ``DestState`` per destination, as
  ``repro.core.projection`` did before it read the round's matrices.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from repro.core.config import UtilityModel
from repro.core.engine import DestState
from repro.routing.paths import RoutingTree
from repro.routing.policy import POSITION_BITS, RouteClass, tie_hash_array
from repro.routing.tree import DestRouting, RouteInfo
from repro.topology.graph import ASGraph

_POS_MASK = np.uint64((1 << POSITION_BITS) - 1)
_BLOCKED = np.uint64(0xFFFFFFFFFFFFFFFF)

_UNSET = -1
_SELF = int(RouteClass.SELF)
_CUSTOMER = int(RouteClass.CUSTOMER)
_PEER = int(RouteClass.PEER)
_PROVIDER = int(RouteClass.PROVIDER)
_UNREACHABLE = int(RouteClass.UNREACHABLE)


def compute_tree(
    dr: DestRouting,
    node_secure: np.ndarray,
    breaks_ties: np.ndarray,
) -> RoutingTree:
    """Resolve next hops and path security for every node (vectorised).

    Parameters
    ----------
    dr:
        Precomputed structure for the destination.
    node_secure:
        bool[n]; True where the AS has deployed (full or simplex) S*BGP.
    breaks_ties:
        bool[n]; True where the AS applies the SecP criterion.  Secure
        ISPs always do; stubs only when the simulation assumes so
        (§6.7); insecure ASes never do (callers pass
        ``node_secure & policy``).
    """
    n = len(dr.cls)
    choice = np.full(n, -1, dtype=np.int32)
    secure = np.zeros(n, dtype=bool)
    any_secure = np.zeros(n, dtype=bool)
    order, indptr, cands = dr.order, dr.indptr, dr.cands
    levels = dr.level_starts
    tie_keys = dr.tie_keys()  # state-independent, computed once per dest

    secure[dr.dest] = node_secure[dr.dest]

    for level in range(1, len(levels) - 1):
        lo, hi = int(levels[level]), int(levels[level + 1])
        if lo == hi:
            continue
        nodes = order[lo:hi]
        seg_lo, seg_hi = int(indptr[lo]), int(indptr[hi])
        c = cands[seg_lo:seg_hi]
        starts = (indptr[lo:hi] - seg_lo).astype(np.int64)
        csec = secure[c]

        any_sec = np.logical_or.reduceat(csec, starts)
        any_secure[nodes] = any_sec
        use_sec = node_secure[nodes] & breaks_ties[nodes] & any_sec

        sizes = (indptr[lo + 1:hi + 1] - indptr[lo:hi]).astype(np.int64)
        row_of_edge = np.repeat(np.arange(hi - lo, dtype=np.int64), sizes)

        allowed = csec | ~use_sec[row_of_edge]
        key = np.where(allowed, tie_keys[seg_lo:seg_hi], _BLOCKED)

        kmin = np.minimum.reduceat(key, starts)
        chosen_rel = starts + (kmin & _POS_MASK).astype(np.int64)
        choice[nodes] = c[chosen_rel]
        secure[nodes] = node_secure[nodes] & csec[chosen_rel]

    return RoutingTree(
        dest=dr.dest, choice=choice, secure=secure, any_secure_candidate=any_secure
    )


def compute_tree_scalar(
    dr: DestRouting,
    node_secure: np.ndarray,
    breaks_ties: np.ndarray,
) -> RoutingTree:
    """Reference scalar implementation of :func:`compute_tree`."""
    n = len(dr.cls)
    choice = np.full(n, -1, dtype=np.int32)
    secure = np.zeros(n, dtype=bool)
    any_secure = np.zeros(n, dtype=bool)
    secure[dr.dest] = node_secure[dr.dest]
    order, indptr, cands = dr.order, dr.indptr, dr.cands

    for row in range(1, len(order)):
        i = int(order[row])
        cs = cands[indptr[row]:indptr[row + 1]]
        pool = cs
        secure_cs = [c for c in cs if secure[c]]
        any_secure[i] = bool(secure_cs)
        if node_secure[i] and breaks_ties[i] and secure_cs:
            pool = secure_cs
        keys = tie_hash_array(
            np.full(len(pool), i, dtype=np.uint64),
            np.asarray(pool, dtype=np.uint64),
        )
        # replicate the vectorised collision rule: position breaks hash ties
        best_pos = None
        best_key = None
        pos_by_cand = {int(c): p for p, c in enumerate(cs)}
        for c, h in zip(pool, keys):
            k = (int(h) & ~((1 << POSITION_BITS) - 1)) | pos_by_cand[int(c)]
            if best_key is None or k < best_key:
                best_key, best_pos = k, int(c)
        choice[i] = best_pos
        secure[i] = bool(node_secure[i] and secure[best_pos])
    return RoutingTree(
        dest=dr.dest, choice=choice, secure=secure, any_secure_candidate=any_secure
    )


def subtree_weights(dr: DestRouting, tree: RoutingTree, weights: np.ndarray) -> np.ndarray:
    """Weight of the subtree routing *through* each node (excluding itself).

    ``W[v] = sum of w_i over nodes i != v whose path to the destination
    traverses v``, the quantity the paper's utility definitions sum
    (Section 3.3; the worked example excludes the ISP's own weight).
    """
    n = len(dr.cls)
    w = np.zeros(n, dtype=np.float64)
    order, levels = dr.order, dr.level_starts
    for level in range(len(levels) - 2, 0, -1):
        lo, hi = int(levels[level]), int(levels[level + 1])
        if lo == hi:
            continue
        nodes = order[lo:hi]
        parents = tree.choice[nodes]
        # bincount beats np.add.at by ~an order of magnitude for this
        # scattered accumulation (parents repeat heavily within a level)
        w += np.bincount(parents, weights=w[nodes] + weights[nodes], minlength=n)
    return w


def route_classes_and_lengths_scalar(graph: ASGraph, dest: int) -> RouteInfo:
    """Scalar reference implementation of :func:`route_classes_and_lengths`."""
    n = graph.n
    dist_cust = np.full(n, _UNSET, dtype=np.int32)
    dist_peer = np.full(n, _UNSET, dtype=np.int32)
    dist_prov = np.full(n, _UNSET, dtype=np.int32)

    dist_cust[dest] = 0
    queue: deque[int] = deque([dest])
    while queue:
        u = queue.popleft()
        for p in graph.providers[u]:
            if dist_cust[p] == _UNSET:
                dist_cust[p] = dist_cust[u] + 1
                queue.append(p)

    for i in range(n):
        if i == dest:
            continue
        best = _UNSET
        for p in graph.peers[i]:
            dp = dist_cust[p]
            if dp != _UNSET and (best == _UNSET or dp + 1 < best):
                best = dp + 1
        dist_peer[i] = best

    selected_len = np.full(n, _UNSET, dtype=np.int32)
    heap: list[tuple[int, int]] = []
    for i in range(n):
        if dist_cust[i] != _UNSET:
            selected_len[i] = dist_cust[i]
        elif dist_peer[i] != _UNSET:
            selected_len[i] = dist_peer[i]
        if selected_len[i] != _UNSET:
            heapq.heappush(heap, (int(selected_len[i]), i))

    done = np.zeros(n, dtype=bool)
    while heap:
        du, u = heapq.heappop(heap)
        if done[u] or du != selected_len[u]:
            continue
        done[u] = True
        for c in graph.customers[u]:
            if dist_cust[c] != _UNSET or dist_peer[c] != _UNSET:
                continue
            cand = du + 1
            if dist_prov[c] == _UNSET or cand < dist_prov[c]:
                dist_prov[c] = cand
                selected_len[c] = cand
                heapq.heappush(heap, (cand, c))

    cls = np.full(n, _UNREACHABLE, dtype=np.int8)
    cls[dest] = _SELF
    for i in range(n):
        if i == dest:
            continue
        if dist_cust[i] != _UNSET:
            cls[i] = _CUSTOMER
        elif dist_peer[i] != _UNSET:
            cls[i] = _PEER
        elif dist_prov[i] != _UNSET:
            cls[i] = _PROVIDER
    return RouteInfo(dest=dest, cls=cls, lengths=selected_len)


def outgoing_contribution(ds: DestState, node: int) -> float:
    """Contribution of this destination to ``node``'s outgoing utility."""
    if ds.dr.cls[node] != _CUSTOMER:
        return 0.0
    return float(ds.weights[node])


def incoming_contribution(ds: DestState, node: int, node_weights: np.ndarray) -> float:
    """Contribution of this destination to ``node``'s incoming utility."""
    kids = ds.children_of(node)
    if not len(kids):
        return 0.0
    customer_kids = kids[ds.dr.cls[kids] == _PROVIDER]
    if not len(customer_kids):
        return 0.0
    return float((ds.weights[customer_kids] + node_weights[customer_kids]).sum())


def _candidate_positions(rd, isp, flips, turning_on, model):
    """Secure-destination positions where one flip could change routing
    (Appendix C.4), one job at a time."""
    secure_pos = rd.secure_dest_positions
    if not len(secure_pos):
        return secure_pos
    flip_nodes = list(flips)
    if turning_on:
        # a flipped node can only start influencing SecP decisions if it
        # can acquire a secure chosen path, i.e. has a secure candidate
        possible = rd.secure_dest_any_sec[:, flip_nodes].any(axis=1)
    else:
        # symmetric: it must currently have a secure chosen path to lose
        possible = rd.secure_dest_sec[:, flip_nodes].any(axis=1)
    positions = secure_pos[possible]
    if model is UtilityModel.OUTGOING and len(positions):
        # only destinations n reaches via a customer edge contribute
        positions = positions[rd.arena.cls[positions, isp] == _CUSTOMER]
    return positions


def project_flip_per_destination(cache, deriver, rd, isp, turning_on, model):
    """``(utility, dests_recomputed, dests_delta)`` of the FULL
    projection of one flip, one destination at a time: every destination
    the flip can reach is resolved on its own view with
    :func:`compute_tree` / :func:`subtree_weights` (after a rebuild under
    the flipped state where structures move with it), its delta taken
    from two ``DestState`` objects and added to a running Python float.
    """
    def contribution(ds):
        if model is UtilityModel.OUTGOING:
            return outgoing_contribution(ds, isp)
        return incoming_contribution(ds, isp, w)

    flips, node_secure_new, breaks_new = rd.flipped(deriver, isp, turning_on)
    w = cache.graph.weights
    special = {
        pos for node in flips if (pos := cache.position_of(node)) is not None
    }
    if cache.policy.state_dependent:
        dest_idx = np.asarray(cache.destinations, dtype=np.int64)
        relevant = rd.node_secure[dest_idx] | node_secure_new[dest_idx]
        positions = sorted(set(np.flatnonzero(relevant).tolist()) | special)
        routings = cache.policy.build_pools(
            cache.graph, [cache.destinations[p] for p in positions], cache.compiled,
            node_secure=node_secure_new, breaks_ties=breaks_new,
        ).views()
    else:
        candidates = _candidate_positions(rd, isp, flips, turning_on, model)
        positions = sorted(special.union(int(p) for p in candidates))
        routings = [rd.dest_state(pos).dr for pos in positions]

    delta = 0.0
    touched = 0
    for pos, dr in zip(positions, routings):
        tree = compute_tree(dr, node_secure_new, breaks_new)
        new_ds = DestState(dr=dr, tree=tree, weights=subtree_weights(dr, tree, w))
        d = contribution(new_ds) - contribution(rd.dest_state(pos))
        if pos not in special and d:
            touched += 1
        delta += d
    return float(rd.utilities[isp]) + delta, len(positions), touched
