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
- :func:`route_labels_scalar` — passes 1-3 of the structure build
  with queues and a heap;
- :func:`compute_dest_routing_sp_first` — the §8.3 ``SP > LP > SecP``
  structure of one destination by bucketed Dijkstra, the oracle for
  the fixpoint that builds it;
- :func:`project_flip_per_destination` — the projection delta summed in
  a Python loop over one ``DestState`` per destination, as
  ``repro.core.projection`` did before it read the round's matrices;
- :func:`jacobi_converge_reference` — the Jacobi iteration of a chunk as
  :class:`~repro.routing.fixpoint.JacobiDriver` ran it before one
  backend call converged a chunk: every row still moving swept in
  lockstep, origins pinned by a callback after every sweep, a row
  retired once a sweep leaves it alone, the chunk stopped at the first
  sweep that brings a moving row back to the labels of two sweeps
  before — each sweep scalar, by the two-stage rule (least rank key,
  then least tie-break key among the tied) with the rank key packed
  field by field; :func:`jacobi_labels_after` follows the same sweeps
  for a fixed count, to show where a chunk is on the way;
- :func:`propagate_toward` — :func:`repro.routing.reference.propagate`
  with one destination originating, the scalar selection of plain BGP.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque

import numpy as np

from repro.core.config import UtilityModel
from repro.core.engine import DestState
from repro.routing.fixpoint import (
    EDGE_APPLIES,
    EDGE_DROPS,
    EDGE_GULLIBLE,
    EDGE_NONPROVIDER,
    PIN_ATT,
    PIN_CLS,
    PIN_LEN,
    PIN_SEC,
)
from repro.routing.paths import RoutingTree
from repro.routing.policy import POSITION_BITS, Criterion, RouteClass, tie_hash_array
from repro.routing.reference import ConvergenceError, propagate
from repro.routing.tree import DestRouting, assemble_pools
from repro.topology.graph import ASGraph

_POS_MASK = np.uint64((1 << POSITION_BITS) - 1)
_BLOCKED = np.uint64(0xFFFFFFFFFFFFFFFF)

_UNSET = -1
_SELF = int(RouteClass.SELF)
_CUSTOMER = int(RouteClass.CUSTOMER)
_PEER = int(RouteClass.PEER)
_PROVIDER = int(RouteClass.PROVIDER)
_UNREACHABLE = int(RouteClass.UNREACHABLE)


def propagate_toward(graph, dest, node_secure, applies, policy="security_3rd", **hooks):
    """``(cls, length, sec, att, hop)`` of every node toward ``dest``, its
    one origin (secure as ``node_secure`` says), by the scalar
    propagation; ``hooks`` as :func:`~repro.routing.reference.propagate`."""

    def pin(cls, length, sec, att):
        cls[dest], length[dest], sec[dest] = _SELF, 0, node_secure[dest]

    return propagate(graph, pin, node_secure, applies, policy, **hooks)


def compute_tie_keys(
    order: np.ndarray, indptr: np.ndarray, cands: np.ndarray
) -> np.ndarray:
    """Tie-break key per tiebreak-CSR entry: ``tie_hash(node, candidate)``
    with its low :data:`~repro.routing.policy.POSITION_BITS` bits replaced
    by the candidate's index within its row.  A row's keys are distinct
    and its least one names the candidate TB picks: over a row in node
    order they ascend in tie-break order, over a row in tie-break order
    (the pools' own) along the row.  The references select on these keys,
    not on the order the pools keep."""
    sizes = np.diff(indptr)
    keys = tie_hash_array(np.repeat(order, sizes), cands)
    keys &= ~_POS_MASK
    keys |= (np.arange(len(cands)) - np.repeat(indptr[:-1], sizes)).astype(np.uint64)
    return keys


def tie_keys(dr: DestRouting) -> np.ndarray:
    """:func:`compute_tie_keys` over one destination's tiebreak CSR."""
    return compute_tie_keys(dr.order, dr.indptr, dr.cands)


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
    keys = tie_keys(dr)  # state-independent, computed once per dest

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
        key = np.where(allowed, keys[seg_lo:seg_hi], _BLOCKED)

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


def route_labels_scalar(graph: ASGraph, dest: int) -> tuple[np.ndarray, np.ndarray]:
    """Scalar reference for one row of :func:`repro.routing.tree.route_labels`:
    each node's selected-route class (int8) and length (int32, -1 where
    unreachable) toward ``dest``."""
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
    return cls, selected_len


def compute_dest_routing_sp_first(graph: ASGraph, dest: int) -> DestRouting:
    """One destination's structure under ``SP > LP > SecP`` (GR2
    export), by bucketed Dijkstra over unit weights.

    When a node is finalised, its selected class determines what it may
    export (everything to customers; only customer routes across
    peerings and to providers).  Among the minimum-length candidates a
    node prefers customer over peer over provider next hops (LP as the
    second criterion), and its tiebreak set is the candidates matching
    that (length, class) optimum.
    """
    n = graph.n
    cls = np.full((1, n), _UNREACHABLE, dtype=np.int8)
    dist = np.full((1, n), -1, dtype=np.int32)
    dist[0, dest] = 0
    cls[0, dest] = _SELF
    # candidates[v] -> list of (next_hop, class_at_v)
    candidates: dict[int, list[tuple[int, int]]] = defaultdict(list)
    buckets: dict[int, list[int]] = {0: [dest]}
    finalized = np.zeros(n, dtype=bool)
    level = 0
    max_level = 0
    while level <= max_level:
        for u in buckets.pop(level, ()):  # noqa: B909 - buckets mutated below
            if finalized[u]:
                continue
            finalized[u] = True
            if u != dest:
                # LP as the second criterion: the selected class is the
                # best among the minimum-length candidates, fixed now so
                # export decisions below can use it
                cls[0, u] = max(c for _, c in candidates[u])
            exports_everywhere = cls[0, u] in (_CUSTOMER, _SELF)
            du = int(dist[0, u])
            # (neighbour, its class for a route via u)
            views = (
                [(v, _PROVIDER) for v in graph.customers[u]]
                + [(v, _CUSTOMER) for v in graph.providers[u]]
                + [(v, _PEER) for v in graph.peers[u]]
            )
            for v, class_at_v in views:
                # GR2: u announces to v iff v is u's customer, or u's
                # selected route is a customer route / its own prefix
                if not (class_at_v == _PROVIDER or exports_everywhere):
                    continue
                if finalized[v]:
                    continue
                cand = du + 1
                if dist[0, v] == -1 or cand < dist[0, v]:
                    dist[0, v] = cand
                    candidates[v] = [(u, class_at_v)]
                    buckets.setdefault(cand, []).append(v)
                    max_level = max(max_level, cand)
                elif cand == dist[0, v]:
                    candidates[v].append((u, class_at_v))
        level += 1

    # tiebreak sets: each node's minimum-length candidates of its class
    pairs = [(v, u) for v, offers in candidates.items() for u, c in offers if c == cls[0, v]]
    src = np.array([v for v, _ in pairs], dtype=np.int64)
    dst = np.array([u for _, u in pairs], dtype=np.int64)
    return assemble_pools([dest], cls, dist, src, dst).view(0)


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


#: rank-key field widths, as the fixpoint packs them
_WIDTH = {Criterion.LP: 2, Criterion.SP: 21, Criterion.SECP: 1}


def pin_callback(pins: np.ndarray):
    """``pin(cls, length, sec, att, rows)``: put the pins of chunk rows
    ``rows`` into label arrays that hold those rows, in that order — a
    pin table as the callback the driver used to take."""
    def pin(cls, length, sec, att, rows):
        for k in range(pins.shape[1]):
            for i, row in enumerate(rows.tolist()):
                node, fields, *values = pins[row, k].tolist()
                if node < 0:
                    continue
                for bit, label, value in zip(
                    (PIN_CLS, PIN_LEN, PIN_SEC, PIN_ATT), (cls, length, sec, att), values
                ):
                    if fields & bit:
                        label[i, node] = value
    return pin


def _sweep_reference(table, tie_keys, flags, ranking, node_secure, attackers, leak, labels):
    """One synchronous step of every row of ``labels``: ``(new labels, tied)``."""
    chunk, n = labels[0].shape
    cls, length, sec, att = (x.tolist() for x in labels)
    v, route_cls, lp_field = table.v.tolist(), table.route_cls.tolist(), table.lp_field.tolist()
    node_ptr, flags, keys = table.node_ptr.tolist(), flags.tolist(), tie_keys.tolist()
    new = (
        np.full((chunk, n), _UNREACHABLE, dtype=np.int8),
        np.full((chunk, n), -1, dtype=np.int32),
        np.zeros((chunk, n), dtype=bool),
        np.zeros((chunk, n), dtype=bool),
    )
    tied = np.zeros((chunk, table.num_edges), dtype=bool)
    for row, attacker in enumerate(attackers.tolist()):
        for u in range(n):
            offers = []
            for e in range(node_ptr[u], node_ptr[u + 1]):
                vv, f = v[e], flags[e]
                cv = cls[row][vv]
                if cv == _UNREACHABLE:
                    continue
                # GR2, with a leaking attacker's escape hatch
                if f & EDGE_NONPROVIDER and not (
                    cv in (_CUSTOMER, _SELF) or (leak and vv == attacker)
                ):
                    continue
                if f & EDGE_DROPS and not sec[row][vv]:
                    continue
                seen = sec[row][vv] or (f & EDGE_GULLIBLE and vv == attacker and att[row][vv])
                field = {
                    Criterion.LP: lp_field[e],
                    Criterion.SP: max(length[row][vv], 0) + 1,
                    Criterion.SECP: 0 if f & EDGE_APPLIES and seen else 1,
                }
                key = 0
                for crit in ranking:
                    key = key << _WIDTH[crit] | field[crit]
                offers.append((key, keys[e], e, bool(seen)))
            if not offers:
                continue
            best = min(offer[0] for offer in offers)
            for key, _, e, _ in offers:
                tied[row, e] = key == best
            _, _, e, seen = min(offer for offer in offers if offer[0] == best)
            vv = v[e]
            new[0][row, u] = route_cls[e]
            new[1][row, u] = length[row][vv] + 1
            new[2][row, u] = bool(node_secure[u]) and seen
            new[3][row, u] = att[row][vv]
    return new, tied


def _rows_differ(a, b) -> np.ndarray:
    return np.logical_or.reduce([(x != y).any(axis=1) for x, y in zip(a, b)])


def jacobi_converge_reference(
    driver, ranking, labels, pins, what, attackers=None, leak=False, tied=None
) -> np.ndarray:
    """What ``driver.converge(labels, pins, what, ...)`` must do: the
    chunk's labels (and ``tied``) converged in place, the sweeps each
    row took returned, or the same :class:`ConvergenceError`.
    ``ranking`` is the driver's policy ranking."""
    table = driver.table
    chunk, n = labels[0].shape
    if attackers is None:
        attackers = np.full(chunk, -1, dtype=np.int64)
    tie_keys = compute_tie_keys(np.arange(n), table.node_ptr, table.v)
    pin = pin_callback(pins)
    live = np.arange(chunk)
    pin(*labels, live)
    sweeps = np.zeros(chunk, dtype=np.int64)
    prev, cur = None, tuple(x.copy() for x in labels)
    for sweep in range(1, driver.cap + 1):
        new, new_tied = _sweep_reference(
            table, tie_keys, driver._edge_flags, ranking, driver._node_secure,
            attackers[live], leak, cur,
        )
        pin(*new, live)
        moved = _rows_differ(new, cur)
        if prev is not None and (moved & ~_rows_differ(new, prev)).any():
            raise ConvergenceError(
                f"{what} did not converge: sweep {sweep} revisits the "
                f"state of two sweeps before"
            )
        idle = ~moved
        sweeps[live[idle]] = sweep
        for out, last in zip(labels, cur):
            out[live[idle]] = last[idle]
        if tied is not None:
            tied[live[idle]] = new_tied[idle]
        if not moved.any():
            return sweeps
        live = live[moved]
        prev = tuple(x[moved] for x in cur)
        cur = tuple(x[moved] for x in new)
    raise ConvergenceError(f"{what} did not converge within {driver.cap} sweeps")


def jacobi_labels_after(
    driver, ranking, labels, pins, sweeps, attackers=None, leak=False
):
    """The labels :func:`jacobi_converge_reference` steps ``labels``
    to in ``sweeps`` sweeps (pinned first and after each), every row
    stepped whether it still moves or not; ``labels`` are left alone."""
    table = driver.table
    chunk, n = labels[0].shape
    if attackers is None:
        attackers = np.full(chunk, -1, dtype=np.int64)
    tie_keys = compute_tie_keys(np.arange(n), table.node_ptr, table.v)
    pin = pin_callback(pins)
    rows = np.arange(chunk)
    cur = tuple(x.copy() for x in labels)
    pin(*cur, rows)
    for _ in range(sweeps):
        cur, _ = _sweep_reference(
            table, tie_keys, driver._edge_flags, ranking, driver._node_secure,
            attackers, leak, cur,
        )
        pin(*cur, rows)
    return cur
