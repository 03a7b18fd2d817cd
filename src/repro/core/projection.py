"""Projected utility ``u_n(~S_n, S_-n)`` (Section 3.3, Appendix C.4).

An ISP evaluates the utility it *would* obtain if it flipped its
deployment action while everyone else stayed put — including the side
effect that deploying secures its not-yet-secure stub customers (and
turning off orphans stubs whose only secure provider it was).

Two engines with identical outputs:

``FULL``
    Re-resolve the routing tree of every *relevant* destination in the
    flipped state.  Relevance pruning per Appendix C.4: destinations
    that are insecure in both states route identically, so only
    currently-secure destinations plus destinations whose own security
    the flip changes (the ISP itself and its stubs) can differ.

``INCREMENTAL``
    Additionally prune destinations where the flip demonstrably cannot
    change any routing decision (no member of the flip set has a secure
    tiebreak candidate to gain, or a secure path to lose), and for the
    remaining destinations propagate security changes level-by-level
    through the reverse tiebreak graph, touching only affected nodes.
    Traffic deltas are then integrated by walking the short paths of
    the sources whose routes moved.

Both engines assume Observation C.1 (structures are state-independent;
only tie-breaks move).  Under the state-dependent policies
(``security_1st`` / ``security_2nd``) every projection instead rebuilds
the structures of the destinations that can react to the flip with the
fixpoint builder — see :func:`_resolved_deltas`.  Whatever is re-resolved
is re-resolved as one stack of destinations, and its utility deltas are
read off the resulting matrices row by row.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.config import ProjectionEngine, UtilityModel
from repro.core.engine import DestState, RoundData, contributions
from repro.core.state import StateDeriver
from repro.routing.arena import RoutingArena, compute_trees_batched, subtree_weights_batched
from repro.routing.cache import RoutingCache
from repro.routing.policy import RouteClass
from repro.routing.tree import DestRouting

_CUSTOMER = int(RouteClass.CUSTOMER)
_PROVIDER = int(RouteClass.PROVIDER)
_BLOCKED = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclasses.dataclass(frozen=True)
class Projection:
    """Result of projecting one ISP's flip."""

    isp: int
    turning_on: bool
    utility: float            # projected utility of `isp` after the flip
    flips: dict[int, bool]    # node -> new security flag (isp and stubs)
    dests_recomputed: int     # full tree recomputations performed
    dests_delta: int          # incremental destinations actually touched


def project_flip(
    cache: RoutingCache,
    deriver: StateDeriver,
    rd: RoundData,
    isp: int,
    turning_on: bool,
    model: UtilityModel,
    engine: ProjectionEngine = ProjectionEngine.FULL,
) -> Projection:
    """Projected utility of ``isp`` if it flipped its action this round."""
    flips, node_secure_new, breaks_new = rd.flipped(deriver, isp, turning_on)
    w = cache.graph.weights

    # Destinations whose *own* security status changes always need a
    # full recompute; under the FULL engine so do all reroutable
    # candidates.  Everything needing a full recompute goes through the
    # batched arena kernel in ONE stacked pass.  (Most projections of a
    # sampled cache resolve nothing at all, so the bookkeeping around
    # that pass stays in plain sets.)
    special = {pos for node in flips if (pos := cache.position_of(node)) is not None}
    incremental: list[int] = []
    if cache.policy.state_dependent:
        # The flip moves classes and lengths, not just tie-breaks, so the
        # tiebreak-only machinery (incremental propagation, the
        # ``sec``/``any_sec`` candidate refinements) is invalid.  What
        # survives is the coarse pruning: a destination that is insecure
        # in *both* states has all-insecure paths under any ranking, so
        # its routing collapses to the security-free order of the policy
        # and cannot react to the flip.
        dest_idx = np.asarray(cache.destinations, dtype=np.int64)
        relevant = rd.node_secure[dest_idx] | node_secure_new[dest_idx]
        full = special.union(np.flatnonzero(relevant).tolist())
    else:
        candidates = _candidate_positions(rd, isp, flips, turning_on, model).tolist()
        if engine is ProjectionEngine.FULL:
            full = special.union(candidates)
        else:
            full = special
            incremental = [pos for pos in candidates if pos not in special]

    positions = np.asarray(sorted(full), dtype=np.int64)
    deltas = _resolved_deltas(cache, rd, positions, node_secure_new, breaks_new, isp, model)
    # left to right, as a running sum over the destinations would
    delta = float(np.cumsum(deltas)[-1]) if len(deltas) else 0.0
    touched = np.count_nonzero(deltas)
    if special:
        touched -= np.count_nonzero(deltas[np.searchsorted(positions, list(special))])

    # Remaining candidates: exact deltas via local propagation.
    for pos in incremental:
        d = _incremental_delta(
            rd.dest_state(pos), node_secure_new, breaks_new, flips, isp, model, w
        )
        if d:
            touched += 1
        delta += d

    return Projection(
        isp=isp,
        turning_on=turning_on,
        utility=float(rd.utilities[isp]) + delta,
        flips=flips,
        dests_recomputed=len(full),
        dests_delta=touched,
    )


def _resolved_deltas(
    cache: RoutingCache,
    rd: RoundData,
    positions: np.ndarray,
    node_secure_new: np.ndarray,
    breaks_new: np.ndarray,
    isp: int,
    model: UtilityModel,
) -> np.ndarray:
    """What the flip adds to ``isp``'s utility at each destination of
    ``positions``: their trees resolved under the flipped state in a
    single stacked pass, against the round's rows.  Where structures
    move with the state they are rebuilt under the flipped state first
    (one batched fixpoint build, slot ``i`` for ``positions[i]``).
    """
    if not len(positions):
        return np.zeros(0, dtype=np.float64)
    n, w = cache.graph.n, cache.graph.weights
    arena, slots = rd.arena, positions
    if cache.policy.state_dependent:
        pools = cache.policy.build_pools(
            cache.graph,
            [cache.destinations[p] for p in positions],
            cache.compiled,
            node_secure=node_secure_new,
            breaks_ties=breaks_new,
            backend=cache.backend_name,
        )
        arena = RoutingArena(
            n, RoutingArena.concat(n, [pools], keys=True),
            policy=pools.policy, backend=cache.backend_name,
        )
        slots = arena.all_slots()
    bt = compute_trees_batched(arena, slots, node_secure_new, breaks_new)
    w2d = subtree_weights_batched(arena, slots, bt.choice, w)
    new = contributions(arena.cls[slots], bt.choice, w2d, isp, w, model)
    old = contributions(rd.arena.cls, rd.choice, rd.weights, isp, w, model, rows=positions)
    return new - old


def _candidate_positions(
    rd: RoundData,
    isp: int,
    flips: dict[int, bool],
    turning_on: bool,
    model: UtilityModel,
) -> np.ndarray:
    """Secure-destination positions where the flip could change routing."""
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
        via_customer = rd.arena.cls[positions, isp] == _CUSTOMER
        positions = positions[via_customer]
    return positions


def _incremental_delta(
    ds: DestState,
    node_secure_new: np.ndarray,
    breaks_new: np.ndarray,
    flips: dict[int, bool],
    isp: int,
    model: UtilityModel,
    node_weights: np.ndarray,
    horizon: int | None = None,
) -> float:
    """Exact utility delta for one destination via local propagation.

    Security changes travel up the tiebreak-dependency graph level by
    level from the flipped nodes; with a ``horizon`` only that many hops
    (the §8.2 local forecast), and what lies further keeps its route.
    """
    dr = ds.dr
    tree = ds.tree
    old_choice = tree.choice
    old_secure = tree.secure
    lengths = dr.lengths
    dest = dr.dest

    changed_sec: dict[int, bool] = {}
    changed_choice: dict[int, int] = {}
    pending: dict[int, list[tuple[int, int]]] = {}

    def schedule(node: int, depth: int) -> None:
        pending.setdefault(int(lengths[node]), []).append((node, depth))

    for node in flips:
        if dr.row_of[node] < 0:
            continue
        if node == dest:
            # the destination's own security changed; its dependents see it
            new_sec = bool(node_secure_new[dest])
            if new_sec != bool(old_secure[dest]):
                changed_sec[dest] = new_sec
                for dep in dr.dependents_of(dest):
                    schedule(int(dep), 1)
            continue
        schedule(node, 0)
    if not pending:
        return 0.0

    level = min(pending)
    max_level = max(pending)
    seen: set[int] = set()
    while level <= max_level:
        for u, depth in pending.pop(level, ()):  # noqa: B909
            if u in seen or (horizon is not None and depth > horizon):
                continue
            seen.add(u)
            new_choice, new_sec = _recompute_node(
                dr, u, old_secure, changed_sec, node_secure_new, breaks_new
            )
            if new_choice != old_choice[u]:
                changed_choice[u] = new_choice
            if new_sec != bool(old_secure[u]):
                changed_sec[u] = new_sec
                for dep in dr.dependents_of(u):
                    schedule(int(dep), depth + 1)
                    max_level = max(max_level, int(lengths[dep]))
        level += 1

    if not changed_choice:
        return 0.0

    # Sources whose path changed = old subtrees of moved nodes.
    affected = _collect_old_subtrees(ds, list(changed_choice))

    if model is UtilityModel.OUTGOING:
        return _outgoing_walk_delta(ds, changed_choice, affected, isp, node_weights)
    return _incoming_walk_delta(ds, changed_choice, affected, isp, node_weights)


def _recompute_node(
    dr: DestRouting,
    u: int,
    old_secure: np.ndarray,
    changed_sec: dict[int, bool],
    node_secure_new: np.ndarray,
    breaks_new: np.ndarray,
) -> tuple[int, bool]:
    """Re-run the tiebreak of node ``u`` with patched candidate security."""
    cands = dr.tiebreak_set(u)
    csec = old_secure[cands].copy()
    for k, c in enumerate(cands):
        override = changed_sec.get(int(c))
        if override is not None:
            csec[k] = override
    usec = bool(node_secure_new[u])
    use_sec = usec and bool(breaks_new[u]) and bool(csec.any())

    row = int(dr.row_of[u])
    lo, hi = int(dr.indptr[row]), int(dr.indptr[row + 1])
    keys = dr.tie_keys()[lo:hi]  # state-independent, precomputed
    if use_sec:
        keys = np.where(csec, keys, _BLOCKED)
    best = int(np.argmin(keys))
    return int(cands[best]), usec and bool(csec[best])


def _collect_old_subtrees(ds: DestState, moved: list[int]) -> list[int]:
    """Moved nodes plus every node in their *old* routing subtrees."""
    indptr, idx = ds.children()
    seen: set[int] = set()
    stack = list(moved)
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(int(c) for c in idx[indptr[v]:indptr[v + 1]])
    return list(seen)


def _outgoing_walk_delta(
    ds: DestState,
    changed_choice: dict[int, int],
    affected: list[int],
    isp: int,
    node_weights: np.ndarray,
) -> float:
    """Sum of w_i over sources whose membership 'routes through isp' changed."""
    old_choice = ds.tree.choice
    dest = ds.dr.dest
    delta = 0.0
    for i in affected:
        if i == isp or i == dest:
            continue
        old_hit = _walks_through(old_choice, None, i, isp, dest)
        new_hit = _walks_through(old_choice, changed_choice, i, isp, dest)
        if old_hit != new_hit:
            delta += node_weights[i] if new_hit else -node_weights[i]
    return float(delta)


def _incoming_walk_delta(
    ds: DestState,
    changed_choice: dict[int, int],
    affected: list[int],
    isp: int,
    node_weights: np.ndarray,
) -> float:
    """Like the outgoing walk, but membership requires entering ``isp``
    over a customer edge (predecessor's route class is PROVIDER)."""
    old_choice = ds.tree.choice
    cls = ds.dr.cls
    dest = ds.dr.dest
    delta = 0.0
    for i in affected:
        if i == isp or i == dest:
            continue
        old_hit = _enters_via_customer(old_choice, None, i, isp, dest, cls)
        new_hit = _enters_via_customer(old_choice, changed_choice, i, isp, dest, cls)
        if old_hit != new_hit:
            delta += node_weights[i] if new_hit else -node_weights[i]
    return float(delta)


def _walks_through(
    choice: np.ndarray, overrides: dict[int, int] | None, source: int, target: int, dest: int
) -> bool:
    node = source
    while node != dest:
        node = overrides.get(node, int(choice[node])) if overrides else int(choice[node])
        if node == target:
            return True
        if node < 0:  # pragma: no cover - unreachable sources are not affected
            return False
    return False


def _enters_via_customer(
    choice: np.ndarray,
    overrides: dict[int, int] | None,
    source: int,
    target: int,
    dest: int,
    cls: np.ndarray,
) -> bool:
    node = source
    while node != dest:
        nxt = overrides.get(node, int(choice[node])) if overrides else int(choice[node])
        if nxt == target:
            # traffic arrives at `target` from `node`; it is revenue
            # traffic iff `node` reaches `target` as its provider
            return cls[node] == _PROVIDER
        if nxt < 0:  # pragma: no cover
            return False
        node = nxt
    return False


def per_destination_turn_off_gains(
    cache: RoutingCache,
    deriver: StateDeriver,
    rd: RoundData,
    isp: int,
) -> dict[int, float]:
    """§7.3: incoming-utility gain of disabling S*BGP per destination.

    The paper observes that an ISP can turn S*BGP off for a *single
    destination* (refusing to propagate S*BGP announcements for it) and
    finds that at least 10% of ISPs have a state where some destination
    makes that profitable.  Returns ``{destination: gain}`` for every
    destination with a strictly positive incoming-utility gain if
    ``isp`` stopped announcing secure routes for it.

    Per-destination turn-off does not orphan the ISP's stubs (the ISP
    still runs S*BGP; it just downgrades announcements for one
    destination), so only the ISP's own flag flips here.
    """
    flips = {isp: False}
    node_secure_new = rd.node_secure.copy()
    node_secure_new[isp] = False
    breaks_new = deriver.breaks_ties(node_secure_new)
    w = cache.graph.weights

    gains: dict[int, float] = {}
    secure_pos = rd.secure_dest_positions
    if not len(secure_pos):
        return gains
    # only destinations where isp currently has a secure chosen path can
    # react to the downgrade (valid under every policy: with no secure
    # chosen path, isp's selection and its announcements' security are
    # already what the downgrade would make them)
    has_secure = rd.sec_matrix[secure_pos, isp]
    candidates = [
        int(pos) for pos in secure_pos[has_secure]
        if cache.destinations[pos] != isp
    ]
    if not candidates:
        return gains
    if cache.policy.state_dependent:
        # incremental propagation is tiebreak-only
        deltas = _resolved_deltas(
            cache, rd, np.asarray(candidates, dtype=np.int64),
            node_secure_new, breaks_new, isp, UtilityModel.INCOMING,
        )
        return {
            cache.destinations[pos]: delta
            for pos, delta in zip(candidates, deltas.tolist()) if delta > 0
        }
    for pos in candidates:
        dest = cache.destinations[pos]
        delta = _incremental_delta(
            rd.dest_state(pos), node_secure_new, breaks_new, flips, isp,
            UtilityModel.INCOMING, w,
        )
        if delta > 0:
            gains[dest] = delta
    return gains
