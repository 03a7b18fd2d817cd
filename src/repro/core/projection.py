"""Projected utility ``u_n(~S_n, S_-n)`` (Section 3.3, Appendix C.4).

An ISP evaluates the utility it *would* obtain if it flipped its
deployment action while everyone else stayed put — including the side
effect that deploying secures its not-yet-secure stub customers (and
turning off orphans stubs whose only secure provider it was).  Update
rule (3) asks this of every deciding ISP each round, and
:func:`project_flips` answers for all of them together, in two phases.

**Job phase** (arrays over all jobs, no per-ISP Python).  The flipped
stubs of every job as one CSR; the *special* positions, destinations
whose own security a job flips; and the *candidate* positions, secure
destinations a job can reroute (Appendix C.4: destinations insecure in
both states route identically): one ``[secure dests, flip nodes]``
gather of the round's matrices, reduced per job, taken a run of jobs at
a time.  One sort over ``job * D + position`` leaves the
``(job, position)`` rows to resolve, by job, then position.

**Row phase.**  The rows go through the batched tree and weight kernels
with a *per-row state*, the round's ``node_secure`` with the row's own
job's flips patched in, so rows of different ISPs share a pass (two ISPs
sharing a multi-homed stub put that slot in a pass twice).  A pass holds
at most :data:`_PASS_ENTRIES` ``rows x n`` entries, fewer under a memory
budget: the kernels' temporaries stay cache-sized however many rows a
round has, which is both the fast and the flat-memory way to run them.
Each row's delta is read off the resolved matrices against the round's
rows, and each job's deltas are added left to right.

Two engines with identical outputs share all of the above:

``FULL``
    resolves special and candidate rows alike in the stack.

``INCREMENTAL``
    stacks only the special rows; at each remaining candidate it
    propagates security changes level by level through the reverse
    tiebreak graph, touching only affected nodes, and integrates the
    traffic delta by walking the short paths of the sources whose routes
    moved.

Both assume Observation C.1 (structures are state-independent; only
tie-breaks move).  Under the state-dependent policies (``security_1st``
/ ``security_2nd``) a flip moves classes and lengths too, so each job
rebuilds the structures of the destinations that can react with the
fixpoint builder and resolves them as a stack of its own.
:func:`project_flip` is the one-job call.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

import numpy as np

from repro.core.config import ProjectionEngine, UtilityModel
from repro.core.engine import (
    _KERNEL_ROW_BYTES_PER_NODE,
    DestState,
    RoundData,
    contributions,
)
from repro.core.state import StateDeriver
from repro.routing.arena import RoutingArena, compute_trees_batched, subtree_weights_batched
from repro.routing.cache import RoutingCache
from repro.routing.compiled import segment_index
from repro.routing.policy import RouteClass
from repro.routing.tree import DestRouting
from repro.runtime.guard import current_guard
from repro.telemetry.metrics import get_registry

_CUSTOMER = int(RouteClass.CUSTOMER)
_PROVIDER = int(RouteClass.PROVIDER)
_BLOCKED = np.uint64(0xFFFFFFFFFFFFFFFF)

#: ``rows x n`` entries per pass of the row phase (and per candidate
#: gather of the job phase).  Like ``numpy_impl._BLOCK_ROWS``, it keeps
#: the kernels' per-pass outputs and temporaries near cache size.
#: Scanned on the ``sweep`` workload (N=500), ``wall_s`` / peak RSS:
#: 16 K 0.31-0.34 s / 83.5 MiB, 32 K 0.29 / 83.3, 64 K 0.25-0.30 / 82.9,
#: 128 K 0.24-0.26 / 86.4, 256 K 0.33 / 94.6, one pass 0.28-0.35 / 101.4.
_PASS_ENTRIES = 1 << 16


@dataclasses.dataclass(frozen=True)
class Projection:
    """Result of projecting one ISP's flip."""

    isp: int
    turning_on: bool
    utility: float            # projected utility of `isp` after the flip
    flips: dict[int, bool]    # node -> new security flag (isp and stubs)
    dests_recomputed: int     # full tree recomputations performed
    dests_delta: int          # incremental destinations actually touched


@dataclasses.dataclass
class _FlipSets:
    """The jobs of one call as arrays: job ``j`` sets
    ``nodes[ptr[j]:ptr[j + 1]]`` — ``isps[j]``, then each stub customer
    whose derived security moves with it, in
    :meth:`StateDeriver.stubs_of` order — to ``on[j]``."""

    isps: np.ndarray    # int64[J]
    on: np.ndarray      # bool[J]
    ptr: np.ndarray     # int64[J + 1]
    nodes: np.ndarray   # int64

    @classmethod
    def derive(
        cls, deriver: StateDeriver, rd: RoundData, jobs: Sequence[tuple[int, bool]]
    ) -> "_FlipSets":
        isps = np.fromiter((isp for isp, _ in jobs), np.int64, len(jobs))
        on = np.fromiter((on for _, on in jobs), bool, len(jobs))
        stub_ptr, stubs = deriver.flipped_stubs(
            isps, on, rd.state, rd.node_secure, rd.deploying_providers
        )
        ptr = stub_ptr + np.arange(len(jobs) + 1)
        nodes = np.empty(ptr[-1], dtype=np.int64)
        is_stub = np.ones(len(nodes), dtype=bool)
        is_stub[ptr[:-1]] = False
        nodes[ptr[:-1]] = isps
        nodes[is_stub] = stubs
        return cls(isps, on, ptr, nodes)

    def nodes_of(self, job: int) -> np.ndarray:
        return self.nodes[self.ptr[job]:self.ptr[job + 1]]

    def job_of_node(self) -> np.ndarray:
        """The job each entry of ``nodes`` belongs to."""
        return np.repeat(np.arange(len(self.isps)), np.diff(self.ptr))

    def state(
        self, rd: RoundData, deriver: StateDeriver, job: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(node_secure, breaks_ties)`` of the round with ``job`` applied."""
        node_secure_new = rd.node_secure.copy()
        node_secure_new[self.nodes_of(job)] = self.on[job]
        return node_secure_new, deriver.breaks_ties(node_secure_new)

    def patched(self, node_secure: np.ndarray, of_row: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out[i]`` = ``node_secure`` with job ``of_row[i]`` applied."""
        out[:] = node_secure
        first = self.ptr[of_row]
        counts = self.ptr[of_row + 1] - first
        out[
            np.repeat(np.arange(len(of_row)), counts),
            self.nodes[segment_index(first, counts)],
        ] = np.repeat(self.on[of_row], counts)
        return out


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
    return project_flips(cache, deriver, rd, [(isp, turning_on)], model, engine)[0]


def project_flips(
    cache: RoutingCache,
    deriver: StateDeriver,
    rd: RoundData,
    jobs: Sequence[tuple[int, bool]],
    model: UtilityModel,
    engine: ProjectionEngine = ProjectionEngine.FULL,
) -> list[Projection]:
    """One :class:`Projection` per ``(isp, turning_on)`` job: each ISP's
    utility if it alone flipped its action this round."""
    if not len(jobs):
        return []
    n, w = cache.graph.n, cache.graph.weights
    num_dests = max(1, rd.arena.num_dests)
    rebuilds = cache.policy.state_dependent
    pass_rows = _pass_rows(n)
    flips = _FlipSets.derive(deriver, rd, jobs)
    isps, num_jobs = flips.isps, len(flips.isps)

    rows, is_special = _rows_to_resolve(rd, flips, model, rebuilds, num_dests, pass_rows * n)
    incremental = rows[:0]
    if engine is ProjectionEngine.INCREMENTAL and not rebuilds:
        # only the special rows are stacked
        incremental, rows = rows[~is_special], rows[is_special]
        is_special = np.ones(len(rows), dtype=bool)
    row_job, row_pos = np.divmod(rows, num_dests)

    deltas = np.empty(len(rows), dtype=np.float64)
    passes = 0
    if rebuilds:
        # structures move with the state: one rebuilt stack per job
        bounds = np.searchsorted(row_job, np.arange(num_jobs + 1))
        for job in np.flatnonzero(np.diff(bounds)).tolist():
            passes += 1
            lo, hi = bounds[job], bounds[job + 1]
            deltas[lo:hi] = _rebuilt_deltas(
                cache, rd, row_pos[lo:hi], int(isps[job]),
                *flips.state(rd, deriver, job), model,
            )
    else:
        states = np.empty((min(pass_rows, len(rows)), n), dtype=bool)
        for lo in range(0, len(rows), pass_rows):
            passes += 1
            of_row, slots = row_job[lo:lo + pass_rows], row_pos[lo:lo + pass_rows]
            secure = flips.patched(rd.node_secure, of_row, out=states[:len(slots)])
            deltas[lo:lo + pass_rows] = _resolved_deltas(
                rd.arena, slots, rd, slots, isps[of_row],
                secure, deriver.breaks_ties(secure), w, model,
            )
    registry = get_registry()
    if registry.enabled:
        registry.counter("sim.projection.rows").inc(len(rows))
        registry.counter("sim.projection.passes").inc(passes)

    # each job's deltas, added left to right as a running sum over its
    # destinations would (``add.at`` applies its operands in order)
    delta = np.zeros(num_jobs, dtype=np.float64)
    np.add.at(delta, row_job, deltas)
    moved = (deltas != 0) & ~is_special
    touched = np.bincount(row_job[moved], minlength=num_jobs).tolist()
    recomputed = np.bincount(row_job, minlength=num_jobs).tolist()
    utility = (rd.utilities[isps] + delta).tolist()

    # Remaining candidates: exact deltas via local propagation.
    inc_job, inc_pos = np.divmod(incremental, num_dests)
    bounds = np.searchsorted(inc_job, np.arange(num_jobs + 1))
    for job in np.flatnonzero(np.diff(bounds)).tolist():
        node_secure_new, breaks_new = flips.state(rd, deriver, job)
        nodes = flips.nodes_of(job).tolist()
        total = float(delta[job])
        for pos in inc_pos[bounds[job]:bounds[job + 1]].tolist():
            d = _incremental_delta(
                rd.dest_state(pos), node_secure_new, breaks_new, nodes,
                int(isps[job]), model, w,
            )
            if d:
                touched[job] += 1
            total += d
        utility[job] = float(rd.utilities[isps[job]]) + total

    nodes, ends = flips.nodes.tolist(), flips.ptr.tolist()
    return [
        Projection(
            isp=int(isp),
            turning_on=bool(turning_on),
            utility=utility[job],
            flips=dict.fromkeys(nodes[ends[job]:ends[job + 1]], bool(turning_on)),
            dests_recomputed=recomputed[job],
            dests_delta=touched[job],
        )
        for job, (isp, turning_on) in enumerate(jobs)
    ]


def _pass_rows(n: int) -> int:
    """Rows per pass: :data:`_PASS_ENTRIES` entries, fewer where the
    memory budget cannot hold that many rows' kernel working set."""
    rows = max(1, _PASS_ENTRIES // n)
    return current_guard().plan_batch_rows(
        rows, _KERNEL_ROW_BYTES_PER_NODE * n, what="projection pass"
    )


def _rows_to_resolve(
    rd: RoundData,
    flips: _FlipSets,
    model: UtilityModel,
    rebuilds: bool,
    num_dests: int,
    max_entries: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, is_special)``: every ``(job, position)`` whose tree the
    job's flip can change, keyed ``job * num_dests + position``, ascending.

    Destinations whose *own* security status changes (the special rows)
    always need a full recompute; so do all reroutable candidates,
    unless the INCREMENTAL engine propagates through them instead.
    """
    position_of = np.full(rd.arena.graph_n, -1, dtype=np.int64)
    position_of[rd.arena.dest_ids] = np.arange(rd.arena.num_dests)
    at = position_of[flips.nodes]
    special = flips.job_of_node()[at >= 0] * num_dests + at[at >= 0]
    if rebuilds:
        # The flip moves classes and lengths, not just tie-breaks, so the
        # tiebreak-only machinery (incremental propagation, the
        # ``sec``/``any_sec`` candidate refinements) is invalid.  What
        # survives is the coarse pruning: a destination that is insecure
        # in *both* states has all-insecure paths under any ranking, so
        # its routing collapses to the security-free order of the policy
        # and cannot react to the flip.
        candidates = (
            np.arange(len(flips.isps))[:, None] * num_dests + rd.secure_dest_positions
        ).reshape(-1)
    else:
        candidates = _candidate_rows(rd, flips, model, num_dests, max_entries)
    # one sort orders the rows by job, then position, a special row
    # ahead of the candidate row it doubles
    tagged = np.sort(np.concatenate((special * 2, candidates * 2 + 1)))
    rows = tagged >> 1
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = rows[1:] != rows[:-1]
    return rows[fresh], (tagged[fresh] & 1) == 0


def _candidate_rows(
    rd: RoundData,
    flips: _FlipSets,
    model: UtilityModel,
    num_dests: int,
    max_entries: int,
) -> np.ndarray:
    """``job * num_dests + position`` of the secure destinations where
    each job's flip could change routing, ascending.  The ``[secure
    dests, flip nodes]`` gather behind it is taken a run of jobs at a
    time: at most ``max_entries`` entries, or one job."""
    secure_pos = rd.secure_dest_positions
    if not len(secure_pos):
        return np.zeros(0, dtype=np.int64)
    found = []
    ptr, num_jobs = flips.ptr, len(flips.isps)
    nodes_per_run = max(1, max_entries // len(secure_pos))
    lo = 0
    while lo < num_jobs:
        hi = max(lo + 1, int(np.searchsorted(ptr, ptr[lo] + nodes_per_run, "right")) - 1)
        nodes = flips.nodes[ptr[lo]:ptr[hi]]
        turning_on = np.repeat(flips.on[lo:hi], np.diff(ptr[lo:hi + 1]))
        # turning on, a flipped node can only start influencing SecP
        # decisions if it can acquire a secure chosen path, i.e. has a
        # secure candidate; turning off, symmetrically, it must have a
        # secure chosen path to lose
        if turning_on.all():
            reach = rd.secure_dest_any_sec[:, nodes]
        else:
            reach = rd.secure_dest_sec[:, nodes]
            if turning_on.any():
                reach[:, turning_on] = rd.secure_dest_any_sec[:, nodes[turning_on]]
        possible = np.logical_or.reduceat(reach, ptr[lo:hi] - ptr[lo], axis=1)
        job, which = np.nonzero(possible.T)
        job += lo
        positions = secure_pos[which]
        if model is UtilityModel.OUTGOING:
            # only destinations n reaches via a customer edge contribute
            via_customer = rd.arena.cls[positions, flips.isps[job]] == _CUSTOMER
            job, positions = job[via_customer], positions[via_customer]
        found.append(job * num_dests + positions)
        lo = hi
    return np.concatenate(found)


def _resolved_deltas(
    arena: RoutingArena,
    slots: np.ndarray,
    rd: RoundData,
    positions: np.ndarray,
    nodes: int | np.ndarray,
    node_secure: np.ndarray,
    breaks_ties: np.ndarray,
    node_weights: np.ndarray,
    model: UtilityModel,
) -> np.ndarray:
    """Per row ``i``: what the state ``node_secure[i]`` adds to
    ``nodes[i]``'s utility at destination ``positions[i]`` of the round
    (``nodes``: one node per row, or one for all).

    The trees of ``slots`` (``arena``'s structures of those
    destinations: the round's own, or a rebuild under the flipped state)
    resolved in one stacked pass under the rows' states — ``[n]`` for one
    state, ``[B, n]`` for a state per row — against the round's rows.
    """
    bt = compute_trees_batched(arena, slots, node_secure, breaks_ties)
    w2d = subtree_weights_batched(arena, slots, bt.choice, node_weights)
    new = contributions(arena.cls[slots], bt.choice, w2d, nodes, node_weights, model)
    old = contributions(
        rd.arena.cls, rd.choice, rd.weights, nodes, node_weights, model, rows=positions
    )
    return new - old


def _rebuilt_deltas(
    cache: RoutingCache,
    rd: RoundData,
    positions: np.ndarray,
    isp: int,
    node_secure_new: np.ndarray,
    breaks_new: np.ndarray,
    model: UtilityModel,
) -> np.ndarray:
    """What a flip adds to ``isp``'s utility at each destination of
    ``positions`` where structures move with the state: rebuilt under
    the flipped state (one batched fixpoint build, slot ``i`` for
    ``positions[i]``), then resolved as one stack."""
    n = cache.graph.n
    pools = cache.policy.build_pools(
        cache.graph,
        [cache.destinations[p] for p in positions.tolist()],
        cache.compiled,
        node_secure=node_secure_new,
        breaks_ties=breaks_new,
        backend=cache.backend_name,
    )
    arena = RoutingArena(
        n, RoutingArena.concat(n, [pools], keys=True),
        policy=pools.policy, backend=cache.backend_name,
    )
    return _resolved_deltas(
        arena, arena.all_slots(), rd, positions, isp,
        node_secure_new, breaks_new, cache.graph.weights, model,
    )


def _incremental_delta(
    ds: DestState,
    node_secure_new: np.ndarray,
    breaks_new: np.ndarray,
    flips: Iterable[int],
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
        deltas = _rebuilt_deltas(
            cache, rd, np.asarray(candidates, dtype=np.int64), isp,
            node_secure_new, breaks_new, UtilityModel.INCOMING,
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
