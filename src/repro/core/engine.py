"""Per-round routing state and utilities (the Map-Reduce of App. C.3).

For a deployment state ``S`` the engine resolves the routing tree of
every destination (the *map* step, optionally parallelised across
destinations) and reduces the per-destination subtrees into the
outgoing / incoming utility of every AS (Section 3.3):

- outgoing (Eq. 1): ``u_n = sum over destinations d that n reaches via
  a customer edge of the weight of n's subtree in d's routing tree``;
- incoming (Eq. 2): ``u_n = sum over all destinations of the weights of
  the subtrees hanging off n via customer edges``.

The resolved ``[num_dests, n]`` matrices are retained for the round so
that the projection engine can compute deltas against them; a
per-destination :class:`DestState` is a view of one row, made when a
per-destination consumer asks for it.  A game resolves state after
state into one set of :class:`RoundBuffers`, and only the rows of
destinations secure in the new state or the last one are resolved
again: a destination insecure in both routes identically (App. C.4).
"""

from __future__ import annotations

import dataclasses
import weakref

import numpy as np

from repro.core.config import UtilityModel
from repro.core.state import DeploymentState, StateDeriver
from repro.routing.arena import RoutingArena, TreeBuffers, compute_trees_batched
from repro.routing.cache import RoutingCache
from repro.routing.paths import RoutingTree
from repro.routing.policy import RouteClass
from repro.routing.tree import DestRouting
from repro.runtime.guard import current_guard

_CUSTOMER = int(RouteClass.CUSTOMER)
_PROVIDER = int(RouteClass.PROVIDER)

#: Per-``(dest, node)`` bytes of a round pass's working set, on every
#: backend: its outputs, ``choice`` int32 + ``secure``/``any_secure``
#: bool + the float64 subtree weights (14), and 2 for what the numpy
#: tier adds per call: the round's ``[n]`` state masks tiled to the pass
#: (cext reads them in place) and its per-level
#: temporaries (they scale with one level's rows, not with the matrix).
_KERNEL_ROW_BYTES_PER_NODE = 16

#: What a pass with a state per row (a round's stacked projections)
#: holds on top: the ``[B, n]`` bool ``node_secure``, ``breaks_ties``
#: and their conjunction, the SecP mask the kernels read.
_STATE_ROW_BYTES_PER_NODE = 3


@dataclasses.dataclass
class DestState:
    """Resolved routing toward one destination in the current state."""

    dr: DestRouting
    tree: RoutingTree
    weights: np.ndarray  # subtree weight per node (excluding the node)
    _children: tuple[np.ndarray, np.ndarray] | None = None

    def children(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR (indptr, idx): children of each node in the routing tree."""
        if self._children is None:
            choice = self.tree.choice
            n = len(choice)
            valid = np.flatnonzero(choice >= 0)
            parents = choice[valid]
            counts = np.bincount(parents, minlength=n)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            order = np.argsort(parents, kind="stable")
            self._children = (indptr, valid[order].astype(np.int32))
        return self._children

    def children_of(self, node: int) -> np.ndarray:
        """Nodes whose next hop is ``node``."""
        indptr, idx = self.children()
        return idx[indptr[node]:indptr[node + 1]]


def contributions(
    cls: np.ndarray,
    choice: np.ndarray,
    weights: np.ndarray,
    node: int | np.ndarray,
    node_weights: np.ndarray,
    model: UtilityModel,
    rows: np.ndarray | slice = slice(None),
) -> np.ndarray:
    """What each destination adds to ``node``'s utility under ``model``.

    ``cls`` / ``choice`` / ``weights`` are matching ``[num_dests, n]``
    route classes, next hops and subtree weights; returns one float64
    per destination of ``rows`` (default: all).  ``node`` is one node
    for every row, or one node per row.  Outgoing (Eq. 1): the weight
    of ``node``'s subtree where it reaches the destination over a
    customer edge.  Incoming (Eq. 2): the subtrees (and own weights) of
    the children that reach ``node`` as their provider, summed per
    destination in node order.
    """
    index = np.arange(len(cls))[rows]
    if model is UtilityModel.OUTGOING:
        return np.where(cls[index, node] == _CUSTOMER, weights[index, node], 0.0)
    out = np.zeros(len(index), dtype=np.float64)
    of_row = np.reshape(node, (-1, 1))
    row, kids = np.nonzero((choice[rows] == of_row) & (cls[rows] == _PROVIDER))
    terms = weights[index[row], kids] + node_weights[kids]
    bounds = np.flatnonzero(np.diff(row, prepend=-1, append=-1))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        out[row[lo]] = terms[lo:hi].sum()
    return out


@dataclasses.dataclass
class RoundData:
    """Everything the decision rule needs about the current round.

    The matrices are ``[num_dests, n]``, row ``k`` for
    ``cache.destinations[k]``, resolved on ``arena``.
    """

    state: DeploymentState
    node_secure: np.ndarray
    deploying_providers: np.ndarray  # int32 [n]: per stub, providers that deploy
    breaks_ties: np.ndarray
    arena: RoutingArena            # the structures the round was resolved on
    choice: np.ndarray             # int32: next hop, -1 for dest/unreachable
    weights: np.ndarray            # float64: subtree weight (excluding the node)
    utilities: np.ndarray          # per node, under the configured model
    sec_matrix: np.ndarray         # bool: source path security
    any_sec_matrix: np.ndarray     # bool: secure tiebreak cand.
    secure_dest_positions: np.ndarray  # positions k with a secure destination
    secure_dest_sec: np.ndarray        # sec_matrix[secure_dest_positions]
    secure_dest_any_sec: np.ndarray    # any_sec_matrix[secure_dest_positions]
    _dest_states: dict[int, DestState] = dataclasses.field(default_factory=dict, repr=False)

    def dest_state(self, pos: int) -> DestState:
        """Row ``pos`` as a :class:`DestState` (views, made on first
        request and kept), for consumers that walk one tree."""
        ds = self._dest_states.get(pos)
        if ds is None:
            ds = self._dest_states[pos] = DestState(
                dr=self.arena.view(pos),
                tree=RoutingTree(
                    dest=int(self.arena.dest_ids[pos]),
                    choice=self.choice[pos],
                    secure=self.sec_matrix[pos],
                    any_secure_candidate=self.any_sec_matrix[pos],
                ),
                weights=self.weights[pos],
            )
        return ds

    def flipped(
        self, deriver: StateDeriver, isp: int, turning_on: bool
    ) -> tuple[dict[int, bool], np.ndarray, np.ndarray]:
        """``(flips, node_secure, breaks_ties)`` if ``isp`` flipped alone.

        ``flips`` maps ``isp`` and then each stub customer whose derived
        security moves with it (in :meth:`StateDeriver.stubs_of` order)
        to the new flag; the two vectors are this round's with those
        flips applied.
        """
        _, stubs = deriver.flipped_stubs(
            [isp], [turning_on], self.state, self.node_secure, self.deploying_providers
        )
        nodes = [isp, *stubs.tolist()]
        node_secure_new = self.node_secure.copy()
        node_secure_new[nodes] = turning_on
        return (
            dict.fromkeys(nodes, turning_on),
            node_secure_new,
            deriver.breaks_ties(node_secure_new),
        )


class RoundBuffers:
    """The round kernels' ``[num_dests, n]`` outputs, held by a caller
    that resolves round after round (a :class:`~repro.core.dynamics.
    DeploymentSimulation`): allocated on first use and again only when
    the arena's shape changes, rewritten by every
    :func:`compute_round_data` that gets them.  Holding them keeps each
    round from faulting in megabytes of fresh pages.

    They also remember what their rows were last resolved under: the
    arena (weakly, so a rebuilt arena is not kept alive), the node
    weights and each slot's destination security.  A destination
    insecure in a state routes over no secure path at all, so its row
    is the security-free tree of the arena and the weights in every such
    state (Appendix C.4's observation, which the projections use too).
    The next state therefore only has to re-resolve the slots whose
    destination is secure now or was secure then
    (:meth:`stale_slots`); any other change means all of them."""

    def __init__(self) -> None:
        self._shape: tuple[int, int] | None = None
        self.trees: TreeBuffers | None = None
        self.weights: np.ndarray | None = None
        self._resolved: tuple[weakref.ref, np.ndarray, np.ndarray] | None = None

    def take(self, rows: int, n: int) -> tuple[TreeBuffers, np.ndarray]:
        """Tree buffers and subtree weights for ``rows`` destinations of
        ``n`` nodes."""
        if self._shape != (rows, n):
            self.trees = self.weights = self._resolved = None  # the old ones go first
            self.trees = TreeBuffers.empty(rows, n)
            self.weights = np.empty((rows, n), dtype=np.float64)
            self._shape = (rows, n)
        return self.trees, self.weights

    def stale_slots(
        self, arena: RoutingArena, node_weights: np.ndarray, dest_secure: np.ndarray
    ) -> np.ndarray:
        """The slots to re-resolve for a state whose destinations are
        secure where ``dest_secure`` is: those secure now or at the last
        resolve, or all of them when the rows were resolved on another
        arena, under other node weights, or not at all.  Forgets the last
        resolve until :meth:`resolved` records the next."""
        last, self._resolved = self._resolved, None
        if last is None:
            return arena.all_slots()
        ref, weights, was_secure = last
        if ref() is not arena or not np.array_equal(
            weights.view(np.uint64), node_weights.view(np.uint64)
        ):
            return arena.all_slots()
        return np.flatnonzero(dest_secure | was_secure)

    def resolved(
        self, arena: RoutingArena, node_weights: np.ndarray, dest_secure: np.ndarray
    ) -> None:
        """Record that every row now holds ``arena``'s trees under
        ``node_weights`` and destination security ``dest_secure``."""
        self._resolved = (weakref.ref(arena), node_weights.copy(), dest_secure)


def compute_round_data(
    cache: RoutingCache,
    deriver: StateDeriver,
    state: DeploymentState,
    model: UtilityModel,
    *,
    buffers: RoundBuffers | None = None,
) -> RoundData:
    """Resolve all routing trees and utilities for ``state``.

    Runs on the pooled :class:`~repro.routing.arena.RoutingArena`
    (built on first use): every destination's tree and subtree weights
    are resolved by the batched kernel in one stacked pass, under the
    round's one state, and the security/candidate/weight matrices are
    the kernel's output buffers — no per-destination copies.  With
    ``buffers`` those matrices are the caller's, and the
    :class:`RoundData` is only good until the next call that gets them;
    without, they are allocated here.  Buffers that hold an earlier
    state's rows on the same arena and node weights have only the rows
    this state can move re-resolved, in place
    (:meth:`RoundBuffers.stale_slots`); the others already hold this
    state's trees, bit for bit.

    When the guard plans fewer rows per pass than the arena has (the
    ``chunked_batches`` ladder rung), the kernels run over that many
    destinations at a time, bounding their per-level scratch; because
    they are independent per destination, the outputs are bit-identical
    to the one-pass round — degraded runs stay exact, just slower.
    """
    graph = cache.graph
    node_secure, deploying_providers = deriver.derive(state)
    breaks = deriver.breaks_ties(node_secure)
    w = np.ascontiguousarray(graph.weights, dtype=np.float64)

    # no-op for state-independent policies; rebuilds every structure
    # under (node_secure, breaks) for security_1st / security_2nd, on a
    # new arena, so their rounds resolve every row
    cache.ensure_state(node_secure, breaks)
    arena = cache.ensure_arena()
    num = arena.num_dests
    dest_secure = node_secure[np.asarray(cache.destinations, dtype=np.int64)]
    buffers = buffers or RoundBuffers()
    trees, w2d = buffers.take(num, graph.n)
    slots = buffers.stale_slots(arena, w, dest_secure)
    pass_rows = max(1, min(len(slots), current_guard().plan_batch_rows(
        len(slots), _KERNEL_ROW_BYTES_PER_NODE * graph.n, what="round kernel",
    )))
    for lo in range(0, len(slots), pass_rows):
        batch = slots[lo:lo + pass_rows]
        compute_trees_batched(
            arena, batch, node_secure, breaks, out=trees, rows=batch,
            node_weights=w, weights_out=w2d,
        )
    buffers.resolved(arena, w, dest_secure)
    utilities = _batched_utilities(arena, trees.choice, w2d, w, model)

    secure_positions = np.flatnonzero(dest_secure)
    return RoundData(
        state=state,
        node_secure=node_secure,
        deploying_providers=deploying_providers,
        breaks_ties=breaks,
        arena=arena,
        choice=trees.choice,
        weights=w2d,
        utilities=utilities,
        sec_matrix=trees.secure,
        any_sec_matrix=trees.any_secure,
        secure_dest_positions=secure_positions,
        secure_dest_sec=trees.secure[secure_positions],
        secure_dest_any_sec=trees.any_secure[secure_positions],
    )


def _batched_utilities(
    arena: RoutingArena,
    choice: np.ndarray,
    w2d: np.ndarray,
    node_weights: np.ndarray,
    model: UtilityModel,
) -> np.ndarray:
    """Reduce the ``[num_dests, n]`` subtree weights into per-AS utility."""
    n = arena.graph_n
    cls2d = arena.cls
    if model is UtilityModel.OUTGOING:
        return np.sum(w2d, axis=0, where=cls2d == _CUSTOMER)
    mask = cls2d == _PROVIDER
    if not mask.any():
        return np.zeros(n, dtype=np.float64)
    _, src_nodes = np.nonzero(mask)
    return np.bincount(
        choice[mask],
        weights=w2d[mask] + node_weights[src_nodes],
        minlength=n,
    )

