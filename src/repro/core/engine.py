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
per-destination consumer asks for it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.config import UtilityModel
from repro.core.state import DeploymentState, StateDeriver
from repro.routing.arena import (
    BatchedTrees,
    RoutingArena,
    compute_trees_batched,
    subtree_weights_batched,
)
from repro.routing.cache import RoutingCache
from repro.routing.paths import RoutingTree
from repro.routing.policy import RouteClass
from repro.routing.tree import DestRouting
from repro.runtime.guard import current_guard

_CUSTOMER = int(RouteClass.CUSTOMER)
_PROVIDER = int(RouteClass.PROVIDER)

#: Per-``(dest, node)`` bytes of the batched kernels' working set, on
#: every backend: ``choice`` int32 + ``secure``/``any_secure`` bool
#: outputs, the float64 subtree weights, the two per-row bool masks the
#: tree kernel looks up by flat index, and a margin for the per-level
#: temporaries (they scale with one level's rows, not with the matrix).
_KERNEL_ROW_BYTES_PER_NODE = 18


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


def compute_round_data(
    cache: RoutingCache,
    deriver: StateDeriver,
    state: DeploymentState,
    model: UtilityModel,
) -> RoundData:
    """Resolve all routing trees and utilities for ``state``.

    Runs on the pooled :class:`~repro.routing.arena.RoutingArena`
    (built on first use): every destination's tree is resolved by the
    batched level-synchronous kernel in one stacked pass, and the
    security/candidate matrices are the kernel's output buffers —
    no per-destination copies.
    """
    graph = cache.graph
    node_secure, deploying_providers = deriver.derive(state)
    breaks = deriver.breaks_ties(node_secure)
    w = graph.weights

    # no-op for state-independent policies; rebuilds every structure
    # under (node_secure, breaks) for security_1st / security_2nd
    cache.ensure_state(node_secure, breaks)
    arena = cache.ensure_arena()
    slots = arena.all_slots()
    chunk_rows = current_guard().plan_batch_rows(
        arena.num_dests, _KERNEL_ROW_BYTES_PER_NODE * graph.n,
        what="round kernel",
    )
    if chunk_rows >= arena.num_dests:
        bt = compute_trees_batched(arena, slots, node_secure, breaks)
        w2d = subtree_weights_batched(arena, slots, bt.choice, w)
    else:
        bt, w2d = _chunked_round_kernels(
            arena, slots, node_secure, breaks, w, chunk_rows
        )
    utilities = _batched_utilities(arena, bt, w2d, w, model)

    secure_positions = np.flatnonzero(
        node_secure[np.asarray(cache.destinations, dtype=np.int64)]
    )
    return RoundData(
        state=state,
        node_secure=node_secure,
        deploying_providers=deploying_providers,
        breaks_ties=breaks,
        arena=arena,
        choice=bt.choice,
        weights=w2d,
        utilities=utilities,
        sec_matrix=bt.secure,
        any_sec_matrix=bt.any_secure,
        secure_dest_positions=secure_positions,
        secure_dest_sec=bt.secure[secure_positions],
        secure_dest_any_sec=bt.any_secure[secure_positions],
    )


def _chunked_round_kernels(
    arena: RoutingArena,
    slots: np.ndarray,
    node_secure: np.ndarray,
    breaks: np.ndarray,
    weights: np.ndarray,
    chunk_rows: int,
) -> tuple[BatchedTrees, np.ndarray]:
    """Run the round kernels over destination chunks (degraded mode).

    The ``chunked_batches`` ladder rung: instead of resolving every
    destination in one stacked pass, the kernels run over ``chunk_rows``
    slots at a time, bounding the transient per-level gather/scratch
    arrays by the chunk size.  The ``[num_dests, n]`` output matrices
    are still materialised (every downstream consumer needs them), and
    because the kernels are independent per destination the stitched
    outputs are bit-identical to the full-batch pass — degraded runs
    stay exact, just slower.
    """
    num = arena.num_dests
    n = arena.graph_n
    choice = np.empty((num, n), dtype=np.int32)
    secure = np.empty((num, n), dtype=bool)
    any_secure = np.empty((num, n), dtype=bool)
    w2d = np.empty((num, n), dtype=np.float64)
    for lo in range(0, num, chunk_rows):
        hi = min(lo + chunk_rows, num)
        sub = slots[lo:hi]
        part = compute_trees_batched(arena, sub, node_secure, breaks)
        choice[lo:hi] = part.choice
        secure[lo:hi] = part.secure
        any_secure[lo:hi] = part.any_secure
        w2d[lo:hi] = subtree_weights_batched(arena, sub, part.choice, weights)
    bt = BatchedTrees(
        dest_ids=arena.dest_ids[slots],
        slots=slots,
        choice=choice,
        secure=secure,
        any_secure=any_secure,
    )
    return bt, w2d


def _batched_utilities(
    arena: RoutingArena,
    bt: BatchedTrees,
    w2d: np.ndarray,
    node_weights: np.ndarray,
    model: UtilityModel,
) -> np.ndarray:
    """Reduce the ``[num_dests, n]`` subtree weights into per-AS utility."""
    n = arena.graph_n
    cls2d = arena.cls
    if model is UtilityModel.OUTGOING:
        return np.where(cls2d == _CUSTOMER, w2d, 0.0).sum(axis=0)
    mask = cls2d == _PROVIDER
    if not mask.any():
        return np.zeros(n, dtype=np.float64)
    _, src_nodes = np.nonzero(mask)
    return np.bincount(
        bt.choice[mask],
        weights=w2d[mask] + node_weights[src_nodes],
        minlength=n,
    )


def utilities_for_state(
    cache: RoutingCache,
    deriver: StateDeriver,
    state: DeploymentState,
    model: UtilityModel,
) -> np.ndarray:
    """Convenience wrapper: utilities of every AS in ``state``."""
    return compute_round_data(cache, deriver, state, model).utilities
