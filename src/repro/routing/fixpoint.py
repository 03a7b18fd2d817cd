"""Batched BGP fixpoint builder for state-dependent routing policies.

Observation C.1 (``tree.py``) only holds when SecP is ranked *last*:
then a security flip can change the choice within a tiebreak set but
never the selected class or length.  Under ``security_2nd``
(``LP > SecP > SP``) and ``security_1st`` (``SecP > LP > SP``) the
structure itself — classes, lengths and tiebreak sets — depends on the
deployment state, so this module computes it by synchronous (Jacobi)
best-response iteration over the edge table, batched across
destinations.

Per sweep, every directed edge ``u <- v`` offers ``v``'s current label
to ``u`` if GR2 allows the export, and ``u`` takes the offer with the
smallest **selection word** ``rank_key << 32 | tie_rank``.  ``rank_key``
is a packed ``uint32`` whose fields follow the policy ranking (first
criterion in the highest bits); edges equal on it form the tiebreak
set.  ``tie_rank`` is the edge's place, within ``u``'s segment, in the
order of the static tie-break key ``hash(u, v) | position`` — the key
the tree kernels minimise — so one minimum over the word picks the
offer the two-stage rule (best rank key, then least tie-break key among
the tied) picks, and a converged structure resolved by
:func:`~repro.routing.arena.compute_trees_batched` under the same
deployment state reproduces the fixpoint's choices exactly: tied
candidates always share one length (SP is in every ranking), tie sets
at SecP-applying nodes are security-homogeneous, and fixpoint
selections are loop-free because lengths decrease by one along the
choice chain.

The iteration itself is :class:`JacobiDriver`, shared with the attack
layer (:mod:`repro.security.hijack`): App. A's ranking does not change
when a second AS originates the prefix, so one backend kernel
(``jacobi_converge``) serves both, and single-origin structure building
is its no-adversary case — every row carries ``attacker = -1``.  The
driver hands a backend a whole chunk in one call: the labels, updated
in place, each row's adversary and its pins — at most :data:`MAX_PINS`
``(node, fields, cls, length, sec, att)`` records per row, data in
place of a callback, that hold an origin's labels fixed
(:func:`pin_table`) — and gets back, per row, whether it converged and
after how many sweeps.  Rows never interact and the step is
deterministic, so a row that a sweep left unchanged is at its fixed
point, and a moving row that is back at the labels it held two sweeps
earlier is in a 2-cycle and will never converge.  A node's next label
depends only on its neighbours' labels and its fixed pins, so after the
first sweep only the nodes that read a node the previous sweep changed
can move: the compiled tiers re-decide just those (the *frontier*,
found through the edge table's reverse index), one row at a time; numpy
re-decides every node of every row still moving, one sweep across the
chunk at a time.

Convergence: rankings with LP first (``security_2nd``, and the default)
admit no dispute wheel under GR1 topologies, so the iteration reaches
the unique stable state in about one sweep per path-length level.
``security_1st`` can genuinely oscillate (Lychev et al., PAPERS.md);
the 2-cycle test and, for longer cycles, the sweep cap turn that into a
:class:`ConvergenceError` rather than a silent wrong answer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.routing import backends as kernel_backends
from repro.routing.compiled import CompiledGraph, offsets
from repro.routing.policy import POSITION_BITS, Criterion, RouteClass
from repro.routing.reference import ConvergenceError
from repro.routing.tree import (
    StructurePools,
    assemble_pools,
    compute_tie_keys,
    destination_chunks,
)
from repro.telemetry.metrics import get_registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.routing.policy import RoutingPolicy
    from repro.topology.graph import ASGraph

_SELF = int(RouteClass.SELF)
_CUSTOMER = int(RouteClass.CUSTOMER)
_PEER = int(RouteClass.PEER)
_PROVIDER = int(RouteClass.PROVIDER)
_UNREACHABLE = int(RouteClass.UNREACHABLE)

#: rank-key field widths (bits); LP + SP + SECP must fit in 31 bits so
#: every valid selection word is strictly below the all-ones "barred"
_WIDTH = {Criterion.LP: 2, Criterion.SP: 21, Criterion.SECP: 1}

#: criterion -> its place in the kernels' ``rank_shifts`` (kernels take
#: plain arrays, not enums, so they stay C-compatible)
_RANK_CODE = {Criterion.LP: 0, Criterion.SP: 1, Criterion.SECP: 2}

# The values every kernel tier shares, defined here once: numpy_impl and
# _loops import them, and cext formats them into its C source.
#
# Bits of the per-edge ``edge_flags``: everything static that decides
# what ``v`` may offer ``u`` over an edge and how ``u`` ranks it.
EDGE_APPLIES = 1      # u applies SecP
EDGE_NONPROVIDER = 2  # v is not u's provider: GR2 restricts the export
EDGE_GULLIBLE = 4     # provider edge of a stub that believes the attacker
EDGE_DROPS = 8        # u rejects routes it cannot validate
# Bits of a pin's ``fields``: the labels it holds at its node (the sweep
# decides the others there as for any node).
PIN_CLS, PIN_LEN, PIN_SEC, PIN_ATT = 1, 2, 4, 8
PIN_ROUTE = PIN_CLS | PIN_LEN | PIN_SEC  # an origin's own route
PIN_ALL = PIN_ROUTE | PIN_ATT
#: pins per row: the victim's and the attacker's
MAX_PINS = 2
# A row's status, as a kernel returns it.
ROW_CONVERGED, ROW_REVISITS, ROW_MOVING = 0, 1, 2

#: bucket bounds of the ``routing.jacobi.sweeps`` histogram
_SWEEP_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 1024)

#: one chunk's route labels: ``(cls int8, length int32, sec bool, att
#: bool)``, each ``[chunk, n]``; ``att`` marks routes that descend from
#: an attacker's announcement
Labels = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class _EdgeTable:
    """The directed offer graph ``u <- v`` in segment-sorted flat form.

    Edges are concatenated class-by-class (customer, peer, provider)
    and stable-sorted by ``(u, v)`` — the order the structure
    assembler gives candidates — so ``node_ptr[u]:node_ptr[u + 1]`` is
    ``u``'s *segment*, the offers it chooses among (empty for a node
    without neighbours), and the position of an edge within it orders
    candidates exactly like the rows of the tiebreak CSR:
    :func:`~repro.routing.tree.compute_tie_keys` over the segments is
    the tie-break key the tree kernels minimise over any tie set.  The
    keys of a segment are distinct and never change, so the table keeps
    their *order* instead: ``tie_rank[e]`` is edge ``e``'s place in its
    segment by ascending key, and ``rank_edge[node_ptr[u] + r]`` is the
    edge that holds place ``r``.

    ``rev_ptr`` / ``rev_seg`` index the edges the other way round:
    ``rev_seg[rev_ptr[v]:rev_ptr[v + 1]]`` are the segments, named by
    their node, that read ``v`` — the nodes a change to ``v``'s label
    can move.

    It depends on the graph alone; :func:`_edge_table` builds it once
    per :class:`CompiledGraph`.
    """

    def __init__(self, cg: CompiledGraph) -> None:
        if cg.n > (1 << POSITION_BITS):
            raise ValueError(
                f"fixpoint tie-break keys need n <= {1 << POSITION_BITS}, got {cg.n}"
            )
        u = np.concatenate([cg.cust_src, cg.peer_src, cg.prov_src])
        v = np.concatenate([cg.cust_idx, cg.peer_idx, cg.prov_idx])
        route_cls = np.concatenate(
            [
                np.full(len(cg.cust_src), _CUSTOMER, dtype=np.int8),
                np.full(len(cg.peer_src), _PEER, dtype=np.int8),
                np.full(len(cg.prov_src), _PROVIDER, dtype=np.int8),
            ]
        )
        sort = np.argsort(u.astype(np.int64) * cg.n + v, kind="stable")
        self.n = n = cg.n
        self.u = u[sort].astype(np.int32)
        self.v = v[sort].astype(np.int32)
        self.route_cls = route_cls[sort]
        self.num_edges = len(self.u)
        self.node_ptr = offsets(np.bincount(self.u, minlength=n))
        tie_key = compute_tie_keys(np.arange(n), self.node_ptr, self.v)
        # u is sorted, so this orders each segment's edges by tie key
        self.rank_edge = np.lexsort((tie_key, self.u)).astype(np.int64)
        self.tie_rank = np.empty(self.num_edges, dtype=np.uint32)
        self.tie_rank[self.rank_edge] = np.arange(
            self.num_edges, dtype=np.int64
        ) - np.repeat(self.node_ptr[:-1], np.diff(self.node_ptr))
        # static LP field: customer (best) -> 0, peer -> 1, provider -> 2
        self.lp_field = (2 - self.route_cls).astype(np.uint32)
        self.is_provider_edge = self.route_cls == _PROVIDER
        self.rev_ptr = offsets(np.bincount(self.v, minlength=n))
        self.rev_seg = self.u[np.argsort(self.v, kind="stable")]


def _edge_table(cg: CompiledGraph) -> _EdgeTable:
    """``cg``'s edge table, built on first use and kept on ``cg``."""
    table = cg.__dict__.get("_edge_table")
    if table is None:
        # a frozen dataclass refuses setattr, not a write to its __dict__
        table = cg.__dict__["_edge_table"] = _EdgeTable(cg)
    return table


def _rank_shifts(ranking: Sequence[Criterion]) -> np.ndarray:
    """Where each criterion's field sits in the packed rank key, by its
    :data:`_RANK_CODE`: the ranking's first criterion in the highest
    bits."""
    shifts = np.zeros(len(_RANK_CODE), dtype=np.int64)
    at = 0
    for crit in reversed(ranking):
        shifts[_RANK_CODE[crit]] = at
        at += _WIDTH[crit]
    return shifts


def pin_table(chunk: int, *pins) -> np.ndarray:
    """The pins of ``chunk`` rows as the kernels take them:
    ``int64[chunk, MAX_PINS, 6]``.

    Each of ``pins`` is one ``(node, fields, cls, length, sec, att)``
    record, every entry a scalar or a ``[chunk]`` array; ``fields`` is
    a mask of ``PIN_*`` bits.  Pins apply in order, to the starting
    labels and after every sweep.  A row's unused records, and any
    record whose ``node`` is ``-1``, hold nothing.
    """
    if len(pins) > MAX_PINS:
        raise ValueError(f"at most {MAX_PINS} pins per row, got {len(pins)}")
    table = np.zeros((chunk, MAX_PINS, 6), dtype=np.int64)
    table[:, :, 0] = -1
    for k, pin in enumerate(pins):
        for field, value in enumerate(pin):
            table[:, k, field] = value
    return table


class JacobiDriver:
    """The one iterate-to-fixpoint call: the backends' ``jacobi_converge``.

    Built once per ``(CompiledGraph, policy, deployment state)``, it
    owns everything structure building and attack simulation share: the
    graph's edge table, the per-state edge flags, the policy's rank-key
    shifts, backend dispatch, the sweep cap, telemetry and the
    :class:`ConvergenceError`.  Callers differ only in data — which
    labels they pin, and whether a row has an adversary
    (``attackers[row]``; ``-1``, the default, is none).

    ``applies`` marks the nodes that exercise SecP; ``gullible`` the
    nodes that believe an attacking provider's word, ``validators`` +
    ``drop`` the nodes that reject unvalidated routes (all empty by
    default: the honest world).  ``backend`` resolves through
    :mod:`repro.routing.backends`; ``max_sweeps`` defaults to ``n + 8``.
    """

    def __init__(
        self,
        cg: CompiledGraph,
        policy: "RoutingPolicy",
        node_secure: np.ndarray,
        applies: np.ndarray,
        *,
        gullible: np.ndarray | None = None,
        validators: np.ndarray | None = None,
        drop: bool = False,
        backend: str | None = None,
        max_sweeps: int | None = None,
    ) -> None:
        self.table = table = _edge_table(cg)
        self.n = cg.n
        self.cap = max_sweeps if max_sweeps is not None else cg.n + 8
        backend_name, self._kernels = kernel_backends.kernels_for(
            kernel_backends.resolve_backend(backend)
        )
        registry = get_registry()
        if registry.enabled:
            registry.counter(f"routing.backend.calls.{backend_name}").inc()
        self._rank_shifts = _rank_shifts(policy.ranking)
        self._node_secure = node_secure
        flags = np.where(table.is_provider_edge, 0, EDGE_NONPROVIDER).astype(np.uint8)
        flags[applies[table.u]] |= EDGE_APPLIES
        if gullible is not None:
            flags[table.is_provider_edge & gullible[table.u]] |= EDGE_GULLIBLE
        if drop and validators is not None:
            flags[validators[table.u]] |= EDGE_DROPS
        self._edge_flags = flags

    def blank(self, chunk: int) -> Labels:
        """All-unreachable ``(cls, length, sec, att)`` for ``chunk`` rows."""
        return (
            np.full((chunk, self.n), _UNREACHABLE, dtype=np.int8),
            np.full((chunk, self.n), -1, dtype=np.int32),
            np.zeros((chunk, self.n), dtype=bool),
            np.zeros((chunk, self.n), dtype=bool),
        )

    def converge(
        self,
        labels: Labels,
        pins: np.ndarray,
        what: str,
        *,
        attackers: np.ndarray | None = None,
        leak: bool = False,
        tied: np.ndarray | None = None,
    ) -> np.ndarray:
        """Pin ``labels``, then sweep each row until a sweep leaves it
        alone, in place; returns the sweeps each row took (the last one
        changed nothing).

        ``pins`` is the chunk's :func:`pin_table`.  ``tied``, when
        given, ends up holding the converged tiebreak-set mask per edge.
        Raises :class:`ConvergenceError` naming ``what`` if a row
        revisits the state it held two sweeps before — naming the
        earliest such sweep of any row — or else if a row still moves
        after ``max_sweeps``: a real possibility for ``security_1st``,
        which admits dispute wheels.
        """
        table = self.table
        chunk = labels[0].shape[0]
        if attackers is None:
            attackers = np.full(chunk, -1, dtype=np.int64)
        stats = np.zeros((chunk, 3), dtype=np.int64)
        self._kernels.jacobi_converge(
            table.v, table.route_cls, table.node_ptr, table.tie_rank,
            table.rank_edge, table.lp_field, table.rev_ptr, table.rev_seg,
            self._edge_flags, self._rank_shifts, self._node_secure,
            attackers, leak, pins, self.cap, *labels, stats, tied,
        )
        status, sweeps, decisions = stats.T
        registry = get_registry()
        if registry.enabled:
            histogram = registry.histogram("routing.jacobi.sweeps", _SWEEP_BUCKETS)
            for count in sweeps.tolist():
                histogram.observe(count)
            registry.counter("routing.jacobi.decisions").inc(int(decisions.sum()))
        if (status != ROW_CONVERGED).any():
            revisits = sweeps[status == ROW_REVISITS]
            if len(revisits):
                raise ConvergenceError(
                    f"{what} did not converge: sweep {int(revisits.min())} "
                    f"revisits the state of two sweeps before"
                )
            raise ConvergenceError(
                f"{what} did not converge within {self.cap} sweeps"
            )
        return sweeps


def fixpoint_pools(
    graph: "ASGraph",
    dests: Sequence[int],
    policy: "RoutingPolicy",
    compiled: CompiledGraph | None = None,
    node_secure: np.ndarray | None = None,
    breaks_ties: np.ndarray | None = None,
    max_sweeps: int | None = None,
    backend: str | None = None,
) -> list[StructurePools]:
    """Converged structures of ``dests`` under ``policy``, one
    :class:`StructurePools` per destination chunk.

    ``node_secure`` / ``breaks_ties`` default to all-insecure, in which
    case SecP never discriminates and any ranking degenerates to its
    security-free order.  Raises :class:`ConvergenceError` if a batch
    has not stabilised after ``max_sweeps`` (default ``n + 8``) — a real
    possibility for ``security_1st``, which admits dispute wheels.

    ``backend`` selects the sweep kernel implementation
    (:mod:`repro.routing.backends`); ``None`` resolves through the
    ``SBGP_KERNEL_BACKEND`` env var, then ``auto`` (cext when it loads,
    else numpy), and an unusable compiled backend degrades to numpy.
    """
    cg = compiled or CompiledGraph.from_graph(graph)
    n = cg.n
    if node_secure is None:
        node_secure = np.zeros(n, dtype=bool)
    if breaks_ties is None:
        breaks_ties = np.zeros(n, dtype=bool)
    node_secure = np.asarray(node_secure, dtype=bool)
    driver = JacobiDriver(
        cg, policy, node_secure,
        node_secure & np.asarray(breaks_ties, dtype=bool),
        backend=backend, max_sweeps=max_sweeps,
    )
    table = driver.table

    out: list[StructurePools] = []
    # the same chunks as the state-independent build: they bound the
    # [chunk, edges] working set of a Jacobi batch just as well
    for batch in destination_chunks(cg, np.asarray(list(dests), dtype=np.int64)):
        # the destination always keeps its own (empty, trivially best)
        # route
        pins = pin_table(len(batch), (batch, PIN_ROUTE, _SELF, 0, node_secure[batch], 0))
        labels = driver.blank(len(batch))
        tied = np.zeros((len(batch), table.num_edges), dtype=bool)
        driver.converge(
            labels, pins,
            f"policy {policy.name!r} (destinations {batch[:4].tolist()}...)",
            tied=tied,
        )
        cls, length, _, _ = labels
        # a node's tiebreak set is its tied offers; the destination's
        # own row keeps none (it is pinned, whatever it was offered)
        row, edge = np.nonzero(tied)
        keep = table.u[edge] != batch[row]
        src = row[keep] * n + table.u[edge[keep]]
        out.append(assemble_pools(batch, cls, length, src, table.v[edge[keep]]))
    return out
