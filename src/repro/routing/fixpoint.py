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
smallest **selection word** ``rank_key << 32 | e``.  ``rank_key`` is a
packed ``uint32`` whose fields follow the policy ranking (first
criterion in the highest bits); edges equal on it form the tiebreak
set.  ``e`` is the edge's own index: the table keeps each node's
segment in tie-break order (:func:`~repro.routing.tree.tie_order`) —
the order the pools keep every tiebreak set in, whose first candidate
TB picks — so within a segment the index order is the tie order, one
minimum over the word picks the offer the two-stage rule (best rank
key, then least tie-break key among the tied) picks, and the word's
low half names the winning edge.  A converged structure resolved by
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
is a function of its least selection word, of the labels of that
word's source and of its fixed pins alone, so after the first sweep a
node can move only if a neighbour the previous sweep changed now offers
it a word below that least, or is that source.  cext keeps
each node's least word, pushes every changed node's new offers along
the edge table's reverse index, and re-decides just the nodes so
reached (the *frontier*) — scanning a node's segment again only when
its best source's word got worse — one row at a time; numpy re-decides
every node of every row still moving, one sweep across the chunk at a
time.

The same iteration builds ``sp_first`` (``SP > LP > SecP``): with SecP
last its structure does not move with the state, and with nobody secure
any ranking degenerates to its security-free order, so
:meth:`~repro.routing.policy.RoutingPolicy.build_into` converges it once,
all-insecure, for every state.

Convergence: rankings with LP first (``security_2nd``, and the default)
admit no dispute wheel under GR1 topologies, so the iteration reaches
the unique stable state in about one sweep per path-length level.
``security_1st`` can genuinely oscillate (Lychev et al., PAPERS.md);
the 2-cycle test and, for longer cycles, the sweep cap turn that into a
:class:`ConvergenceError` rather than a silent wrong answer.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.routing import backends as kernel_backends
from repro.routing.compiled import CompiledGraph, offsets
from repro.routing.policy import Criterion, RouteClass
from repro.routing.reference import ConvergenceError
from repro.routing.tree import (
    StructurePools,
    assemble_pools,
    destination_chunks,
    tie_order,
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

# The values both kernel tiers share, defined here once: numpy_impl
# imports them, and cext formats them into its C source.
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

#: the edge table's bound: an edge index is a selection word's low half,
#: and must differ from the all-ones low half of a barred offer
_MAX_EDGES = 1 << 32

#: bucket bounds of the ``routing.jacobi.sweeps`` histogram
_SWEEP_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 1024)

#: one chunk's route labels: ``(cls int8, length int32, sec bool, att
#: bool)``, each ``[chunk, n]``; ``att`` marks routes that descend from
#: an attacker's announcement
Labels = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class _EdgeTable:
    """The directed offer graph ``u <- v`` in segment-sorted flat form.

    ``node_ptr[u]:node_ptr[u + 1]`` is ``u``'s *segment*, the offers it
    chooses among (empty for a node without neighbours), stored in
    tie-break order (:func:`~repro.routing.tree.tie_order`, the order of
    every tiebreak set in the pools): of two offers in one segment, the
    one with the lower index is the one TB prefers.

    ``rev_ptr`` / ``rev_seg`` / ``rev_edge`` index the edges the other
    way round: ``rev_seg[rev_ptr[v]:rev_ptr[v + 1]]`` are the segments,
    named by their node, that read ``v`` — the nodes a change to ``v``'s
    label can move — and ``rev_edge`` the edges they read it over
    (``rev_seg == u[rev_edge]``).

    It depends on the graph alone; :func:`_edge_table` builds it once
    per :class:`CompiledGraph`.  An edge's index is the low half of its
    selection word, so the table holds fewer than ``2**32`` edges.
    """

    def __init__(self, cg: CompiledGraph) -> None:
        u = np.concatenate([cg.cust_src, cg.peer_src, cg.prov_src])
        if len(u) >= _MAX_EDGES:
            raise ValueError(
                f"the fixpoint's selection word needs fewer than {_MAX_EDGES} "
                f"edges, got {len(u)}"
            )
        v = np.concatenate([cg.cust_idx, cg.peer_idx, cg.prov_idx])
        route_cls = np.concatenate(
            [
                np.full(len(cg.cust_src), _CUSTOMER, dtype=np.int8),
                np.full(len(cg.peer_src), _PEER, dtype=np.int8),
                np.full(len(cg.prov_src), _PROVIDER, dtype=np.int8),
            ]
        )
        self.n = n = cg.n
        self.node_ptr = offsets(np.bincount(u, minlength=n))
        by_u = np.argsort(u, kind="stable")
        sort = by_u[tie_order(self.node_ptr, v[by_u])]
        self.u = u[sort].astype(np.int32)
        self.v = v[sort].astype(np.int32)
        self.route_cls = route_cls[sort]
        self.num_edges = len(self.u)
        # static LP field: customer (best) -> 0, peer -> 1, provider -> 2
        self.lp_field = (2 - self.route_cls).astype(np.uint32)
        self.is_provider_edge = self.route_cls == _PROVIDER
        self.rev_ptr = offsets(np.bincount(self.v, minlength=n))
        self.rev_edge = np.argsort(self.v, kind="stable")
        self.rev_seg = self.u[self.rev_edge]
        self._last_flags: tuple[tuple, np.ndarray] | None = None

    def edge_flags(
        self,
        applies: np.ndarray,
        gullible: np.ndarray | None = None,
        drops: np.ndarray | None = None,
    ) -> np.ndarray:
        """Every edge's ``EDGE_*`` bits, read-only, for the nodes that
        apply SecP, believe an attacking provider and drop what they
        cannot validate (``None``: nobody).

        They depend on the deployment state and the scenario alone, not
        on the ranking, so the last ones built are kept: an attack grid
        asks for the same flags under each policy in a row.  (On the
        numpy tier they also keep its last sweep plan, which lives as
        long as the flags it was derived from.)
        """
        key = tuple(None if m is None else m.tobytes() for m in (applies, gullible, drops))
        last = self._last_flags
        if last is not None and last[0] == key:
            return last[1]
        flags = np.where(self.is_provider_edge, 0, EDGE_NONPROVIDER).astype(np.uint8)
        flags[applies[self.u]] |= EDGE_APPLIES
        if gullible is not None:
            flags[self.is_provider_edge & gullible[self.u]] |= EDGE_GULLIBLE
        if drops is not None:
            flags[drops[self.u]] |= EDGE_DROPS
        flags.flags.writeable = False
        self._last_flags = (key, flags)
        return flags


def _edge_table(cg: CompiledGraph) -> _EdgeTable:
    """``cg``'s edge table, built on first use and kept on ``cg``."""
    table = cg.__dict__.get("_edge_table")
    if table is None:
        # a frozen dataclass refuses setattr, not a write to its __dict__
        table = cg.__dict__["_edge_table"] = _EdgeTable(cg)
    return table


@functools.lru_cache(maxsize=None)
def _rank_shifts(ranking: tuple[Criterion, ...]) -> np.ndarray:
    """Where each criterion's field sits in the packed rank key, by its
    :data:`_RANK_CODE`: the ranking's first criterion in the highest
    bits.  One read-only array per ranking."""
    shifts = np.zeros(len(_RANK_CODE), dtype=np.int64)
    at = 0
    for crit in reversed(ranking):
        shifts[_RANK_CODE[crit]] = at
        at += _WIDTH[crit]
    shifts.flags.writeable = False
    return shifts


def ranking_key(ranking: Sequence[Criterion], applies: np.ndarray) -> tuple[Criterion, ...]:
    """What of ``ranking`` the kernel can tell apart when the nodes in
    ``applies`` exercise SecP: all of it, or without SecP when nobody
    does.

    With no ``EDGE_APPLIES`` bit set, every offer's SecP field is the
    constant 1, which moves neither the least ``rank_key << 32 | e`` of
    a segment nor its ties, wherever the ranking puts the field: the
    labels and tie masks are those of the ranking without it.  So two
    problems equal on this key, the deployment state, ``applies`` and
    the adversary's terms converge to the same labels on every tier.
    """
    if applies.any():
        return tuple(ranking)
    return tuple(crit for crit in ranking if crit is not Criterion.SECP)


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
        self._edge_flags = table.edge_flags(
            applies, gullible, validators if drop else None
        )

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
            table.v, table.route_cls, table.node_ptr, table.lp_field,
            table.rev_ptr, table.rev_seg, table.rev_edge, self._edge_flags,
            self._rank_shifts, self._node_secure,
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
        get_registry().counter("routing.structure.chunks").inc()
    return out
