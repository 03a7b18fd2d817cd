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
(``jacobi_sweep``) serves both, and single-origin structure building
is its no-adversary case — every row carries ``attacker = -1``.  Rows
never interact and the step is deterministic, so the driver works row
by row inside a chunk: a row that a sweep left unchanged is at its
fixed point and is retired, only rows that moved are swept again, and a
moving row that is back at the labels it held two sweeps earlier is in
a 2-cycle and will never converge.

Convergence: rankings with LP first (``security_2nd``, and the default)
admit no dispute wheel under GR1 topologies, so the iteration reaches
the unique stable state in about one sweep per path-length level.
``security_1st`` can genuinely oscillate (Lychev et al., PAPERS.md);
the 2-cycle test and, for longer cycles, the sweep cap turn that into a
:class:`ConvergenceError` rather than a silent wrong answer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.routing import backends as kernel_backends
from repro.routing.compiled import CompiledGraph
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

#: criterion -> integer code in the backend kernels' rank metadata
#: (kernels take plain arrays, not enums, so they stay C-compatible)
_RANK_CODE = {Criterion.LP: 0, Criterion.SP: 1, Criterion.SECP: 2}

# Bits of the kernels' per-edge ``edge_flags``: everything static that
# decides what ``v`` may offer ``u`` over an edge and how ``u`` ranks
# it.  The kernels hardcode the same values.
_APPLIES = 1      # u applies SecP
_NONPROVIDER = 2  # v is not u's provider: GR2 restricts the export
_GULLIBLE = 4     # provider edge of a stub that believes the attacker
_DROPS = 8        # u rejects routes it cannot validate

#: one chunk's route labels: ``(cls int8, length int32, sec bool, att
#: bool)``, each ``[chunk, n]``; ``att`` marks routes that descend from
#: an attacker's announcement
Labels = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class _EdgeTable:
    """The directed offer graph ``u <- v`` in segment-sorted flat form.

    Edges are concatenated class-by-class (customer, peer, provider)
    and stable-sorted by ``(u, v)`` — the order the structure
    assembler gives candidates — so the position of an edge
    within its ``u``-segment orders candidates exactly like the rows of
    the tiebreak CSR, and :func:`~repro.routing.tree.compute_tie_keys`
    over the segments is the tie-break key the tree kernels minimise
    over any tie set.  The keys of a segment are distinct and never
    change, so the table keeps their *order* instead: ``tie_rank[e]``
    is edge ``e``'s place in its segment by ascending key, and
    ``rank_edge[seg_start + r]`` is the edge that holds place ``r``.

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
        self.n = cg.n
        self.u = u[sort].astype(np.int32)
        self.v = v[sort].astype(np.int32)
        self.route_cls = route_cls[sort]
        self.num_edges = len(self.u)
        if self.num_edges:
            breaks = np.flatnonzero(np.diff(self.u) != 0) + 1
            self.seg_starts = np.concatenate([[0], breaks]).astype(np.int64)
        else:
            self.seg_starts = np.zeros(0, dtype=np.int64)
        self.seg_u = self.u[self.seg_starts] if self.num_edges else self.u[:0]
        bounds = np.concatenate([self.seg_starts, [self.num_edges]])
        self.seg_sizes = np.diff(bounds)
        tie_key = compute_tie_keys(self.seg_u, bounds, self.v)
        # u is sorted, so this orders each segment's edges by tie key
        self.rank_edge = np.lexsort((tie_key, self.u)).astype(np.int64)
        self.tie_rank = np.empty(self.num_edges, dtype=np.uint32)
        self.tie_rank[self.rank_edge] = np.arange(
            self.num_edges, dtype=np.int64
        ) - np.repeat(self.seg_starts, self.seg_sizes)
        # static LP field: customer (best) -> 0, peer -> 1, provider -> 2
        self.lp_field = (2 - self.route_cls).astype(np.uint32)
        self.is_provider_edge = self.route_cls == _PROVIDER


def _edge_table(cg: CompiledGraph) -> _EdgeTable:
    """``cg``'s edge table, built on first use and kept on ``cg``."""
    table = cg.__dict__.get("_edge_table")
    if table is None:
        # a frozen dataclass refuses setattr, not a write to its __dict__
        table = cg.__dict__["_edge_table"] = _EdgeTable(cg)
    return table


def _rows_differ(a: Labels, b: Labels) -> np.ndarray:
    """Per row: does any of the four labels differ between ``a`` and ``b``?"""
    differ = (a[1] != b[1]).any(axis=1)  # lengths first: they move most
    for i in (0, 2, 3):
        if differ.all():
            break
        differ |= (a[i] != b[i]).any(axis=1)
    return differ


class JacobiDriver:
    """The one iterate-to-fixpoint loop over the backends' ``jacobi_sweep``.

    Built once per ``(CompiledGraph, policy, deployment state)``, it
    owns everything structure building and attack simulation share: the
    graph's edge table, the per-state edge flags, the policy's rank
    metadata, backend dispatch, the sweep cap and the convergence test.
    Callers differ only in data — which labels they pin after each
    sweep, and whether a row has an adversary (``attackers[row]``;
    ``-1``, the default, is none).

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
        self._rank_codes = np.array(
            [_RANK_CODE[crit] for crit in policy.ranking], dtype=np.int64
        )
        self._rank_widths = np.array(
            [_WIDTH[crit] for crit in policy.ranking], dtype=np.uint32
        )
        self._node_secure = node_secure
        flags = np.where(table.is_provider_edge, 0, _NONPROVIDER).astype(np.uint8)
        flags[applies[table.u]] |= _APPLIES
        if gullible is not None:
            flags[table.is_provider_edge & gullible[table.u]] |= _GULLIBLE
        if drop and validators is not None:
            flags[validators[table.u]] |= _DROPS
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
        pin: Callable[..., None],
        what: str,
        *,
        attackers: np.ndarray | None = None,
        leak: bool = False,
        tied: np.ndarray | None = None,
    ) -> Labels:
        """Pin ``labels``, then sweep each row until a sweep leaves it alone.

        ``pin(cls, length, sec, att, rows)`` overwrites the origins'
        labels in place; the arrays hold the chunk's rows ``rows``, in
        that order — all of them on the starting labels, after a sweep
        the rows that sweep covered.  ``tied``, when given, ends up
        holding the converged tiebreak-set mask per edge.  Raises
        :class:`ConvergenceError` naming ``what`` for a row that
        revisits the state it held two sweeps before, or still moves
        after ``max_sweeps`` — a real possibility for ``security_1st``,
        which admits dispute wheels.
        """
        table = self.table
        live = np.arange(labels[0].shape[0])
        if attackers is None:
            attackers = np.full(len(live), -1, dtype=np.int64)
        pin(*labels, live)
        # ``cur`` steps to ``new``; ``prev`` is the step before ``cur``.
        # A sweep writes every node that has a segment and ``pin`` the
        # origins, so a set blanked once stays right everywhere else
        # and is written over again two sweeps on (``spare``) — except
        # the caller's ``labels``, whose other nodes hold what the
        # caller put there.
        prev: Labels | None = None
        cur = labels
        spare: list[Labels] = []
        done: Labels | None = None  # where retired rows end up
        live_tied = tied
        for sweep in range(1, self.cap + 1):
            new = spare.pop() if spare else self.blank(len(live))
            self._kernels.jacobi_sweep(
                table.v, table.route_cls,
                table.seg_starts, table.seg_sizes, table.seg_u,
                table.tie_rank, table.rank_edge, table.lp_field,
                self._edge_flags, self._rank_codes, self._rank_widths,
                attackers, leak,
                *cur, self._node_secure,
                *new, live_tied,
            )
            pin(*new, live)
            moved = _rows_differ(new, cur)
            if prev is not None and not (_rows_differ(new, prev) | ~moved).all():
                raise ConvergenceError(
                    f"{what} did not converge: sweep {sweep} revisits the "
                    f"state of two sweeps before"
                )
            if moved.all():
                if prev is not None and prev is not labels:
                    spare.append(prev)
                prev, cur = cur, new
                continue
            # the other rows are at their fixed point: they retire
            if done is None:
                # the first to go: ``live`` is still every row, so their
                # labels (and their part of ``tied``) sit in place
                done = cur
            else:
                idle = live[~moved]
                for kept, last in zip(done, cur):
                    kept[idle] = last[~moved]
                if tied is not None:
                    tied[idle] = live_tied[~moved]
            if not moved.any():
                return done
            live, attackers = live[moved], attackers[moved]
            prev = tuple(x[moved] for x in cur)
            cur = tuple(x[moved] for x in new)
            spare = []
            if tied is not None:
                live_tied = np.empty((len(live), table.num_edges), dtype=bool)
        raise ConvergenceError(
            f"{what} did not converge within {self.cap} sweeps"
        )


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
        def pin(cls, length, sec, att, rows):
            # the destination always keeps its own (empty, trivially
            # best) route
            at = np.arange(len(rows)), batch[rows]
            cls[at] = _SELF
            length[at] = 0
            sec[at] = node_secure[at[1]]

        tied = np.zeros((len(batch), table.num_edges), dtype=bool)
        cls, length, _, _ = driver.converge(
            driver.blank(len(batch)), pin,
            f"policy {policy.name!r} (destinations {batch[:4].tolist()}...)",
            tied=tied,
        )
        # a node's tiebreak set is its tied offers; the destination's
        # own row keeps none (it is pinned, whatever it was offered)
        row, edge = np.nonzero(tied)
        keep = table.u[edge] != batch[row]
        src = row[keep] * n + table.u[edge[keep]]
        out.append(assemble_pools(batch, cls, length, src, table.v[edge[keep]]))
    return out
