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
to ``u`` if GR2 allows the export; ``u`` takes the minimum of a packed
``uint32`` rank key whose fields follow the policy ranking (first
criterion in the highest bits).  Edges tied on the rank key form the
tiebreak set, and the representative choice is the minimum of the
static tie-break key ``hash(u, v) | position`` — the *same* rule the
tree kernels apply, so a converged structure resolved by
:func:`~repro.routing.arena.compute_trees_batched` under the same
deployment state reproduces the fixpoint's choices exactly: tied candidates always share one length (SP is in
every ranking), tie sets at SecP-applying nodes are security-
homogeneous, and fixpoint selections are loop-free because lengths
decrease by one along the choice chain.

The iteration itself is :class:`JacobiDriver`, shared with the attack
layer (:mod:`repro.security.hijack`): App. A's ranking does not change
when a second AS originates the prefix, so one backend kernel
(``jacobi_sweep``) serves both, and single-origin structure building
is its no-adversary case — every row carries ``attacker = -1``.

Convergence: rankings with LP first (``security_2nd``, and the default)
admit no dispute wheel under GR1 topologies, so the iteration reaches
the unique stable state in about one sweep per path-length level.
``security_1st`` can genuinely oscillate (Lychev et al., PAPERS.md);
the sweep cap turns that into a :class:`ConvergenceError` rather than a
silent wrong answer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.routing import backends as kernel_backends
from repro.routing.compiled import CompiledGraph
from repro.routing.policy import (
    POSITION_BITS,
    Criterion,
    RouteClass,
    tie_hash_array,
)
from repro.routing.reference import ConvergenceError
from repro.routing.tree import StructurePools, assemble_pools, destination_chunks
from repro.telemetry.metrics import get_registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.routing.policy import RoutingPolicy
    from repro.topology.graph import ASGraph

_SELF = int(RouteClass.SELF)
_CUSTOMER = int(RouteClass.CUSTOMER)
_PEER = int(RouteClass.PEER)
_PROVIDER = int(RouteClass.PROVIDER)
_UNREACHABLE = int(RouteClass.UNREACHABLE)

# Rank/tie-key sentinels (inadmissible offer, non-tied edge) live with
# the kernel implementations in repro.routing.backends; here only the
# tie-key split is needed to build the static edge table.
_POS_MASK = np.uint64((1 << POSITION_BITS) - 1)
_HASH_MASK = ~_POS_MASK

#: rank-key field widths (bits); LP + SP + SECP must fit in 31 bits so
#: every valid key is strictly below ``_INVALID_A``
_WIDTH = {Criterion.LP: 2, Criterion.SP: 21, Criterion.SECP: 1}

#: criterion -> integer code in the backend kernels' rank metadata
#: (kernels take plain arrays, not enums, so they stay C-compatible)
_RANK_CODE = {Criterion.LP: 0, Criterion.SP: 1, Criterion.SECP: 2}

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
    the tiebreak CSR.  That makes the static tie-break key
    ``hash(u, v) | segment_position`` decide ties identically to
    :func:`~repro.routing.tree.compute_tie_keys` restricted to any tie
    set.
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
        seg_pos = (
            np.arange(self.num_edges, dtype=np.uint64)
            - np.repeat(self.seg_starts, self.seg_sizes).astype(np.uint64)
        )
        self.tie_key = (
            tie_hash_array(self.u.astype(np.uint64), self.v.astype(np.uint64))
            & _HASH_MASK
        ) | seg_pos
        # static LP field: customer (best) -> 0, peer -> 1, provider -> 2
        self.lp_field = (2 - self.route_cls).astype(np.uint32)
        self.is_provider_edge = self.route_cls == _PROVIDER


class JacobiDriver:
    """The one iterate-to-fixpoint loop over the backends' ``jacobi_sweep``.

    Built once per ``(CompiledGraph, policy, deployment state)``, it
    owns everything structure building and attack simulation share: the
    edge table, the policy's rank metadata, backend dispatch, the sweep
    cap and the convergence test.  Callers differ only in data — which
    labels they pin after each sweep, and whether a row has an
    adversary (``attackers[row]``; ``-1``, the default, is none).

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
        self.table = table = _EdgeTable(cg)
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
        self._applies_edge = applies[table.u]
        if gullible is None:
            self._gullible_edge = np.zeros(table.num_edges, dtype=bool)
        else:
            self._gullible_edge = table.is_provider_edge & gullible[table.u]
        self._validators = (
            np.zeros(cg.n, dtype=bool) if validators is None else validators
        )
        self._drop = drop

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
        """Pin ``labels``, then sweep until a sweep changes nothing.

        ``pin(cls, length, sec, att)`` overwrites the origins' labels in
        place; it runs on the starting labels and after every sweep.
        ``tied``, when given, ends up holding the converged tiebreak-set
        mask per edge.  Raises :class:`ConvergenceError` naming ``what``
        when the cap is reached — a real possibility for
        ``security_1st``, which admits dispute wheels.
        """
        table = self.table
        chunk = labels[0].shape[0]
        if attackers is None:
            attackers = np.full(chunk, -1, dtype=np.int64)
        pin(*labels)
        for _ in range(self.cap):
            new = self.blank(chunk)
            if table.num_edges:
                self._kernels.jacobi_sweep(
                    table.u, table.v, table.route_cls,
                    table.seg_starts, table.seg_sizes, table.seg_u,
                    table.tie_key, table.lp_field, table.is_provider_edge,
                    self._rank_codes, self._rank_widths,
                    attackers, self._gullible_edge, self._validators,
                    leak, self._drop,
                    *labels, self._applies_edge, self._node_secure,
                    *new, tied,
                )
            pin(*new)
            if all(np.array_equal(a, b) for a, b in zip(new, labels)):
                return labels
            labels = new
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
    ``SBGP_KERNEL_BACKEND`` env var, and an unusable compiled backend
    degrades to numpy.
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
        rows = np.arange(len(batch))

        def pin(cls, length, sec, att):
            # the destination always keeps its own (empty, trivially
            # best) route
            cls[rows, batch] = _SELF
            length[rows, batch] = 0
            sec[rows, batch] = node_secure[batch]

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
