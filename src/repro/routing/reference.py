"""The scalar route propagation every route selector answers to.

:func:`propagate` is plain BGP in plain Python, one node at a time: a
synchronous (Jacobi) iteration of per-node route labels — class,
length, security, whether the route descends from an attacker, next
hop — over the whole graph.  Each sweep, every node scans the offers
its neighbours' labels make it (GR2 export), in tie-break order
(:func:`~repro.routing.tree.tie_order`), and takes the first with the
strictly least :meth:`~repro.routing.policy.RoutingPolicy.rank_key`.
The origins' labels are pinned by a callback after every sweep.  The
per-edge hooks of the attack model (a leaker that escapes GR2, stubs
that believe their attacking provider, validators that drop what they
cannot validate) and a per-hop "protected" predicate for per-link
security (§8.3) ride along.

It knows nothing of tiebreak sets, Observation C.1 or the edge table,
so the tree kernels, the Jacobi fixpoint, the attack sweep and the
per-link model are all held to it.  It is quadratic-ish and only
suitable for small graphs.  Under LP-first and SP-first rankings the
stable state is unique (Lemma G.1); ``security_1st`` may not converge
(Lychev et al.), which raises :class:`ConvergenceError`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.routing.compiled import CompiledGraph
from repro.routing.policy import DEFAULT_POLICY, RouteClass, RoutingPolicy, get_policy
from repro.routing.tree import tie_ordered
from repro.topology.graph import ASGraph

_SELF = int(RouteClass.SELF)
_CUSTOMER = int(RouteClass.CUSTOMER)
_PEER = int(RouteClass.PEER)
_PROVIDER = int(RouteClass.PROVIDER)
_UNREACHABLE = int(RouteClass.UNREACHABLE)


# Lives here rather than an errors.py because non-convergence is a
# *result* of BGP dynamics under security-1st rankings (Lychev et al.),
# raised and documented by the route propagations.
class ConvergenceError(RuntimeError):  # repro-lint: disable=RPR008
    """A route propagation failed to reach a fixpoint."""


def _blank(n: int) -> tuple[np.ndarray, ...]:
    return (
        np.full(n, _UNREACHABLE, dtype=np.int64), np.full(n, -1, dtype=np.int64),
        np.zeros(n, dtype=bool), np.zeros(n, dtype=bool),
        np.full(n, -1, dtype=np.int64),
    )


def propagate(
    graph: ASGraph,
    pin: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], None],
    node_secure: np.ndarray | None = None,
    applies: np.ndarray | None = None,
    policy: "str | RoutingPolicy" = DEFAULT_POLICY,
    *,
    start: Sequence[np.ndarray] | None = None,
    attacker: int = -1,
    leak: bool = False,
    gullible: np.ndarray | None = None,
    drop: np.ndarray | None = None,
    protected: Callable[[int, int], bool] | None = None,
    max_sweeps: int | None = None,
    what: str = "route propagation",
) -> tuple[np.ndarray, ...]:
    """Sweep every node's route labels until a sweep changes none, and
    return them: ``(cls, length, sec, att, hop)``, each ``[n]``.  ``att``
    marks routes that descend from ``attacker``; ``hop`` is the next hop,
    -1 where a node has no route (a pin does not set it).

    ``pin(cls, length, sec, att)`` writes the origins' labels into those
    ``[n]`` arrays: it is applied to the starting labels (``start``'s
    first four, else all-unreachable) and after every sweep.
    ``node_secure`` marks the secure ASes and ``applies`` those that
    exercise SecP (both default to nobody); ``policy`` is the ranking.
    A route's ``sec`` means every AS on it is secure and, with
    ``protected``, that ``protected(u, v)`` holds for each hop ``u <- v``.

    The attack hooks: offers from ``attacker`` escape GR2 when ``leak``;
    a ``gullible`` node believes its provider ``attacker``'s route is
    secure; a ``drop`` node takes no offer that is not secure.

    Raises :class:`ConvergenceError` naming ``what`` if labels still
    move after ``max_sweeps`` sweeps (default ``n + 8``).
    """
    n = graph.n
    rank_key = get_policy(policy).rank_key
    none = np.zeros(n, dtype=bool)
    secure_at, applies_at, gullible_at, drops_at = (
        (none if mask is None else mask).tolist()
        for mask in (node_secure, applies, gullible, drop)
    )
    # every ranking has LP, so offers of different relations never tie:
    # each relation's segment in tie-break order is the node's order
    cg = CompiledGraph.from_graph(graph)
    offers: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for kind, ptr, idx in zip(
        (_CUSTOMER, _PEER, _PROVIDER),
        (cg.cust_indptr, cg.peer_indptr, cg.prov_indptr),
        tie_ordered(cg),
    ):
        for u, v in zip(np.repeat(np.arange(n), np.diff(ptr)).tolist(), idx.tolist()):
            offers[u].append((v, kind))

    labels = tuple(x.copy() for x in (start or _blank(n))[:4])
    pin(*labels)
    cap = n + 8 if max_sweeps is None else max_sweeps
    for _ in range(cap):
        cls, length, sec, att = (x.tolist() for x in labels)
        new = _blank(n)
        for u in range(n):
            best: tuple[int, ...] | None = None
            for v, kind in offers[u]:
                if cls[v] == _UNREACHABLE:
                    continue
                # GR2: a route travels up to a provider or across a
                # peering only if it is a customer route or v's own
                if not (kind == _PROVIDER or cls[v] in (_CUSTOMER, _SELF)
                        or (leak and v == attacker)):
                    continue
                if drops_at[u] and not sec[v]:
                    continue
                seen = (sec[v] and (protected is None or protected(u, v))) or (
                    gullible_at[u] and kind == _PROVIDER and v == attacker and att[v]
                )
                key = rank_key(kind, length[v] + 1, seen, applies_at[u])
                if best is None or key < best:
                    best, chosen = key, (v, kind, seen)
            if best is not None:
                v, kind, seen = chosen
                new[0][u], new[1][u], new[4][u] = kind, length[v] + 1, v
                new[2][u] = secure_at[u] and seen
                new[3][u] = att[v]
        pin(*new[:4])
        if all(np.array_equal(a, b) for a, b in zip(new[:4], labels)):
            return new
        labels = new[:4]
    raise ConvergenceError(f"{what} did not converge within {cap} sweeps")
