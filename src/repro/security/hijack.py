"""Attack simulation under partial S*BGP deployment.

The paper quantifies security only indirectly (fraction of secure
paths, Fig. 9) and flags attack-resilience quantification as future
work (§6.4), while §2.2.1 claims the end state is strong: today "an
arbitrary misbehaving AS can impact about half of the ASes in the
Internet (around 15K) on average [15]", whereas with full-ISP + simplex
deployment "the only open attack vector is for ISPs to announce false
paths to their own stub customers".

This module makes those claims measurable, for every registered
:class:`~repro.security.scenarios.AttackScenario` and every registered
routing policy.  The attacker's announcement and the victim's
legitimate one propagate together under the policy's ranking, and
every AS picks a side:

- ASes applying SecP prefer a fully-secure route to the victim over
  the attacker's unsigned one (the hijack is *never* fully secure: the
  attacker cannot produce the victim's origination signature — except
  in a route leak, where the signatures are genuine);
- everyone else decides on LP, path length and the hash tie-break —
  exactly how hijacks win today;
- optionally, the attacker's own *simplex stub customers* believe the
  attacker's announcements are secure (they cannot validate; §2.2.1's
  residual vector).

Selection at each AS couples the two origins, so the single-origin
analytic passes do not apply; routing is a synchronous (Jacobi)
fixpoint, exactly the iteration of :mod:`repro.routing.fixpoint` with
two pinned labels.  Two implementations exist:

- :func:`simulate_hijack` — a per-pair scalar reference in plain
  Python, the differential ground truth;
- :func:`simulate_attacks_batched` — the same iteration vectorised
  over (victim, attacker) pairs: the
  :class:`~repro.routing.fixpoint.JacobiDriver` that builds routing
  structures, with an adversary per row.  The parity suite pins it
  bit-identical to the scalar reference.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.routing.compiled import CompiledGraph
from repro.routing.fixpoint import (
    PIN_ALL,
    PIN_ATT,
    PIN_ROUTE,
    JacobiDriver,
    pin_table,
)
from repro.routing.policy import (
    POSITION_BITS,
    Criterion,
    DEFAULT_POLICY,
    RouteClass,
    get_policy,
    tie_hash,
)
from repro.routing.reference import ConvergenceError
from repro.security.scenarios import DEFAULT_SCENARIO, get_scenario
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import get_tracer
from repro.topology.graph import ASGraph

_SELF = int(RouteClass.SELF)
_CUSTOMER = int(RouteClass.CUSTOMER)
_PEER = int(RouteClass.PEER)
_PROVIDER = int(RouteClass.PROVIDER)
_UNREACHABLE = int(RouteClass.UNREACHABLE)

_HASH_MASK = ~((1 << POSITION_BITS) - 1)

#: (victim, attacker) pairs per Jacobi batch — bounds [chunk, edges]
_PAIR_CHUNK = 64


@dataclasses.dataclass(frozen=True)
class HijackOutcome:
    """Who ended up routing where for one (victim, attacker) pair."""

    victim: int
    attacker: int
    routes_to_attacker: np.ndarray  # bool[n], False for the principals
    reachable: np.ndarray           # bool[n], has any route to the prefix
    scenario: str = DEFAULT_SCENARIO
    policy: str = DEFAULT_POLICY

    @property
    def num_fooled(self) -> int:
        """ASes whose traffic the attacker captured."""
        return int(self.routes_to_attacker.sum())

    def fraction_fooled(self, total: int | None = None) -> float:
        """Fooled ASes over the population (default: all other ASes)."""
        n = len(self.routes_to_attacker)
        denominator = total if total is not None else max(1, n - 2)
        return self.num_fooled / denominator


def _attack_flags(
    graph: ASGraph,
    scenario,
    policy,
    node_secure: np.ndarray | None,
    breaks_ties: np.ndarray | None,
    attacker_convinces_own_stubs: bool | None,
    drop_unvalidated: bool,
) -> tuple:
    """Shared state derivation for the scalar and batched simulators.

    Returns ``(node_secure, applies, validators, is_stub, gullible,
    drop)`` — ``applies`` already excludes the policy's sticky nodes
    (a sticky node never exercises alternatives, so SecP has nothing
    to pick from; the hash-minimum the kernels then take *is* its
    fixed primary).
    """
    from repro.topology.relationships import ASRole

    n = graph.n
    if node_secure is None:
        node_secure = np.zeros(n, dtype=bool)
    if breaks_ties is None:
        breaks_ties = np.zeros(n, dtype=bool)
    node_secure = np.asarray(node_secure, dtype=bool)
    applies = node_secure & np.asarray(breaks_ties, dtype=bool)
    sticky = policy.sticky_mask(n)
    if sticky is not None:
        applies = applies & ~sticky
    is_stub = graph.roles == int(ASRole.STUB)
    validators = node_secure & ~is_stub
    gullible = (
        scenario.gullible_stubs
        if attacker_convinces_own_stubs is None
        else bool(attacker_convinces_own_stubs)
    )
    drop = bool(drop_unvalidated or scenario.validators_drop)
    return node_secure, applies, validators, is_stub, gullible, drop


def simulate_hijack(
    graph: ASGraph,
    victim: int,
    attacker: int,
    node_secure: np.ndarray | None = None,
    breaks_ties: np.ndarray | None = None,
    attacker_convinces_own_stubs: bool | None = None,
    drop_unvalidated: bool = False,
    max_sweeps: int | None = None,
    policy: str = DEFAULT_POLICY,
    scenario: str = DEFAULT_SCENARIO,
) -> HijackOutcome:
    """Propagate victim + attacker originations and report the split.

    ``victim`` / ``attacker`` are dense node indices.  ``node_secure``
    and ``breaks_ties`` are the usual deployment-state flags; with both
    None the world is today's insecure BGP.  ``policy`` and
    ``scenario`` resolve through their registries (any name, alias or
    object); the defaults reproduce the paper's origin hijack under
    the Appendix-A ranking.

    The attacker's announcement is treated as insecure by every
    validating AS (it cannot be signed end-to-end), except — when
    ``attacker_convinces_own_stubs`` (default: the scenario's setting)
    — at the attacker's simplex stub customers, who cannot validate
    and accept their provider's word (§2.2.1).  A route leak is the
    one exception where the signatures are genuine.

    By default security acts only through the SecP criterion, as in
    the deployment model: a strictly better false route still wins.
    ``drop_unvalidated=True`` models the paper's §2.2.1 end-state
    argument instead: fully-validating ASes (secure non-stubs)
    *reject* routes that are not fully secure.  That is only
    deployable once everything legitimate is signed — under partial
    deployment it disconnects honest ASes, which is exactly the
    BGP/S*BGP-coexistence hazard §1.4(5) warns about (the
    ``reachable`` mask exposes it).

    This is the scalar differential reference: the batched
    :func:`simulate_attacks_batched` must match it bit for bit.
    Raises :class:`~repro.routing.reference.ConvergenceError` when the
    iteration has not stabilised after ``max_sweeps`` (default
    ``n + 8``) — a real possibility under ``security_1st``.
    """
    scen = get_scenario(scenario)
    pol = get_policy(policy)
    n = graph.n
    if victim == attacker:
        raise ValueError("victim and attacker must differ")
    node_secure, applies, validators, is_stub, gullible, drop = _attack_flags(
        graph, scen, pol, node_secure, breaks_ties,
        attacker_convinces_own_stubs, drop_unvalidated,
    )
    leak = scen.attacker_leaks

    # Per-node candidate table, sorted by neighbor index — the same
    # order as the fixpoint edge table's u-segments (relations are
    # disjoint, so sorting by (u, v) orders purely by v within a
    # segment), giving identical position-disambiguated tie keys.
    candidates: list[list[tuple[int, int, int, bool]]] = []
    for i in range(n):
        entries = sorted(
            [(int(c), _CUSTOMER) for c in graph.customers[i]]
            + [(int(p), _PEER) for p in graph.peers[i]]
            + [(int(p), _PROVIDER) for p in graph.providers[i]]
        )
        row = []
        for pos, (nbr, kind) in enumerate(entries):
            tie = (tie_hash(i, nbr) & _HASH_MASK) | pos
            gull_edge = (
                gullible and kind == _PROVIDER
                and bool(is_stub[i]) and bool(node_secure[i])
            )
            row.append((nbr, kind, tie, gull_edge))
        candidates.append(row)

    cap = max_sweeps if max_sweeps is not None else n + 8

    def iterate(cls, length, sec, att, pin, leaking):
        for _ in range(cap):
            new_cls = np.full(n, _UNREACHABLE, dtype=np.int64)
            new_len = np.full(n, -1, dtype=np.int64)
            new_sec = np.zeros(n, dtype=bool)
            new_att = np.zeros(n, dtype=bool)
            for i in range(n):
                best: tuple | None = None
                chosen: tuple | None = None
                drop_i = drop and validators[i]
                for nbr, kind, tie, gull_edge in candidates[i]:
                    cv = cls[nbr]
                    if cv == _UNREACHABLE:
                        continue
                    # GR2 (with the leak escape hatch): a route travels
                    # up to a provider / across a peering only if it is
                    # a customer route or the origin's own prefix.
                    if not (kind == _PROVIDER or cv == _CUSTOMER
                            or cv == _SELF
                            or (leaking and nbr == attacker)):
                        continue
                    if drop_i and not sec[nbr]:
                        continue
                    seen = bool(sec[nbr]) or (gull_edge and nbr == attacker
                                              and bool(att[nbr]))
                    parts = []
                    for crit in pol.ranking:
                        if crit is Criterion.LP:
                            parts.append(2 - kind)
                        elif crit is Criterion.SP:
                            parts.append(int(length[nbr]) + 1)
                        else:
                            parts.append(0 if (applies[i] and seen) else 1)
                    key = (tuple(parts), tie)
                    if best is None or key < best:
                        best = key
                        chosen = (nbr, kind, seen)
                if chosen is not None:
                    nbr, kind, seen = chosen
                    new_cls[i] = kind
                    new_len[i] = length[nbr] + 1
                    new_sec[i] = bool(node_secure[i]) and seen
                    new_att[i] = att[nbr]
            pin(new_cls, new_len, new_sec, new_att)
            if (
                np.array_equal(new_cls, cls)
                and np.array_equal(new_len, length)
                and np.array_equal(new_sec, sec)
                and np.array_equal(new_att, att)
            ):
                return cls, length, sec, att
            cls, length, sec, att = new_cls, new_len, new_sec, new_att
        raise ConvergenceError(
            f"attack scenario {scen.name!r} under policy {pol.name!r} did "
            f"not converge within {cap} sweeps (victim {victim}, "
            f"attacker {attacker})"
        )

    def pin_victim(c, ln, s, a):
        if scen.victim_originates:
            c[victim] = _SELF
            ln[victim] = 0
            s[victim] = node_secure[victim]
            a[victim] = False

    cls = np.full(n, _UNREACHABLE, dtype=np.int64)
    length = np.full(n, -1, dtype=np.int64)
    sec = np.zeros(n, dtype=bool)
    att = np.zeros(n, dtype=bool)

    if leak and not scen.attacker_originates:
        # A pure route leak re-announces the route the attacker holds
        # in the *honest* equilibrium.  Letting the leaker's selection
        # co-evolve with its own leak feeds its providers' adopted
        # routes back into its choice (the model has no AS-path loop
        # detection), which genuinely oscillates — so phase 1 converges
        # the single-origin honest world, then phase 2 pins the
        # attacker's label (signatures and all: path validation cannot
        # reject a leak) and propagates the leak from that state.
        pin_victim(cls, length, sec, att)
        cls, length, sec, att = iterate(
            cls, length, sec, att, pin_victim, leaking=False
        )
        a_cls, a_len, a_sec = cls[attacker], length[attacker], sec[attacker]

        def pin(c, ln, s, a):
            pin_victim(c, ln, s, a)
            c[attacker] = a_cls
            ln[attacker] = a_len
            s[attacker] = a_sec
            a[attacker] = True

        att = att.copy()
        att[attacker] = True
        cls, length, sec, att = iterate(cls, length, sec, att, pin, leaking=True)
    else:
        def pin(c, ln, s, a):
            pin_victim(c, ln, s, a)
            if scen.attacker_originates:
                c[attacker] = _SELF
                ln[attacker] = scen.attacker_path_offset
                s[attacker] = False
            a[attacker] = True

        pin(cls, length, sec, att)
        cls, length, sec, att = iterate(cls, length, sec, att, pin, leaking=leak)

    routes_to_attacker = att.copy()
    routes_to_attacker[victim] = False
    routes_to_attacker[attacker] = False
    return HijackOutcome(
        victim=victim,
        attacker=attacker,
        routes_to_attacker=routes_to_attacker,
        reachable=cls != _UNREACHABLE,
        scenario=scen.name,
        policy=pol.name,
    )


def simulate_attacks_batched(
    graph: ASGraph,
    pairs: Sequence[tuple[int, int]],
    node_secure: np.ndarray | None = None,
    breaks_ties: np.ndarray | None = None,
    attacker_convinces_own_stubs: bool | None = None,
    drop_unvalidated: bool = False,
    max_sweeps: int | None = None,
    policy: str = DEFAULT_POLICY,
    scenario: str = DEFAULT_SCENARIO,
    compiled: CompiledGraph | None = None,
    backend: str | None = None,
) -> list[HijackOutcome]:
    """Batched :func:`simulate_hijack` over (victim, attacker) pairs.

    The multi-origin Jacobi iteration in chunks of pairs, on the
    :class:`~repro.routing.fixpoint.JacobiDriver` (``backend`` as in
    :func:`repro.routing.fixpoint.fixpoint_pools`).  One
    deployment state, one scenario, one policy, many pairs — the inner
    loop of every attack-matrix cell.  Bit-identical to the scalar
    reference, outcome for outcome.
    """
    scen = get_scenario(scenario)
    pol = get_policy(policy)
    pair_arr = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
    if len(pair_arr) and (
        pair_arr.min() < 0 or pair_arr.max() >= graph.n
    ):
        raise ValueError("pair indices out of range")
    if (pair_arr[:, 0] == pair_arr[:, 1]).any():
        raise ValueError("victim and attacker must differ")

    registry = get_registry()
    if registry.enabled:
        registry.counter("security.attack.batches").inc()
        registry.counter("security.attack.pairs").inc(len(pair_arr))
    node_secure, applies, validators, is_stub, gullible, drop = _attack_flags(
        graph, scen, pol, node_secure, breaks_ties,
        attacker_convinces_own_stubs, drop_unvalidated,
    )
    driver = JacobiDriver(
        compiled or CompiledGraph.from_graph(graph), pol, node_secure, applies,
        gullible=is_stub & node_secure if gullible else None,
        validators=validators, drop=drop,
        backend=backend, max_sweeps=max_sweeps,
    )

    outcomes: list[HijackOutcome] = []
    tracer = get_tracer()
    leak_replay = scen.attacker_leaks and not scen.attacker_originates
    for start in range(0, len(pair_arr), _PAIR_CHUNK):
        batch = pair_arr[start:start + _PAIR_CHUNK]
        victims = batch[:, 0]
        attackers = np.ascontiguousarray(batch[:, 1])
        chunk = len(batch)
        what = (
            f"attack scenario {scen.name!r} under policy {pol.name!r} "
            f"(pairs {batch[:4].tolist()}...)"
        )
        victim = (
            [(victims, PIN_ALL, _SELF, 0, node_secure[victims], False)]
            if scen.victim_originates else []
        )
        labels = driver.blank(chunk)

        with tracer.span("attack.batch", pairs=chunk):
            if leak_replay:
                # phase 1: the honest single-origin world (no row has
                # an adversary), to freeze the leaker's route (see
                # simulate_hijack); phase 2 pins that label and
                # propagates the leak from it.
                driver.converge(labels, pin_table(chunk, *victim), what)
                rows = np.arange(chunk)
                leaker = (
                    attackers, PIN_ALL,
                    *(x[rows, attackers] for x in labels[:3]), True,
                )
                driver.converge(
                    labels, pin_table(chunk, *victim, leaker), what,
                    attackers=attackers, leak=True,
                )
            else:
                fields = (PIN_ROUTE if scen.attacker_originates else 0) | PIN_ATT
                attacker = (
                    attackers, fields, _SELF, scen.attacker_path_offset, False, True,
                )
                driver.converge(
                    labels, pin_table(chunk, *victim, attacker), what,
                    attackers=attackers, leak=scen.attacker_leaks,
                )
        cls, _, _, att = labels

        for k in range(chunk):
            routes_to_attacker = att[k].copy()
            routes_to_attacker[victims[k]] = False
            routes_to_attacker[attackers[k]] = False
            outcomes.append(
                HijackOutcome(
                    victim=int(victims[k]),
                    attacker=int(attackers[k]),
                    routes_to_attacker=routes_to_attacker,
                    reachable=cls[k] != _UNREACHABLE,
                    scenario=scen.name,
                    policy=pol.name,
                )
            )
    return outcomes
