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
two pinned labels.  :func:`simulate_hijack` runs it for one (victim,
attacker) pair through :func:`repro.routing.reference.propagate`, the
scalar propagation every route selector answers to;
:func:`simulate_attacks_batched` runs it over many pairs at once on the
:class:`~repro.routing.fixpoint.JacobiDriver` that builds routing
structures, with an adversary per row.  The parity suite pins the two
bit-identical.
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
from repro.routing.policy import DEFAULT_POLICY, RouteClass, get_policy
from repro.routing.reference import propagate
from repro.security.scenarios import DEFAULT_SCENARIO, get_scenario
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import get_tracer
from repro.topology.graph import ASGraph

_SELF = int(RouteClass.SELF)
_UNREACHABLE = int(RouteClass.UNREACHABLE)

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


@dataclasses.dataclass(frozen=True, eq=False)
class HijackOutcomes(Sequence[HijackOutcome]):
    """The outcomes of many (victim, attacker) pairs, as arrays over the
    pairs: what :func:`simulate_attacks_batched` returns.

    Item ``k`` is pair ``k``'s :class:`HijackOutcome`, whose masks are
    views of row ``k``.
    """

    victims: np.ndarray             # int64[P]
    attackers: np.ndarray           # int64[P]
    routes_to_attacker: np.ndarray  # bool[P, n], False for the principals
    reachable: np.ndarray           # bool[P, n]
    num_fooled: np.ndarray          # int64[P], ASes the attacker captured
    scenario: str = DEFAULT_SCENARIO
    policy: str = DEFAULT_POLICY

    def __len__(self) -> int:
        return len(self.victims)

    def __getitem__(self, k: int) -> HijackOutcome:  # type: ignore[override]
        return HijackOutcome(
            victim=int(self.victims[k]),
            attacker=int(self.attackers[k]),
            routes_to_attacker=self.routes_to_attacker[k],
            reachable=self.reachable[k],
            scenario=self.scenario,
            policy=self.policy,
        )


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
    drop)``, ``applies`` as
    :meth:`~repro.routing.policy.RoutingPolicy.secp_applies` gives it.
    """
    from repro.topology.relationships import ASRole

    n = graph.n
    if node_secure is None:
        node_secure = np.zeros(n, dtype=bool)
    if breaks_ties is None:
        breaks_ties = np.zeros(n, dtype=bool)
    node_secure = np.asarray(node_secure, dtype=bool)
    applies = policy.secp_applies(node_secure, np.asarray(breaks_ties, dtype=bool))
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
    if not (0 <= victim < n and 0 <= attacker < n):
        raise ValueError("pair indices out of range")
    if victim == attacker:
        raise ValueError("victim and attacker must differ")
    node_secure, applies, validators, is_stub, gullible, drop = _attack_flags(
        graph, scen, pol, node_secure, breaks_ties,
        attacker_convinces_own_stubs, drop_unvalidated,
    )
    leak = scen.attacker_leaks
    what = (
        f"attack scenario {scen.name!r} under policy {pol.name!r} (victim "
        f"{victim}, attacker {attacker})"
    )

    def converge(pin, **phase):
        return propagate(
            graph, pin, node_secure, applies, pol, attacker=attacker,
            gullible=is_stub & node_secure if gullible else None,
            drop=validators if drop else None, max_sweeps=max_sweeps,
            what=what, **phase,
        )

    def pin_victim(c, ln, s, a):
        if scen.victim_originates:
            c[victim], ln[victim], s[victim], a[victim] = _SELF, 0, node_secure[victim], False

    if leak and not scen.attacker_originates:
        # A pure route leak re-announces the route the attacker holds
        # in the *honest* equilibrium.  Letting the leaker's selection
        # co-evolve with its own leak feeds its providers' adopted
        # routes back into its choice (the model has no AS-path loop
        # detection), which genuinely oscillates — so phase 1 converges
        # the single-origin honest world, then phase 2 pins the
        # attacker's label (signatures and all: path validation cannot
        # reject a leak) and propagates the leak from that state.
        honest = converge(pin_victim)
        a_cls, a_len, a_sec = (x[attacker] for x in honest[:3])

        def pin(c, ln, s, a):
            pin_victim(c, ln, s, a)
            c[attacker], ln[attacker], s[attacker], a[attacker] = a_cls, a_len, a_sec, True

        cls, _, _, att, _ = converge(pin, start=honest, leak=True)
    else:
        def pin(c, ln, s, a):
            pin_victim(c, ln, s, a)
            if scen.attacker_originates:
                c[attacker], ln[attacker], s[attacker] = (
                    _SELF, scen.attacker_path_offset, False
                )
            a[attacker] = True

        cls, _, _, att, _ = converge(pin, leak=leak)

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
) -> HijackOutcomes:
    """Batched :func:`simulate_hijack` over (victim, attacker) pairs.

    The multi-origin Jacobi iteration in chunks of pairs, on the
    :class:`~repro.routing.fixpoint.JacobiDriver` (``backend`` as in
    :func:`repro.routing.fixpoint.fixpoint_pools`).  One
    deployment state, one scenario, one policy, many pairs — the inner
    loop of every attack-matrix cell.  Bit-identical to the scalar
    reference, outcome for outcome: item ``k`` of the returned
    :class:`HijackOutcomes` is what ``simulate_hijack`` gives pair ``k``.
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

    tracer = get_tracer()
    leak_replay = scen.attacker_leaks and not scen.attacker_originates
    # each chunk converges in place into its rows of the outcome: ``att``
    # is ``routes_to_attacker`` before the principals are cleared
    routes_to_attacker = np.zeros((len(pair_arr), graph.n), dtype=bool)
    reachable = np.empty((len(pair_arr), graph.n), dtype=bool)
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
        cls, length, sec, _ = driver.blank(chunk)
        labels = (cls, length, sec, routes_to_attacker[start:start + chunk])

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
        np.not_equal(cls, _UNREACHABLE, out=reachable[start:start + chunk])

    routes_to_attacker[np.arange(len(pair_arr))[:, None], pair_arr] = False
    return HijackOutcomes(
        victims=pair_arr[:, 0],
        attackers=pair_arr[:, 1],
        routes_to_attacker=routes_to_attacker,
        reachable=reachable,
        num_fooled=np.count_nonzero(routes_to_attacker, axis=1),
        scenario=scen.name,
        policy=pol.name,
    )
