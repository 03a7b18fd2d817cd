"""The push frontier's branches, one hand-built GR1 fixture each.

After a sweep, the compiled tier pushes every node ``x`` it changed to
the nodes that read it, and queues a reader ``u`` only if ``x``'s new
selection word undercuts the least word pushed to ``u`` or ``x`` is the
source of ``u``'s best edge (``cext_impl.sbgp_jacobi_converge``).  What a
queued ``u`` does next depends on how that best offer moved, and each
fixture below drives one case through a real convergence — its shape
checked on the oracle's trajectory (``tests/references.py``) — and
holds every frontier tier to numpy, the full-sweep ground truth, on
labels, status, sweeps and ``tied``:

- (a) ``u``'s best source improves: ``u`` takes the pushed word with no
  rescan and keeps it as its least word, which the tie mask is written
  from;
- (b) ``u``'s best source gets worse or barred: an offer that was not
  the least may be now, so ``u`` rescans its segment;
- (c) ``u``'s best source changes a label its word does not carry
  (``att``): the word stays, yet ``u`` copies that label, so it must be
  re-decided.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.routing import backends as kb
from repro.routing.compiled import CompiledGraph
from repro.routing.errors import BackendUnavailable
from repro.routing.fixpoint import PIN_ALL, PIN_ROUTE, JacobiDriver, pin_table
from repro.routing.policy import RouteClass, get_policy
from repro.routing.reference import ConvergenceError
from repro.topology.graph import ASGraph

from tests.references import jacobi_labels_after

_SELF = int(RouteClass.SELF)
_CUSTOMER = int(RouteClass.CUSTOMER)
_PEER = int(RouteClass.PEER)
_PROVIDER = int(RouteClass.PROVIDER)


def _loads(name: str) -> bool:
    try:
        kb.load_backend(name)
    except BackendUnavailable:
        return False
    return True


#: the tiers with a frontier, held to numpy
FRONTIER_TIERS = ["cext"] if _loads("cext") else []


def _graph(names, providers, peerings=()):
    """``(graph, index by name)``; ``providers`` are ``(provider,
    customer)`` pairs."""
    graph = ASGraph()
    asn = {name: 100 + i for i, name in enumerate(names)}
    for name in names:
        graph.add_as(asn[name])
    for provider, customer in providers:
        graph.add_customer_provider(provider=asn[provider], customer=asn[customer])
    for a, b in peerings:
        graph.add_peering(asn[a], asn[b])
    graph.validate()
    return graph, {name: graph.index(asn[name]) for name in names}


class _Case:
    """One chunk to converge: a graph, its policy and deployment state,
    the pins, the starting labels (blank by default), adversaries and
    leak flag."""

    def __init__(self, graph, policy, secure, pins, labels=None, attackers=None,
                 leak=False):
        self.cg = CompiledGraph.from_graph(graph)
        self.policy = get_policy(policy)
        self.secure = secure
        self.pins = pins
        self.labels = self.driver("numpy").blank(len(pins)) if labels is None else labels
        self.attackers, self.leak = attackers, leak

    def driver(self, tier: str) -> JacobiDriver:
        # every secure node ranks security
        return JacobiDriver(self.cg, self.policy, self.secure, self.secure, backend=tier)

    def outcome(self, tier: str):
        """``(labels, tied, sweeps)`` of the chunk on ``tier``, or its
        error message."""
        driver = self.driver(tier)
        labels = tuple(x.copy() for x in self.labels)
        tied = np.zeros((len(self.pins), driver.table.num_edges), dtype=bool)
        try:
            sweeps = driver.converge(
                labels, self.pins.copy(), "fixture", attackers=self.attackers,
                leak=self.leak, tied=tied,
            )
        except ConvergenceError as exc:
            return str(exc)
        return (*labels, tied, sweeps)

    def after(self, sweeps: int):
        """The oracle's labels after ``sweeps`` sweeps."""
        return jacobi_labels_after(
            self.driver("numpy"), self.policy.ranking, self.labels, self.pins,
            sweeps, attackers=self.attackers, leak=self.leak,
        )

    def final(self):
        """numpy's converged labels."""
        return self.outcome("numpy")[:4]

    def assert_tiers_agree(self) -> None:
        want = self.outcome("numpy")
        assert not isinstance(want, str), want
        for tier in FRONTIER_TIERS:
            got = self.outcome(tier)
            assert not isinstance(got, str), (tier, got)
            for name, a, b in zip(("cls", "length", "sec", "att", "tied", "sweeps"), want, got):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (tier, name)


def _label(labels, node):
    """Row 0's ``(cls, length, sec, att)`` at ``node``."""
    return tuple(x[0, node].item() for x in labels)


def _toward(graph, at, policy, secure_names):
    """A blank row toward ``d``, pinned as a structure build pins it."""
    secure = np.zeros(graph.n, dtype=bool)
    secure[[at[name] for name in secure_names]] = True
    d = at["d"]
    return _Case(graph, policy, secure, pin_table(1, (d, PIN_ROUTE, _SELF, 0, secure[d], 0)))


@pytest.mark.skipif(not FRONTIER_TIERS, reason="no frontier tier loads")
class TestPushBranches:
    def test_a_best_source_improves_without_a_rescan(self):
        """``security_2nd`` (LP > SecP > SP).  ``x`` takes its insecure
        customer route over ``c1`` (2 hops) first and its secure one over
        ``c2`` (3 hops) a sweep later.  Its only customer ``u`` ranks
        security, so the longer secure offer is a *better* word over
        the same edge: ``u`` takes it as pushed, and the tie mask must
        come from that word, not the one it replaced."""
        graph, at = _graph(
            ["d", "c1", "c2", "c3", "x", "u"],
            [("c1", "d"), ("x", "c1"), ("c3", "d"), ("c2", "c3"), ("x", "c2"), ("x", "u")],
        )
        case = _toward(graph, at, "security_2nd", ["d", "c2", "c3", "x", "u"])
        x, u = at["x"], at["u"]
        # x moves at sweep 3, u sees it at sweep 4
        assert _label(case.after(2), x) == (_CUSTOMER, 2, False, False)
        assert _label(case.after(3), x) == (_CUSTOMER, 3, True, False)
        assert _label(case.after(3), u) == (_PROVIDER, 3, False, False)
        assert _label(case.final(), u) == (_PROVIDER, 4, True, False)
        case.assert_tiers_agree()

    def test_b_best_source_turns_barred_and_forces_a_rescan(self):
        """``security_1st``.  ``v`` learns an insecure customer route over
        ``c`` (2 hops) and, a sweep later, a secure provider route over
        ``P`` (3 hops), which it ranks first.  Its peer ``u`` (insecure)
        took ``v``'s customer route in between; GR2 bars ``v``'s provider
        route across the peering, so ``u``'s least word was that barred
        offer and only a rescan finds its provider route over ``P2``."""
        graph, at = _graph(
            ["d", "c", "P2", "P", "v", "u"],
            [("c", "d"), ("v", "c"), ("P2", "d"), ("P", "P2"), ("P", "v"), ("P2", "u")],
            peerings=[("u", "v")],
        )
        case = _toward(graph, at, "security_1st", ["d", "P2", "P", "v"])
        v, u = at["v"], at["u"]
        assert _label(case.after(2), v) == (_CUSTOMER, 2, False, False)
        assert _label(case.after(3), v) == (_PROVIDER, 3, True, False)
        assert _label(case.after(3), u) == (_PEER, 3, False, False)
        assert _label(case.final(), u) == (_PROVIDER, 2, False, False)
        case.assert_tiers_agree()

    def test_c_best_source_moves_under_an_unchanged_word(self):
        """A route leak's second phase, which starts from the honest
        world's labels.  On the chain ``d <- L <- x <- u`` (each the
        next one's provider, nobody secure) the leaker ``L`` is pinned to
        its own route, now marked ``att``; sweep 1 gives ``x`` the mark
        and nothing else, so ``x`` offers ``u`` the same word as before,
        but ``u`` copies ``att`` from it."""
        graph, at = _graph(
            ["d", "L", "x", "u"], [("d", "L"), ("L", "x"), ("x", "u")],
        )
        honest = _toward(graph, at, "security_3rd", [])
        d, leaker, x, u = at["d"], at["L"], at["x"], at["u"]
        labels = honest.final()
        route = _label(labels, leaker)
        pins = pin_table(
            1, (d, PIN_ALL, _SELF, 0, False, False),
            (leaker, PIN_ALL, route[0], route[1], route[2], True),
        )
        case = _Case(
            graph, "security_3rd", honest.secure, pins, labels,
            attackers=np.array([leaker], dtype=np.int64), leak=True,
        )
        before = _label(labels, x)
        assert _label(case.after(1), x) == (*before[:3], True)
        assert _label(case.after(1), u) == _label(labels, u)
        assert _label(case.final(), u) == (*_label(labels, u)[:3], True)
        case.assert_tiers_agree()
