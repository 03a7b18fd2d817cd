"""Differential pin: batched multi-origin kernel vs the scalar reference.

Every (scenario, policy) combination must produce bit-identical
outcomes from :func:`simulate_attacks_batched` and the per-pair scalar
:func:`simulate_hijack`, on a seeded synthetic topology and on the
adversarial gadget graphs (the CHICKEN oscillator of App. F and the
Chiesa-style SET-COVER reduction of App. E).  Non-convergence must be
symmetric too: if any scalar pair oscillates, the batch raises.

A hypothesis pass then sweeps random GR1 graphs × random deployment
masks for the same agreement.

``TestMixedChunk`` pins the fact the whole layer rests on: there is one
Jacobi kernel, a row without an adversary is its ``attacker = -1`` row,
and rows never interact — so honest and attacked rows may share a chunk,
a row is done as soon as a sweep leaves it alone, and a row on a
``security_1st`` dispute wheel (hand-built below) is caught the moment
it comes round, not at the sweep cap — on every tier exactly as the
callback driver of ``tests/references.py`` catches it.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.gadgets.hardness import SetCoverInstance, build_set_cover_network
from repro.gadgets.oscillator import build_chicken
from repro.routing import backends as kernel_backends
from repro.routing.compiled import CompiledGraph
from repro.routing.fixpoint import (
    PIN_ALL,
    PIN_ROUTE,
    JacobiDriver,
    pin_table,
    ranking_key,
)
from repro.routing.policy import Criterion, RouteClass, available_policies, get_policy
from repro.routing.reference import ConvergenceError
from repro.security.hijack import simulate_attacks_batched, simulate_hijack
from repro.security.metrics import sample_pairs
from repro.security.scenarios import available_scenarios
from repro.topology.generator import generate_topology
from repro.topology.graph import ASGraph
from repro.topology.relationships import ASRole

from tests.references import jacobi_converge_reference, propagate_toward
from tests.strategies import graphs_with_security

SCENARIOS = available_scenarios()
POLICIES = available_policies()


def _mask(n: int, fraction: float, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).random(n) < fraction


def _scalar_outcomes(graph, pairs, node_secure, breaks, scenario, policy):
    out = []
    for victim, attacker in pairs:
        try:
            out.append(simulate_hijack(
                graph, victim, attacker, node_secure, breaks,
                scenario=scenario, policy=policy,
            ))
        except ConvergenceError:
            out.append(None)
    return out


def _assert_bit_identical(
    graph, pairs, node_secure, breaks, scenario, policy, backend=None
):
    reference = _scalar_outcomes(
        graph, pairs, node_secure, breaks, scenario, policy
    )
    if any(o is None for o in reference):
        with pytest.raises(ConvergenceError):
            simulate_attacks_batched(
                graph, pairs, node_secure, breaks,
                scenario=scenario, policy=policy, backend=backend,
            )
        return
    batched = simulate_attacks_batched(
        graph, pairs, node_secure, breaks,
        scenario=scenario, policy=policy, backend=backend,
    )
    assert len(batched) == len(reference)
    for ref, got in zip(reference, batched):
        context = (scenario, policy, ref.victim, ref.attacker)
        assert (got.victim, got.attacker) == (ref.victim, ref.attacker)
        assert np.array_equal(
            got.routes_to_attacker, ref.routes_to_attacker
        ), context
        assert np.array_equal(got.reachable, ref.reachable), context
        assert got.scenario == ref.scenario
        assert got.policy == ref.policy


@pytest.fixture(scope="module")
def seeded_graph():
    return generate_topology(n=60, seed=11).graph


@pytest.fixture(scope="module")
def chicken_graph():
    return build_chicken().graph


@pytest.fixture(scope="module")
def set_cover_graph():
    instance = SetCoverInstance(
        universe=(1, 2, 3, 4),
        subsets=(frozenset({1, 2}), frozenset({3, 4}), frozenset({2, 3})),
        k=2,
    )
    return build_set_cover_network(instance).graph


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("scenario", SCENARIOS)
class TestScalarBatchedParity:
    def test_seeded_graph(self, seeded_graph, scenario, policy):
        pairs = sample_pairs(seeded_graph, samples=3, seed=7)
        secure = _mask(seeded_graph.n, 0.4, seed=21)
        _assert_bit_identical(
            seeded_graph, pairs, secure, secure.copy(), scenario, policy
        )

    def test_oscillator_gadget(self, chicken_graph, scenario, policy):
        n = chicken_graph.n
        pairs = [(0, n - 1), (n // 2, 1)]
        secure = _mask(n, 0.5, seed=5)
        _assert_bit_identical(
            chicken_graph, pairs, secure, secure.copy(), scenario, policy
        )

    def test_set_cover_gadget(self, set_cover_graph, scenario, policy):
        n = set_cover_graph.n
        pairs = [(0, n - 1), (n - 2, 2)]
        secure = _mask(n, 0.5, seed=9)
        _assert_bit_identical(
            set_cover_graph, pairs, secure, secure.copy(), scenario, policy
        )


class TestBackendParity:
    """Every loadable kernel backend agrees with the scalar reference."""

    @pytest.mark.parametrize("backend", kernel_backends.usable_backends())
    def test_backends_match_reference(self, seeded_graph, backend):
        pairs = sample_pairs(seeded_graph, samples=4, seed=3)
        secure = _mask(seeded_graph.n, 0.5, seed=13)
        for scenario in ("origin_hijack", "route_leak"):
            _assert_bit_identical(
                seeded_graph, pairs, secure, secure.copy(),
                scenario, "security_3rd", backend=backend,
            )


#: the rankings that keep LP above SP, sticky primaries among them
SECP_INERT = ("security_1st", "security_2nd", "security_3rd", "sticky_primaries")


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("backend", kernel_backends.usable_backends())
class TestSecpInert:
    """Where nobody applies SecP, where the ranking puts it decides
    nothing: the attack grid hands such cells to the kernel once."""

    @staticmethod
    def _attack(graph, secure, breaks, scenario, policy, backend):
        outcomes = simulate_attacks_batched(
            graph, sample_pairs(graph, samples=4, seed=3), secure, breaks,
            scenario=scenario, policy=policy, backend=backend,
        )
        return outcomes.routes_to_attacker.tobytes(), outcomes.reachable.tobytes()

    def _assert_one_problem(self, graph, states, scenario, backend):
        """Every ``(policy, node_secure, breaks_ties)`` of ``states`` has
        an empty SecP-applying set, one ranking key, and byte-equal
        outcomes."""
        keys, outcomes = set(), set()
        for policy, secure, breaks in states:
            pol = get_policy(policy)
            applies = pol.secp_applies(secure, breaks)
            assert not applies.any()
            keys.add((secure.tobytes(), ranking_key(pol.ranking, applies)))
            outcomes.add(self._attack(graph, secure, breaks, scenario, policy, backend))
        assert len(keys) == 1
        assert len(outcomes) == 1, (scenario, backend)

    def test_all_insecure(self, seeded_graph, scenario, backend):
        none = np.zeros(seeded_graph.n, dtype=bool)
        self._assert_one_problem(
            seeded_graph, [(p, none, none) for p in SECP_INERT], scenario, backend,
        )

    def test_secure_nodes_that_break_no_ties(self, seeded_graph, scenario, backend):
        secure = _mask(seeded_graph.n, 0.5, seed=17)
        none = np.zeros(seeded_graph.n, dtype=bool)
        self._assert_one_problem(
            seeded_graph, [(p, secure, none) for p in SECP_INERT], scenario, backend,
        )

    def test_secure_nodes_that_are_all_sticky(self, seeded_graph, scenario, backend):
        """Sticky primaries on sticky secure nodes that break ties is the
        problem of every other ranking on nodes that break none."""
        sticky = get_policy("sticky_primaries").sticky_mask(seeded_graph.n)
        secure = sticky & _mask(seeded_graph.n, 0.7, seed=19)
        assert secure.any()
        none = np.zeros(seeded_graph.n, dtype=bool)
        self._assert_one_problem(
            seeded_graph,
            [("sticky_primaries", secure, secure)]
            + [(p, secure, none) for p in SECP_INERT],
            scenario, backend,
        )


def test_the_ranking_key_keeps_secp_once_someone_applies_it():
    applies = np.zeros(5, dtype=bool)
    rankings = [get_policy(p).ranking for p in SECP_INERT]
    assert {ranking_key(r, applies) for r in rankings} == {(Criterion.LP, Criterion.SP)}
    applies[3] = True
    # sticky primaries ranks as security_3rd
    assert {ranking_key(r, applies) for r in rankings} == set(rankings)
    assert len(set(rankings)) == 3


_SELF = int(RouteClass.SELF)
_UNREACHABLE = int(RouteClass.UNREACHABLE)


def _converge_rows(driver, node_secure, victims, attackers, leak, want_tied):
    """``(labels, tied)`` for rows ``(victim, attacker or -1)``; None if
    the chunk oscillates.  Attacker rows replay ``origin_hijack`` — or,
    with ``leak``, the two phases of ``route_leak``."""
    num_rows = len(victims)
    tied = (
        np.zeros((num_rows, driver.table.num_edges), dtype=bool)
        if want_tied else None
    )
    victim = (victims, PIN_ALL, _SELF, 0, node_secure[victims], False)
    labels = driver.blank(num_rows)
    try:
        if leak:
            driver.converge(labels, pin_table(num_rows, victim), "honest world")
            # a ``-1`` row reads a label of no use, and its pin holds nothing
            rows = np.arange(num_rows)
            attacker = (attackers, PIN_ALL, *(x[rows, attackers] for x in labels[:3]), True)
        else:
            attacker = (attackers, PIN_ALL, _SELF, 0, False, True)
        driver.converge(
            labels, pin_table(num_rows, victim, attacker), "mixed chunk",
            attackers=attackers, leak=leak, tied=tied,
        )
    except ConvergenceError:
        return None
    return labels, tied


def _assert_rows_independent(graph, node_secure, policy, backend, pairs):
    """One chunk interleaving ``(victim, -1)`` and ``(victim, attacker)``
    rows: each row equals itself run alone, the ``-1`` rows are plain
    BGP, the attacker rows are the scalar hijack reference."""
    pol = get_policy(policy)
    is_stub = graph.roles == int(ASRole.STUB)
    applies = node_secure.copy()  # every secure node breaks ties on security
    sticky = pol.sticky_mask(graph.n)
    if sticky is not None:
        applies &= ~sticky
    victims = np.repeat(np.array([v for v, _ in pairs], dtype=np.int64), 2)
    attackers = np.array([x for _, a in pairs for x in (-1, a)], dtype=np.int64)
    cg = CompiledGraph.from_graph(graph)

    for leak, drop in ((False, False), (True, False), (False, True)):
        driver = JacobiDriver(
            cg, pol, node_secure, applies,
            gullible=is_stub & node_secure,
            validators=node_secure & ~is_stub, drop=drop, backend=backend,
        )
        context = (policy, backend, leak, drop)
        mixed = _converge_rows(driver, node_secure, victims, attackers, leak, True)
        alone = [
            _converge_rows(
                driver, node_secure, victims[k:k + 1], attackers[k:k + 1],
                leak, True,
            )
            for k in range(len(victims))
        ]
        if mixed is None:
            # rows never interact: a chunk oscillates iff one of its rows does
            assert any(single is None for single in alone), context
            continue
        assert all(single is not None for single in alone), context
        labels, tied = mixed
        for k, (row_labels, row_tied) in enumerate(alone):
            for whole, single in zip((*labels, tied), (*row_labels, row_tied)):
                assert whole[k].tobytes() == single[0].tobytes(), (context, k)

        untied, none = _converge_rows(
            driver, node_secure, victims, attackers, leak, False
        )
        assert none is None
        for with_tied, without in zip(labels, untied):
            assert with_tied.tobytes() == without.tobytes(), context

        cls, _, _, att = labels
        for k, (victim, attacker) in enumerate(zip(victims, attackers)):
            if attacker >= 0:
                ref = simulate_hijack(
                    graph, int(victim), int(attacker), node_secure, node_secure,
                    drop_unvalidated=drop, policy=policy,
                    scenario="route_leak" if leak else "origin_hijack",
                )
                fooled = att[k].copy()
                fooled[[victim, attacker]] = False
                assert np.array_equal(fooled, ref.routes_to_attacker), (context, k)
                assert np.array_equal(
                    cls[k] != _UNREACHABLE, ref.reachable
                ), (context, k)
                continue
            # no adversary: nothing descends from one, and (a leak only
            # frees offers *from* the attacker) the row is plain BGP,
            # which the scalar propagation steps just as the kernel does
            assert not att[k].any(), (context, k)
            ref = propagate_toward(
                graph, int(victim), node_secure, applies, pol,
                drop=node_secure & ~is_stub if drop else None,
            )
            for got, want in zip(labels, ref):
                assert np.array_equal(got[k], want), (context, k)


def _wheel_graph():
    """Three components: a pair, a customer chain, and a ``security_1st``
    dispute wheel (Lychev et al., PAPERS.md).

    In the wheel, ``A`` reaches ``d`` over an insecure customer ``x`` or
    over its provider ``Q``; ``Q`` over its customer ``A`` or over its
    secure peer ``s``.  ``A`` ranks security first, so it takes ``Q``'s
    route whenever that is the secure one over ``s`` — a provider route,
    which GR2 stops it from announcing back up to ``Q``.  ``Q`` is secure
    but does not rank security, so it takes its customer's route whenever
    ``A`` announces one.  Either may have its way (a wedgie: two stable
    states), and stepped in lockstep they both switch, then both switch
    back, for ever.

    Returns ``(graph, secure, applies, dests)``; ``dests`` are the pair's
    end (one sweep and a second to confirm), the chain's (one sweep per
    link), ``d``, and ``d``'s secure customer ``e``, whose wheel comes
    round a sweep after ``d``'s.
    """
    graph = ASGraph()
    names = ["p", "q", *(f"c{i}" for i in range(7)), "d", "x", "s", "A", "Q", "e"]
    asn = {name: 100 + i for i, name in enumerate(names)}
    for name in names:
        graph.add_as(asn[name])
    graph.add_customer_provider(provider=asn["q"], customer=asn["p"])
    for i in range(6):
        graph.add_customer_provider(provider=asn[f"c{i + 1}"], customer=asn[f"c{i}"])
    graph.add_customer_provider(provider=asn["x"], customer=asn["d"])
    graph.add_customer_provider(provider=asn["s"], customer=asn["d"])
    graph.add_customer_provider(provider=asn["A"], customer=asn["x"])
    graph.add_customer_provider(provider=asn["Q"], customer=asn["A"])
    graph.add_peering(asn["Q"], asn["s"])
    graph.add_customer_provider(provider=asn["d"], customer=asn["e"])
    graph.validate()
    at = {name: graph.index(asn[name]) for name in names}
    secure = np.zeros(graph.n, dtype=bool)
    secure[[at["d"], at["s"], at["A"], at["Q"], at["e"]]] = True
    applies = secure.copy()
    applies[at["Q"]] = False
    return graph, secure, applies, [at["p"], at["c0"], at["d"], at["e"]]


def _wheel_rows(backend, dests, max_sweeps=None, oracle=False):
    """``(labels, tied, sweeps)`` of destinations ``dests`` of
    :func:`_wheel_graph` under ``security_1st`` — the oracle's, with
    ``oracle``."""
    graph, secure, applies, _ = _wheel_graph()
    policy = get_policy("security_1st")
    driver = JacobiDriver(
        CompiledGraph.from_graph(graph), policy,
        secure, applies, backend=backend, max_sweeps=max_sweeps,
    )
    dests = np.asarray(dests, dtype=np.int64)
    tied = np.zeros((len(dests), driver.table.num_edges), dtype=bool)
    labels = driver.blank(len(dests))
    pins = pin_table(len(dests), (dests, PIN_ROUTE, _SELF, 0, secure[dests], False))
    if oracle:
        sweeps = jacobi_converge_reference(
            driver, policy.ranking, labels, pins, "wheel graph", tied=tied
        )
    else:
        sweeps = driver.converge(labels, pins, "wheel graph", tied=tied)
    return labels, tied, sweeps


def _revisit(exc: pytest.ExceptionInfo) -> int:
    """The sweep a revisit error names."""
    return int(re.search(r"sweep (\d+) revisits", str(exc.value)).group(1))


@pytest.mark.parametrize("backend", kernel_backends.usable_backends())
class TestMixedChunk:
    """Single-origin routing is the ``attacker = -1`` row of the attack
    sweep: same kernel, same chunk, no interaction between rows."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_fixed_graphs(self, seeded_graph, chicken_graph, policy, backend):
        for graph, seed in ((seeded_graph, 21), (chicken_graph, 5)):
            _assert_rows_independent(
                graph, _mask(graph.n, 0.4, seed=seed), policy, backend,
                sample_pairs(graph, samples=2, seed=7),
            )

    @settings(max_examples=15, deadline=None)
    @given(
        case=graphs_with_security(min_nodes=4, max_nodes=12),
        pair_seed=st.integers(0, 10_000),
    )
    def test_random_graphs(self, backend, case, pair_seed):
        graph, secure_nodes = case
        victim = pair_seed % graph.n
        attacker = (victim + 1 + pair_seed // graph.n) % graph.n
        assume(victim != attacker)
        secure = np.zeros(graph.n, dtype=bool)
        secure[list(secure_nodes)] = True
        for policy in POLICIES:
            _assert_rows_independent(
                graph, secure, policy, backend,
                [(victim, attacker), (attacker, victim)],
            )

    def test_quick_row_retires_beside_slow_row(self, backend):
        """A row is done when a sweep leaves it alone, whatever the rest
        of its chunk still does."""
        *_, (quick, slow, _, _) = _wheel_graph()
        labels, tied, sweeps = _wheel_rows(backend, [quick, slow])
        # the pair's end: one sweep, and a second that changes nothing;
        # the chain's: one sweep per link, then the one that confirms
        assert sweeps[0] == 2 and sweeps[1] >= 7
        for k, dest in enumerate((quick, slow)):
            *alone, alone_sweeps = _wheel_rows(backend, [dest])
            assert alone_sweeps[0] == sweeps[k]
            for whole, single in zip((*labels, tied), (*alone[0], alone[1])):
                assert whole[k].tobytes() == single[0].tobytes(), (backend, k)

    def test_wheel_is_caught_when_it_comes_round(self, backend):
        """Same error as the sweep cap raises, a thousand sweeps sooner."""
        *_, (quick, slow, wheel, later) = _wheel_graph()
        with pytest.raises(ConvergenceError, match="revisits") as alone:
            _wheel_rows(backend, [wheel], max_sweeps=1000)
        assert _revisit(alone) <= 8
        with pytest.raises(ConvergenceError, match="revisits") as behind:
            _wheel_rows(backend, [later], max_sweeps=1000)
        assert _revisit(behind) == _revisit(alone) + 1
        # a chunk is stuck as soon as one of its rows is, at that sweep
        for dests in ([quick, wheel, slow], [wheel, quick], [later, wheel]):
            with pytest.raises(ConvergenceError, match="revisits") as beside:
                _wheel_rows(backend, dests, max_sweeps=1000)
            assert _revisit(beside) == _revisit(alone)

    def test_longer_cycles_still_meet_the_cap(self, backend):
        *_, (_, slow, _, _) = _wheel_graph()
        with pytest.raises(ConvergenceError, match="within 3 sweeps"):
            _wheel_rows(backend, [slow], max_sweeps=3)

    @pytest.mark.parametrize("max_sweeps", [None, 3, 5])
    def test_the_oracle_agrees(self, backend, max_sweeps):
        """Labels, ``tied`` and sweeps, or the error, as the callback
        driver gives them, whichever row of a chunk is the wheel."""
        *_, (quick, slow, wheel, later) = _wheel_graph()
        for dests in (
            [quick, slow], [slow, wheel, quick], [quick, quick, wheel], [later, wheel],
        ):
            outcomes = []
            for oracle in (True, False):
                try:
                    outcomes.append(_wheel_rows(backend, dests, max_sweeps, oracle))
                except ConvergenceError as exc:
                    outcomes.append(str(exc))
            want, got = outcomes
            if isinstance(want, str):
                assert got == want, (dests, max_sweeps)
                continue
            for a, b in zip((*want[0], *want[1:]), (*got[0], *got[1:])):
                assert a.tobytes() == b.tobytes(), (dests, max_sweeps)


class TestBatchedValidation:
    def test_same_node_rejected(self, seeded_graph):
        with pytest.raises(ValueError, match="must differ"):
            simulate_attacks_batched(seeded_graph, [(4, 4)])

    def test_out_of_range_rejected(self, seeded_graph):
        with pytest.raises(ValueError, match="out of range"):
            simulate_attacks_batched(seeded_graph, [(0, seeded_graph.n)])

    def test_empty_batch(self, seeded_graph):
        outcomes = simulate_attacks_batched(seeded_graph, [])
        assert len(outcomes) == 0 and list(outcomes) == []
        assert outcomes.routes_to_attacker.shape == (0, seeded_graph.n)
        assert outcomes.num_fooled.shape == (0,)

    def test_chunking_is_invisible(self, seeded_graph):
        """Results do not depend on where the pair-chunk boundary falls."""
        from repro.security import hijack as hijack_mod

        pairs = sample_pairs(seeded_graph, samples=6, seed=2)
        secure = _mask(seeded_graph.n, 0.4, seed=2)
        whole = simulate_attacks_batched(seeded_graph, pairs, secure, secure)
        original = hijack_mod._PAIR_CHUNK
        hijack_mod._PAIR_CHUNK = 2
        try:
            chunked = simulate_attacks_batched(
                seeded_graph, pairs, secure, secure
            )
        finally:
            hijack_mod._PAIR_CHUNK = original
        for a, b in zip(whole, chunked):
            assert np.array_equal(a.routes_to_attacker, b.routes_to_attacker)
            assert np.array_equal(a.reachable, b.reachable)


class TestHypothesisPin:
    @settings(max_examples=25, deadline=None)
    @given(
        case=graphs_with_security(min_nodes=4, max_nodes=12),
        scenario=st.sampled_from(SCENARIOS),
        policy=st.sampled_from(POLICIES),
        pair_seed=st.integers(0, 10_000),
    )
    def test_random_graphs_agree(self, case, scenario, policy, pair_seed):
        graph, secure_nodes = case
        assume(graph.n >= 2)
        victim = pair_seed % graph.n
        attacker = (victim + 1 + pair_seed // graph.n) % graph.n
        assume(victim != attacker)
        secure = np.zeros(graph.n, dtype=bool)
        secure[list(secure_nodes)] = True
        _assert_bit_identical(
            graph, [(victim, attacker)], secure, secure.copy(),
            scenario, policy,
        )
