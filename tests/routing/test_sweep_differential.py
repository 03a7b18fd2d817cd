"""The Jacobi iteration, every tier against one oracle, and its
one-word selection rule.

``TestSweepTiers`` converges the same chunk on the numpy kernel, the
pure-Python spec and the C kernel, and holds each to
:func:`tests.references.jacobi_converge_reference` — the callback
driver every tier used to run under, over a scalar two-stage sweep:
labels, ``tied`` and per-row sweep counts byte-equal, or the same
:class:`ConvergenceError`.  Every adversary term is on at once — a
leak, dropped unvalidated routes, gullible stubs and SecP-applying
nodes — in a chunk that mixes ``attacker = -1`` rows with adversary
rows, from arbitrary starting labels under arbitrary pins.  No
registered scenario combines these flags, so the numpy tier's variant
rows for them are built nowhere else, and arbitrary labels take the
frontier through trajectories no real run takes (a reachable class with
length -1, counting to the cap, a 2-cycle beside a row that converges).

``TestOneWordSelection`` pins the rule all three tiers select by: the
minimum of ``rank_key << 32 | tie_rank`` is the offer the two-stage rule
(least rank key, then least tie-break key among the tied) picks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import backends as kb
from repro.routing.compiled import CompiledGraph
from repro.routing.errors import BackendUnavailable
from repro.routing.fixpoint import (
    EDGE_APPLIES,
    EDGE_DROPS,
    EDGE_GULLIBLE,
    EDGE_NONPROVIDER,
    PIN_ALL,
    PIN_ATT,
    PIN_CLS,
    JacobiDriver,
    pin_table,
)
from repro.routing.policy import RouteClass, available_policies, get_policy
from repro.routing.reference import ConvergenceError
from repro.routing.tree import compute_tie_keys
from repro.telemetry.metrics import NULL_REGISTRY, MetricsRegistry, use_registry
from repro.topology.generator import generate_topology
from repro.topology.relationships import ASRole

from tests.references import jacobi_converge_reference
from tests.strategies import graphs_with_security

POLICIES = available_policies()


def _loads(name: str) -> bool:
    try:
        kb.load_backend(name)
    except BackendUnavailable:
        return False
    return True


#: the ground truth first, then every other tier that loads here
TIERS = ["numpy"] + [name for name in ("python", "cext") if _loads(name)]


def _drivers(graph, policy: str, secure: np.ndarray, applies: np.ndarray, drop=True):
    """One driver per tier, every adversary term on."""
    is_stub = graph.roles == int(ASRole.STUB)
    cg = CompiledGraph.from_graph(graph)
    return [
        JacobiDriver(
            cg, get_policy(policy), secure, applies,
            gullible=is_stub & secure, validators=secure & ~is_stub,
            drop=drop, backend=tier,
        )
        for tier in TIERS
    ]


def _random_labels(rng, chunk: int, n: int):
    """Any labels at all: each sweep is a pure function of them, so the
    tiers must agree off the reachable trajectories too (a reachable
    class with length -1 included)."""
    return (
        rng.integers(-1, 4, (chunk, n)).astype(np.int8),
        rng.integers(-1, 7, (chunk, n)).astype(np.int32),
        rng.random((chunk, n)) < 0.5,
        rng.random((chunk, n)) < 0.3,
    )


def _random_pins(rng, secure, attackers):
    """An origin per row, and each adversary's pin holding some of its
    labels at arbitrary values (a leak pins a frozen route; an
    attacker that only re-announces pins nothing but ``att``)."""
    chunk, n = len(attackers), len(secure)
    victims = (np.maximum(attackers, 0) + rng.integers(1, n, chunk)) % n
    fields = rng.choice([PIN_ALL, PIN_ATT, PIN_CLS | PIN_ATT], chunk)
    return pin_table(
        chunk,
        (victims, PIN_ALL, int(RouteClass.SELF), 0, secure[victims], False),
        (attackers, fields, rng.integers(0, 4, chunk), rng.integers(0, 6, chunk),
         rng.random(chunk) < 0.5, True),
    )


def _outcome(converge, labels, pins, attackers, leak, tied):
    """``(labels, tied, sweeps)`` of a converge from copies of
    ``labels``, or its error message."""
    labels = tuple(x.copy() for x in labels)
    try:
        sweeps = converge(labels, pins.copy(), "chunk", attackers=attackers,
                          leak=leak, tied=tied)
    except ConvergenceError as exc:
        return str(exc)
    return (*labels, tied, sweeps)


def _assert_tiers_agree(graph, policy, secure, applies, seed, drop=True):
    rng = np.random.default_rng(seed)
    drivers = _drivers(graph, policy, secure, applies, drop)
    ranking = get_policy(policy).ranking
    n, num_edges = graph.n, drivers[0].table.num_edges
    # adversary rows between rows without one
    attackers = np.array([-1, seed % n, -1, (seed // 7) % n], dtype=np.int64)
    for leak in (True, False):
        labels = _random_labels(rng, len(attackers), n)
        pins = _random_pins(rng, secure, attackers)

        def oracle(labels, pins, what, **kw):
            return jacobi_converge_reference(drivers[0], ranking, labels, pins, what, **kw)

        want = _outcome(oracle, labels, pins, attackers, leak,
                        np.zeros((len(attackers), num_edges), dtype=bool))
        for tier, driver in zip(TIERS, drivers):
            context = (policy, tier, leak, drop)
            got = _outcome(driver.converge, labels, pins, attackers, leak,
                           np.zeros((len(attackers), num_edges), dtype=bool))
            untied = _outcome(driver.converge, labels, pins, attackers, leak, None)
            if isinstance(want, str):
                assert got == want and untied == want, context
                continue
            assert not isinstance(got, str), (context, got)
            for a, b in zip(want, got):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), context
            for a, b in zip(got[:4] + got[5:], untied[:4] + untied[5:]):
                assert a.tobytes() == b.tobytes(), context


class TestSweepTiers:
    def test_every_flag_at_once(self):
        """On a seeded topology the edge table holds gullible, dropping
        and SecP-applying edges together, so those variants are built."""
        graph = generate_topology(n=60, seed=11).graph
        secure = np.random.default_rng(21).random(graph.n) < 0.6
        applies = secure.copy()
        applies[::3] = False
        flags = _drivers(graph, "security_1st", secure, applies)[0]._edge_flags
        present = np.bitwise_or.reduce(flags)
        assert present == EDGE_APPLIES | EDGE_NONPROVIDER | EDGE_GULLIBLE | EDGE_DROPS
        assert (flags & (EDGE_APPLIES | EDGE_GULLIBLE) == EDGE_APPLIES | EDGE_GULLIBLE).any()
        assert (flags & (EDGE_APPLIES | EDGE_DROPS) == EDGE_APPLIES | EDGE_DROPS).any()
        for policy in POLICIES:
            for drop in (True, False):
                _assert_tiers_agree(graph, policy, secure, applies, seed=5, drop=drop)

    @settings(max_examples=20, deadline=None)
    @given(
        case=graphs_with_security(min_nodes=4, max_nodes=12),
        seed=st.integers(0, 10_000),
        drop=st.booleans(),
    )
    def test_random_graphs(self, case, seed, drop):
        graph, secure_nodes = case
        secure = np.zeros(graph.n, dtype=bool)
        secure[list(secure_nodes)] = True
        applies = secure.copy()
        applies[seed % graph.n] = False
        for policy in POLICIES:
            _assert_tiers_agree(graph, policy, secure, applies, seed, drop)


class TestOneWordSelection:
    """``(rank_key, tie_rank)`` arg-min == the two-stage ``(rank_key,
    tie_key)`` choice, segment by segment."""

    @pytest.fixture(scope="class")
    def table(self):
        graph = generate_topology(n=200, seed=3).graph
        policy = get_policy("security_3rd")
        none = np.zeros(graph.n, dtype=bool)
        return JacobiDriver(CompiledGraph.from_graph(graph), policy, none, none).table

    @staticmethod
    def _tie_keys(table) -> np.ndarray:
        return compute_tie_keys(np.arange(table.n), table.node_ptr, table.v)

    @staticmethod
    def _segments(table) -> list[tuple[int, int]]:
        """``(start, size)`` of every segment that holds an offer."""
        starts, sizes = table.node_ptr[:-1], np.diff(table.node_ptr)
        return list(zip(starts[sizes > 0].tolist(), sizes[sizes > 0].tolist()))

    def test_tie_rank_orders_each_segment_by_tie_key(self, table):
        tie_key = self._tie_keys(table)
        for lo, size in self._segments(table):
            seg = slice(lo, lo + size)
            by_key = lo + np.argsort(tie_key[seg], kind="stable")
            assert table.rank_edge[seg].tolist() == by_key.tolist()
            assert table.tie_rank[by_key].tolist() == list(range(size))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), distinct=st.integers(1, 4))
    def test_one_reduction_picks_the_two_stage_winner(self, table, seed, distinct):
        # few distinct rank keys: they repeat inside every segment larger
        # than ``distinct``
        rank_key = np.random.default_rng(seed).integers(
            0, distinct, table.num_edges
        ).astype(np.uint64)
        tie_key = self._tie_keys(table)
        word = (rank_key << np.uint64(32)) | table.tie_rank
        segments = self._segments(table)
        seg_starts = np.array([lo for lo, _ in segments], dtype=np.int64)
        best = np.minimum.reduceat(word, seg_starts)
        one_word = table.rank_edge[
            seg_starts + (best & np.uint64(0xFFFFFFFF)).astype(np.int64)
        ]
        # every segment: the degree-1 stubs and the biggest hub included
        sizes = [size for _, size in segments]
        assert min(sizes) == 1 and max(sizes) > 20 * distinct
        for s, (lo, size) in enumerate(segments):
            seg = slice(lo, lo + size)
            tied = np.flatnonzero(rank_key[seg] == rank_key[seg].min())
            two_stage = lo + tied[np.argmin(tie_key[seg][tied])]
            assert one_word[s] == two_stage, (s, size)


@pytest.mark.parametrize("tier", TIERS)
class TestTelemetry:
    """``routing.jacobi.*`` come from what the kernel returns, and cost
    nothing with telemetry off."""

    @staticmethod
    def _converge(tier):
        graph = generate_topology(n=60, seed=11).graph
        none = np.zeros(graph.n, dtype=bool)
        driver = JacobiDriver(
            CompiledGraph.from_graph(graph), get_policy("security_3rd"), none, none,
            backend=tier,
        )
        dests = np.arange(0, graph.n, 7)
        pins = pin_table(len(dests), (dests, PIN_ALL, int(RouteClass.SELF), 0, False, False))
        return graph.n, driver.converge(driver.blank(len(dests)), pins, "telemetry")

    def test_sweeps_and_decisions(self, tier):
        with use_registry(MetricsRegistry()) as registry:
            n, sweeps = self._converge(tier)
            snapshot = registry.snapshot()
        histogram = snapshot["histograms"]["routing.jacobi.sweeps"]
        assert histogram["count"] == len(sweeps)
        assert histogram["sum"] == sweeps.sum() and sweeps.min() > 1
        decisions = snapshot["counters"]["routing.jacobi.decisions"]
        # every node on a row's first sweep; numpy re-decides every node
        # on every sweep, the frontier tiers only the nodes that can move
        if tier == "numpy":
            assert decisions == n * sweeps.sum()
        else:
            assert n * len(sweeps) < decisions < n * sweeps.sum()

    def test_nothing_is_asked_of_a_disabled_registry(self, tier, monkeypatch):
        def asked(*args, **kwargs):
            raise AssertionError("a disabled registry was asked for an instrument")

        with use_registry(NULL_REGISTRY):
            for name in ("counter", "histogram", "gauge"):
                monkeypatch.setattr(NULL_REGISTRY, name, asked)
            self._converge(tier)
