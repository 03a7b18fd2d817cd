"""The Jacobi step, tier against tier, and its one-word selection rule.

``TestSweepTiers`` steps the numpy kernel, the pure-Python spec and the
C kernel from the same labels with every adversary term on at once — a
leak, dropped unvalidated routes, gullible stubs and SecP-applying
nodes — in a chunk that mixes ``attacker = -1`` rows with adversary
rows, with and without the tie mask.  No registered scenario combines
these flags, so the numpy tier's variant rows for them are built
nowhere else.

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
from repro.routing.fixpoint import JacobiDriver
from repro.routing.policy import available_policies, get_policy
from repro.routing.tree import compute_tie_keys
from repro.topology.generator import generate_topology
from repro.topology.relationships import ASRole

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

_APPLIES, _NONPROVIDER, _GULLIBLE, _DROPS = 1, 2, 4, 8


def _drivers(graph, policy: str, secure: np.ndarray, applies: np.ndarray):
    """One driver per tier, every adversary term on."""
    is_stub = graph.roles == int(ASRole.STUB)
    cg = CompiledGraph.from_graph(graph)
    return [
        JacobiDriver(
            cg, get_policy(policy), secure, applies,
            gullible=is_stub & secure, validators=secure & ~is_stub,
            drop=True, backend=tier,
        )
        for tier in TIERS
    ]


def _step(driver, labels, attackers, leak, tied):
    """One raw kernel step from ``labels`` (no pin), into fresh arrays."""
    table = driver.table
    new = driver.blank(len(attackers))
    driver._kernels.jacobi_sweep(
        table.v, table.route_cls,
        table.seg_starts, table.seg_sizes, table.seg_u,
        table.tie_rank, table.rank_edge, table.lp_field,
        driver._edge_flags, driver._rank_codes, driver._rank_widths,
        attackers, leak,
        *labels, driver._node_secure,
        *new, tied,
    )
    return new


def _random_labels(rng, chunk: int, n: int):
    """Any labels at all: the step is a pure function of them, so the
    tiers must agree off the reachable trajectories too (a reachable
    class with length -1 included)."""
    return (
        rng.integers(-1, 4, (chunk, n)).astype(np.int8),
        rng.integers(-1, 7, (chunk, n)).astype(np.int32),
        rng.random((chunk, n)) < 0.5,
        rng.random((chunk, n)) < 0.3,
    )


def _assert_tiers_agree(graph, policy, secure, applies, seed):
    rng = np.random.default_rng(seed)
    drivers = _drivers(graph, policy, secure, applies)
    n = graph.n
    # adversary rows between rows without one
    attackers = np.array([-1, seed % n, -1, (seed // 7) % n], dtype=np.int64)
    num_edges = drivers[0].table.num_edges
    for leak in (True, False):
        labels = _random_labels(rng, len(attackers), n)
        for _ in range(3):
            truth = truth_tied = None
            for tier, driver in zip(TIERS, drivers):
                tied = np.zeros((len(attackers), num_edges), dtype=bool)
                got = _step(driver, labels, attackers, leak, tied)
                untied = _step(driver, labels, attackers, leak, None)
                context = (policy, tier, leak)
                for with_tied, without in zip(got, untied):
                    assert with_tied.tobytes() == without.tobytes(), context
                if truth is None:
                    truth, truth_tied = got, tied
                    continue
                for want, have in zip((*truth, truth_tied), (*got, tied)):
                    assert want.dtype == have.dtype, context
                    assert want.tobytes() == have.tobytes(), context
            labels = truth


@pytest.mark.skipif(len(TIERS) < 2, reason="no second tier loads")
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
        assert present == _APPLIES | _NONPROVIDER | _GULLIBLE | _DROPS
        assert (flags & (_APPLIES | _GULLIBLE) == _APPLIES | _GULLIBLE).any()
        assert (flags & (_APPLIES | _DROPS) == _APPLIES | _DROPS).any()
        for policy in POLICIES:
            _assert_tiers_agree(graph, policy, secure, applies, seed=5)

    @settings(max_examples=20, deadline=None)
    @given(
        case=graphs_with_security(min_nodes=4, max_nodes=12),
        seed=st.integers(0, 10_000),
        policy=st.sampled_from(POLICIES),
    )
    def test_random_graphs(self, case, seed, policy):
        graph, secure_nodes = case
        secure = np.zeros(graph.n, dtype=bool)
        secure[list(secure_nodes)] = True
        applies = secure.copy()
        applies[seed % graph.n] = False
        _assert_tiers_agree(graph, policy, secure, applies, seed)


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
        bounds = np.concatenate([table.seg_starts, [table.num_edges]])
        return compute_tie_keys(table.seg_u, bounds, table.v)

    def test_tie_rank_orders_each_segment_by_tie_key(self, table):
        tie_key = self._tie_keys(table)
        for lo, size in zip(table.seg_starts.tolist(), table.seg_sizes.tolist()):
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
        best = np.minimum.reduceat(word, table.seg_starts)
        one_word = table.rank_edge[
            table.seg_starts + (best & np.uint64(0xFFFFFFFF)).astype(np.int64)
        ]
        # every segment: the degree-1 stubs and the biggest hub included
        sizes = table.seg_sizes.tolist()
        assert min(sizes) == 1 and max(sizes) > 20 * distinct
        for s, (lo, size) in enumerate(zip(table.seg_starts.tolist(), sizes)):
            seg = slice(lo, lo + size)
            tied = np.flatnonzero(rank_key[seg] == rank_key[seg].min())
            two_stage = lo + tied[np.argmin(tie_key[seg][tied])]
            assert one_word[s] == two_stage, (s, size)
