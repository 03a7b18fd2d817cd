"""Differential tests for the pooled routing arena + batched kernel.

The batched kernel must be *bit-identical* to the per-destination
kernels (and hence to the scalar reference) on every destination, state
and tie-break policy — these tests stack the three implementations
against each other on random graphs x random deployment states,
including the simplex-stub case (secure but not tie-breaking) and
partial ``breaks_ties`` masks.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.case_study import run_case_study
from repro.experiments.setup import build_environment
from repro.routing import backends as kb
from repro.routing.arena import (
    RoutingArena,
    compute_trees_batched,
    subtree_weights_batched,
)
from repro.routing.compiled import CompiledGraph
from repro.routing.errors import BackendUnavailable
from repro.routing.paths import RoutingTree
from repro.routing.tree import (
    ARENA_FIELDS,
    DestRouting,
    chunk_pools,
    compute_dest_routing,
)
from repro.telemetry.metrics import MetricsRegistry, use_registry
from repro.topology.graph import ASGraph

from tests.references import compute_tree, compute_tree_scalar, subtree_weights, tie_keys
from tests.strategies import as_graphs


def _loadable(name: str) -> bool:
    try:
        kb.load_backend(name)
    except BackendUnavailable:
        return False
    return True


#: the tiers that load here
TIERS = [name for name in ("numpy", "cext") if _loadable(name)]

def _flags(n: int, idx: list[int]) -> np.ndarray:
    out = np.zeros(n, dtype=bool)
    out[idx] = True
    return out


def _arena_for(graph: ASGraph, dests: list[int]) -> RoutingArena:
    return RoutingArena.build(
        graph.n, list(chunk_pools(CompiledGraph.from_graph(graph), dests))
    )


@st.composite
def graphs_with_states(draw: st.DrawFn):
    """Graph + secure set + breaks-ties subset (simplex stubs included).

    ``breaks`` is drawn as a subset of ``secure`` — exactly the shape
    the simulation produces (insecure ASes never break ties; simplex
    stubs are secure without breaking ties when §6.7 is off).
    """
    graph = draw(as_graphs(min_nodes=4, max_nodes=14))
    secure = draw(
        st.lists(st.integers(0, graph.n - 1), max_size=graph.n, unique=True)
    )
    breaks = [s for s in secure if draw(st.booleans())]
    return graph, secure, breaks


class TestBatchedVsScalar:
    @given(graphs_with_states())
    @settings(max_examples=60, deadline=None)
    def test_every_destination_bit_identical(self, case):
        graph, secure_list, breaks_list = case
        secure = _flags(graph.n, secure_list)
        breaks = _flags(graph.n, breaks_list)
        dests = list(range(graph.n))
        arena = _arena_for(graph, dests)
        bt = compute_trees_batched(arena, arena.all_slots(), secure, breaks)
        for k, dest in enumerate(dests):
            dr = compute_dest_routing(graph, dest)
            ref = compute_tree_scalar(dr, secure, breaks)
            got = bt.tree(k)
            assert got.dest == dest
            assert (got.choice == ref.choice).all()
            assert (got.secure == ref.secure).all()
            assert (got.any_secure_candidate == ref.any_secure_candidate).all()

    @given(graphs_with_states())
    @settings(max_examples=40, deadline=None)
    def test_subtree_weights_match(self, case):
        graph, secure_list, breaks_list = case
        rng = np.random.default_rng(graph.n)
        weights = rng.uniform(0.5, 5.0, size=graph.n)
        secure = _flags(graph.n, secure_list)
        breaks = _flags(graph.n, breaks_list)
        dests = list(range(graph.n))
        arena = _arena_for(graph, dests)
        bt = compute_trees_batched(arena, arena.all_slots(), secure, breaks)
        w2d = subtree_weights_batched(arena, arena.all_slots(), bt.choice, weights)
        for k, dest in enumerate(dests):
            dr = arena.view(k)
            ref = subtree_weights(dr, bt.tree(k), weights)
            np.testing.assert_array_equal(w2d[k], ref)

    def test_simplex_stub_does_not_apply_secp(self):
        """A secure node with breaks_ties=False keeps its hash choice."""
        g = ASGraph()
        for asn in (1, 2, 3, 4):
            g.add_as(asn)
        g.add_customer_provider(provider=1, customer=2)
        g.add_customer_provider(provider=1, customer=3)
        g.add_customer_provider(provider=2, customer=4)
        g.add_customer_provider(provider=3, customer=4)
        dest = g.index(4)
        arena = _arena_for(g, [dest])
        none = np.zeros(g.n, dtype=bool)
        plain = compute_trees_batched(arena, arena.all_slots(), none, none)
        hash_choice = int(plain.choice[0, g.index(1)])
        other = g.index(2) if hash_choice == g.index(3) else g.index(3)
        secure = _flags(g.n, [g.index(1), other, dest])
        # node 1 secure, secure candidate available, but no SecP
        simplex = compute_trees_batched(arena, arena.all_slots(), secure, none)
        assert int(simplex.choice[0, g.index(1)]) == hash_choice
        # ...and with SecP it reroutes to the secure middle
        secp = compute_trees_batched(arena, arena.all_slots(), secure, secure)
        assert int(secp.choice[0, g.index(1)]) == other


class TestSubsetBatches:
    def test_subset_matches_full_and_per_dest(self, small_graph, small_cache):
        arena = small_cache.ensure_arena()
        rng = np.random.default_rng(42)
        secure = rng.random(small_graph.n) < 0.4
        breaks = secure & (rng.random(small_graph.n) < 0.7)
        slots = np.asarray(
            sorted(rng.choice(arena.num_dests, size=17, replace=False)), dtype=np.int64
        )
        bt = compute_trees_batched(arena, slots, secure, breaks)
        w2d = subtree_weights_batched(arena, slots, bt.choice, small_graph.weights)
        for i, slot in enumerate(slots):
            dr = arena.view(int(slot))
            ref = compute_tree(dr, secure, breaks)
            assert (bt.choice[i] == ref.choice).all()
            assert (bt.secure[i] == ref.secure).all()
            assert (bt.any_secure[i] == ref.any_secure_candidate).all()
            np.testing.assert_array_equal(
                w2d[i], subtree_weights(dr, ref, small_graph.weights)
            )

    def test_empty_batch(self, small_cache):
        arena = small_cache.ensure_arena()
        n = small_cache.graph.n
        bt = compute_trees_batched(
            arena, np.empty(0, dtype=np.int64),
            np.zeros(n, dtype=bool), np.zeros(n, dtype=bool),
        )
        assert bt.choice.shape == (0, n)


class TestLayoutPins:
    """What layout v2 is for, as numbers the program reports — no timing.

    On the default seeded environment at N=500: SecP/TB selection runs
    over the multi-candidate rows only, those are the minority Fig 10
    says they are, and the weights pass no longer holds a second
    ``[D, n]`` float64 matrix.
    """

    @pytest.fixture(scope="class")
    def env(self):
        return build_environment(n=500, seed=2011)

    def test_counters_report_the_static_row_counts(self, env):
        sizes = np.concatenate([dr.tiebreak_sizes() for dr in env.cache.ensure_arena().views()])
        rows, multi_rows = int((sizes > 0).sum()), int((sizes > 1).sum())
        for backend in TIERS:   # read off the pools: the same on every tier
            arena = _clone(env, backend)
            secure = np.zeros(env.graph.n, dtype=bool)
            secure[::3] = True
            registry = MetricsRegistry()
            with use_registry(registry):
                for _ in range(2):   # per call, whatever the state
                    compute_trees_batched(arena, arena.all_slots(), secure, secure)
                    secure = ~secure
            counters = registry.snapshot()["counters"]
            assert counters["routing.batched.calls"] == 2
            assert counters["routing.batched.rows"] == 2 * rows
            assert counters["routing.batched.multi_rows"] == 2 * multi_rows
            assert counters["routing.batched.levels"] == 2 * arena.num_levels
            assert counters[f"routing.backend.calls.{backend}"] == 2
        # Fig 10 / sec 6.6: about a fifth of tiebreak sets hold a choice
        assert 0.15 <= multi_rows / rows <= 0.35

    def test_mirror_bytes_are_reported(self, env):
        arena = _clone(env, "numpy")
        none = np.zeros(env.graph.n, dtype=bool)
        registry = MetricsRegistry()
        with use_registry(registry):
            compute_trees_batched(arena, arena.all_slots(), none, none)
        nbytes = kb.load_backend("numpy").build_level_major(arena.graph_n, *_pools(arena))
        assert nbytes > 0
        assert registry.snapshot()["gauges"]["routing.arena.level_major_bytes"] == nbytes

    def test_the_numpy_mirror_leaves_with_its_arena(self, env):
        numpy_tier = kb.load_backend("numpy")
        memos = (numpy_tier._TREE_STACKS._entries, numpy_tier._WEIGHT_STACKS._entries)
        gc.collect()   # arenas other tests left in cycles go first
        held = [len(m) for m in memos]
        arena = _clone(env, "numpy")
        none = np.zeros(env.graph.n, dtype=bool)
        slots = arena.all_slots()
        choice = compute_trees_batched(arena, slots, none, none).choice
        subtree_weights_batched(arena, slots, choice, env.graph.weights)
        compute_trees_batched(arena, slots[::-1], none, none)   # built once
        assert [len(m) for m in memos] == [h + 1 for h in held]
        del arena
        gc.collect()
        assert [len(m) for m in memos] == held

    @pytest.mark.skipif("cext" not in TIERS, reason="needs a C compiler")
    def test_a_cext_round_never_builds_a_mirror(self, monkeypatch):
        numpy_tier = kb.load_backend("numpy")

        def refuse(*args):
            raise AssertionError("a cext run built the level-major mirror")

        monkeypatch.setattr(numpy_tier, "_build_weight_stack", refuse)
        monkeypatch.setattr(numpy_tier, "_build_tree_stacks", refuse)
        registry = MetricsRegistry()
        with use_registry(registry):
            env = build_environment(n=150, seed=7, backend="cext")
            result = run_case_study(env).result
        assert result.rounds
        snapshot = registry.snapshot()
        assert "routing.arena.level_major_bytes" not in snapshot["gauges"]
        assert snapshot["counters"]["routing.backend.calls.cext"] > 0
        assert "routing.backend.calls.numpy" not in snapshot["counters"]

    def test_weights_pass_holds_no_second_matrix(self, env):
        # numpy's blocked pass is what this measures, whatever the default
        arena = _clone(env, "numpy")
        none = np.zeros(env.graph.n, dtype=bool)
        slots = arena.all_slots()
        choice = compute_trees_batched(arena, slots, none, none).choice
        weights = env.graph.weights
        subtree_weights_batched(arena, slots, choice, weights)   # mirror built
        tracemalloc.start()
        try:
            w2d = subtree_weights_batched(arena, slots, choice, weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w2d.nbytes == 8 * arena.num_dests * env.graph.n
        assert peak < 1.5 * w2d.nbytes


def _clone(env, backend: str) -> RoutingArena:
    """A copy of ``env``'s arena (its own pools) on ``backend``."""
    arena = env.cache.ensure_arena()
    arrays = {name: getattr(arena, name).copy() for name, _ in ARENA_FIELDS}
    return RoutingArena(env.graph.n, arrays, backend=backend)


def _pools(arena: RoutingArena) -> list[np.ndarray]:
    """The pools, in the order the tree kernels take them."""
    return [getattr(arena, name) for name in (
        "order_ptr", "order_pool", "level_ptr", "level_pool", "indptr_ptr",
        "indptr_pool", "cand_ptr", "cands_pool",
    )]


class TestArenaStructure:
    def test_views_equal_originals(self, small_graph):
        dests = list(range(0, small_graph.n, 7))
        routings = [compute_dest_routing(small_graph, d) for d in dests]
        arena = _arena_for(small_graph, dests)
        for k, r in enumerate(routings):
            v = arena.view(k)
            assert v.dest == r.dest
            for field in ("cls", "lengths", "order", "row_of", "level_starts",
                          "indptr", "cands"):
                np.testing.assert_array_equal(getattr(v, field), getattr(r, field))
            np.testing.assert_array_equal(tie_keys(v), tie_keys(r))

    def test_views_share_pool_memory(self, small_cache):
        arena = small_cache.ensure_arena()
        v = arena.view(0)
        assert v.order.base is not None  # a slice of the pool, not a copy
        assert np.shares_memory(v.cls, arena.cls)

    def test_build_rejects_misaligned_inputs(self, small_graph):
        cg = CompiledGraph.from_graph(small_graph)
        with pytest.raises(ValueError, match="another graph"):
            RoutingArena.build(small_graph.n + 1, list(chunk_pools(cg, [0, 1])))

    def test_views_hold_no_tie_keys(self, small_cache):
        """A view keeps no keys: its rows are in tie-break order, along
        which the keys a reader derives ascend."""
        arena = small_cache.ensure_arena()
        for slot in (0, 3, arena.num_dests - 1):
            view = arena.view(slot)
            keys = tie_keys(view)
            rows = np.repeat(np.arange(len(view.order)), np.diff(view.indptr))
            assert (np.diff(keys)[np.diff(rows) == 0] > 0).all()
            held = [v for v in vars(view).values() if isinstance(v, np.ndarray)]
            assert all(v.dtype != np.uint64 for v in held)
            assert not hasattr(view, "tie_keys")


class TestArenaLayout:
    """The arena's layout and what it costs per ``(destination, node)``,
    pinned on every loadable tier: 12 fields, tie keys derived rather
    than stored, int32 ``indptr`` runs and int8 path lengths."""

    LAYOUT = {
        "dest_ids": "int32", "cls": "int8", "lengths": "int8", "row_of": "int32",
        "order_ptr": "int64", "order_pool": "int32", "level_ptr": "int64",
        "level_pool": "int32", "indptr_ptr": "int64", "indptr_pool": "int32",
        "cand_ptr": "int64", "cands_pool": "int32",
    }

    @pytest.mark.parametrize("backend", ["numpy", "cext"])
    def test_at_most_20_bytes_per_entry_at_n1000(self, backend):
        if not _loadable(backend):
            pytest.skip(f"kernel backend {backend!r} does not load here")
        assert dict(ARENA_FIELDS) == self.LAYOUT
        registry = MetricsRegistry()
        with use_registry(registry):
            env = build_environment(n=1000, backend=backend)
            arena = env.cache.ensure_arena()
        assert arena.num_dests == 1000
        assert arena.bytes_per_entry == arena.nbytes / (arena.num_dests * env.graph.n)
        assert arena.bytes_per_entry <= 20
        gauges = registry.snapshot()["gauges"]
        assert gauges["routing.arena.bytes"] == arena.nbytes
        assert gauges["routing.arena.bytes_per_entry"] == arena.bytes_per_entry


def _subtree_weights_add_at(
    dr: DestRouting, tree: RoutingTree, weights: np.ndarray
) -> np.ndarray:
    """The pre-optimisation ``np.add.at`` implementation, kept verbatim
    as the differential reference for the ``np.bincount`` rewrite."""
    n = len(dr.cls)
    w = np.zeros(n, dtype=np.float64)
    order, levels = dr.order, dr.level_starts
    for level in range(len(levels) - 2, 0, -1):
        lo, hi = int(levels[level]), int(levels[level + 1])
        if lo == hi:
            continue
        nodes = order[lo:hi]
        parents = tree.choice[nodes]
        np.add.at(w, parents, w[nodes] + weights[nodes])
    return w


class TestSubtreeWeightsBincount:
    @given(as_graphs(min_nodes=4, max_nodes=16))
    @settings(max_examples=40, deadline=None)
    def test_bincount_matches_add_at(self, graph):
        rng = np.random.default_rng(graph.n)
        weights = rng.uniform(0.1, 9.0, size=graph.n)
        secure = rng.random(graph.n) < 0.5
        for dest in range(0, graph.n, max(1, graph.n // 3)):
            dr = compute_dest_routing(graph, dest)
            tree = compute_tree(dr, secure, secure)
            np.testing.assert_array_equal(
                subtree_weights(dr, tree, weights),
                _subtree_weights_add_at(dr, tree, weights),
            )

    def test_bincount_matches_add_at_on_cache(self, small_graph, small_cache):
        dr = small_cache.ensure_arena().view(small_cache.dest_pos(5))
        none = np.zeros(small_graph.n, dtype=bool)
        tree = compute_tree(dr, none, none)
        np.testing.assert_array_equal(
            subtree_weights(dr, tree, small_graph.weights),
            _subtree_weights_add_at(dr, tree, small_graph.weights),
        )
