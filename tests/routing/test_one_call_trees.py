"""One kernel call per batch: trees and subtree weights together.

``compute_trees_batched(..., node_weights=)`` resolves each batch row's
tree and sums its subtree weights in one ``trees_stacked`` call.  On
every loadable tier that must equal the two-call path — the trees, then
``weights_stacked`` over them — bit for bit, weights as ``uint64``:
into buffers that hold garbage (so the kernels are shown to clear each
row themselves), under one ``[n]`` state and under a state per row, on
full, subset, repeated-slot and empty batches, into output rows of
longer buffers (``rows``: the rows not named stay untouched), and
through a round cut into ``chunked_batches`` passes.  Collected by the
blocking ``backend-matrix`` CI job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import engine
from repro.core.config import UtilityModel
from repro.core.engine import RoundBuffers, compute_round_data
from repro.core.state import DeploymentState, StateDeriver
from repro.routing import backends as kernel_backends
from repro.routing.arena import (
    RoutingArena,
    TreeBuffers,
    compute_trees_batched,
    subtree_weights_batched,
)
from repro.routing.cache import RoutingCache
from repro.routing.errors import BackendUnavailable
from repro.routing.policy import get_policy
from repro.runtime.guard import MemoryBudget, RuntimeGuard, use_guard
from repro.telemetry.metrics import MetricsRegistry, use_registry

TIERS = ["numpy", "cext"]


def _tier(name: str) -> None:
    try:
        kernel_backends.load_backend(name)
    except BackendUnavailable:
        pytest.skip(f"{name} backend not loadable here")


def _dests(graph) -> list[int]:
    return list(range(0, graph.n, 5))


def _arena(graph, backend: str) -> RoutingArena:
    pools = get_policy("security_3rd").build_pools(graph, _dests(graph))
    return RoutingArena.build(graph.n, [pools], backend=backend)


def _garbage(rng, rows: int, n: int) -> tuple[TreeBuffers, np.ndarray]:
    """Output buffers as a previous call could have left them, or worse."""
    trees = TreeBuffers(
        choice=rng.integers(-3, n, size=(rows, n), dtype=np.int32),
        secure=rng.random((rows, n)) < 0.5,
        any_secure=rng.random((rows, n)) < 0.5,
    )
    return trees, np.full((rows, n), np.nan)


def _two_calls(arena, slots, node_secure, breaks, weights) -> list[np.ndarray]:
    bt = compute_trees_batched(arena, slots, node_secure, breaks)
    w2d = subtree_weights_batched(arena, slots, bt.choice, weights)
    return [bt.choice, bt.secure, bt.any_secure, w2d]


def _assert_identical(got: list[np.ndarray], want: list[np.ndarray], where) -> None:
    for name, a, b in zip(("choice", "secure", "any_secure", "weights"), got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, (name, where)
        if name == "weights":
            a, b = a.view(np.uint64), b.view(np.uint64)   # NaN != NaN hides nothing
        assert a.tobytes() == b.tobytes(), (name, where)


@pytest.mark.parametrize("backend", TIERS)
def test_one_call_equals_two_calls(small_graph, backend):
    _tier(backend)
    n, weights = small_graph.n, small_graph.weights
    arena = _arena(small_graph, backend)
    truth = _arena(small_graph, "numpy")
    rng = np.random.default_rng(34)
    num = arena.num_dests
    batches = {
        "full": arena.all_slots(),
        "subset": np.array([0, 3, 7]),
        "unsorted, repeated": np.array([7, 0, 3, 3, 7, num - 1]),
        "one row": np.array([num // 2]),
        "empty": np.empty(0, dtype=np.int64),
    }
    for label, slots in batches.items():
        B = len(slots)
        shared = rng.random(n) < 0.4
        states = {
            "[n]": (shared, shared & (rng.random(n) < 0.8)),
            "[B, n]": (rng.random((B, n)) < 0.4, rng.random((B, n)) < 0.8),
            "[n] and [B, n]": (shared, rng.random((B, n)) < 0.8),
        }
        for kind, (node_secure, breaks) in states.items():
            where = (backend, label, kind)
            want = _two_calls(truth, slots, node_secure, breaks, weights)
            _assert_identical(
                _two_calls(arena, slots, node_secure, breaks, weights), want, where
            )
            trees, w = _garbage(rng, B, n)
            bt = compute_trees_batched(
                arena, slots, node_secure, breaks, out=trees,
                node_weights=weights, weights_out=w,
            )
            assert bt.choice is trees.choice and bt.weights is w
            _assert_identical(
                [bt.choice, bt.secure, bt.any_secure, bt.weights], want, where
            )
            # allocated here, and trees alone into garbage
            bt = compute_trees_batched(arena, slots, node_secure, breaks, node_weights=weights)
            _assert_identical([bt.choice, bt.secure, bt.any_secure, bt.weights], want, where)
            trees, _ = _garbage(rng, B, n)
            bt = compute_trees_batched(arena, slots, node_secure, breaks, out=trees)
            assert bt.weights is None
            _assert_identical([bt.choice, bt.secure, bt.any_secure], want[:3], where)


@pytest.mark.parametrize("backend", TIERS)
def test_output_rows(small_graph, backend):
    """``rows`` puts batch row ``i`` into row ``rows[i]`` of buffers
    longer than the batch, bit for bit the batch's own rows, and leaves
    every row it does not name as it was."""
    _tier(backend)
    n, weights = small_graph.n, small_graph.weights
    arena = _arena(small_graph, backend)
    truth = _arena(small_graph, "numpy")
    rng = np.random.default_rng(35)
    num = arena.num_dests
    R = num + 4
    batches = {
        "each slot its own row": (np.array([0, 3, 7]), np.array([0, 3, 7])),
        "every slot its own row": (arena.all_slots(), arena.all_slots()),
        "moved, unsorted": (np.array([7, 0, 3]), np.array([R - 1, 2, 5])),
        "repeated slot": (np.array([3, num - 1, 3]), np.array([1, 0, num + 2])),
        "empty": (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)),
    }
    for label, (slots, rows) in batches.items():
        B = len(slots)
        shared = rng.random(n) < 0.4
        states = {
            "[n]": (shared, shared & (rng.random(n) < 0.8)),
            "[B, n]": (rng.random((B, n)) < 0.4, rng.random((B, n)) < 0.8),
        }
        others = np.setdiff1d(np.arange(R), rows)
        for kind, (node_secure, breaks) in states.items():
            where = (backend, label, kind)
            want = _two_calls(truth, slots, node_secure, breaks, weights)
            for weighed in (True, False):
                trees, w = _garbage(rng, R, n)
                before = [a.copy() for a in (trees.choice, trees.secure, trees.any_secure, w)]
                bt = compute_trees_batched(
                    arena, slots, node_secure, breaks, out=trees, rows=rows,
                    **({"node_weights": weights, "weights_out": w} if weighed else {}),
                )
                assert bt.choice is trees.choice
                got = [trees.choice, trees.secure, trees.any_secure, w]
                count = 4 if weighed else 3
                _assert_identical([a[rows] for a in got[:count]], want[:count], where)
                for a, b in zip(got, before):
                    assert a[others].tobytes() == b[others].tobytes(), where
                if not weighed:
                    assert w.view(np.uint64).tobytes() == before[3].view(np.uint64).tobytes()


def test_output_rows_are_checked(small_cache):
    arena = small_cache.ensure_arena()
    n = arena.graph_n
    none = np.zeros(n, dtype=bool)
    trees = TreeBuffers.empty(4, n)
    with pytest.raises(ValueError, match="rows needs out"):
        compute_trees_batched(arena, [0, 1], none, none, rows=[0, 1])
    for bad in ([0, 0], [0, 4], [-1, 2], [0]):
        with pytest.raises(ValueError, match="distinct rows"):
            compute_trees_batched(arena, [0, 1], none, none, out=trees, rows=bad)
    with pytest.raises(ValueError, match="weights buffer"):
        compute_trees_batched(
            arena, [0, 1], none, none, out=trees, rows=[2, 3],
            node_weights=small_cache.graph.weights, weights_out=np.empty((2, n)),
        )


def test_weights_out_needs_node_weights(small_cache):
    arena = small_cache.ensure_arena()
    n = arena.graph_n
    none = np.zeros(n, dtype=bool)
    with pytest.raises(ValueError, match="needs node_weights"):
        compute_trees_batched(arena, [0, 1], none, none, weights_out=np.empty((2, n)))
    with pytest.raises(ValueError, match="weights buffer"):
        compute_trees_batched(
            arena, [0, 1], none, none, node_weights=small_cache.graph.weights,
            weights_out=np.empty((3, n)),
        )


@pytest.mark.parametrize("backend", TIERS)
def test_a_round_in_chunked_passes(small_graph, backend):
    """A round the guard cuts into passes of three rows: one kernel call
    per pass, into garbage-filled round buffers, equal to the uncut
    round and to numpy's two-call path."""
    _tier(backend)
    n = small_graph.n
    cache = RoutingCache(small_graph, destinations=_dests(small_graph), backend=backend)
    deriver = StateDeriver(small_graph, compiled=cache.compiled)
    state = DeploymentState.initial(small_graph.isp_indices[::4])
    arena = cache.ensure_arena()
    num = arena.num_dests
    model = UtilityModel.INCOMING
    uncut = compute_round_data(cache, deriver, state, model)
    want = [uncut.choice, uncut.sec_matrix, uncut.any_sec_matrix, uncut.weights]
    assert uncut.node_secure.any() and uncut.sec_matrix.any()
    _assert_identical(
        want,
        _two_calls(
            _arena(small_graph, "numpy"), arena.all_slots(), uncut.node_secure,
            uncut.breaks_ties, small_graph.weights,
        ),
        (backend, "uncut"),
    )

    buffers = RoundBuffers()
    trees, w = buffers.take(num, n)
    garbage, nan = _garbage(np.random.default_rng(7), num, n)
    for mine, bad in zip((trees.choice, trees.secure, trees.any_secure, w),
                         (garbage.choice, garbage.secure, garbage.any_secure, nan)):
        mine[...] = bad
    # an eighth of the budget holds three rows of a round's working set
    guard = RuntimeGuard(
        memory=MemoryBudget(limit_bytes=8 * 3 * engine._KERNEL_ROW_BYTES_PER_NODE * n)
    )
    with use_guard(guard), use_registry(MetricsRegistry()) as registry:
        cut = compute_round_data(cache, deriver, state, model, buffers=buffers)
    assert guard.ladder.taken("chunked_batches") == 1
    passes = -(-num // 3)
    counters = registry.snapshot()["counters"]
    assert counters["routing.batched.calls"] == passes
    # no second call per pass for the weights
    assert counters[f"routing.backend.calls.{backend}"] == passes
    assert cut.choice is trees.choice and cut.weights is w
    _assert_identical(
        [cut.choice, cut.sec_matrix, cut.any_sec_matrix, cut.weights], want, (backend, "cut")
    )
    assert cut.utilities.tobytes() == uncut.utilities.tobytes()
