"""One stacked pass per round: ``project_flips`` against its one-job calls.

(a) a stack of jobs equals the jobs projected one at a time, field for
field and ``utility`` byte for byte; (b) the pass size is invisible;
(c) a slot that two jobs put in one pass under different states resolves
as each job alone would; (d) on every loadable kernel tier a batch with a
state per row equals its rows resolved one at a time.
"""

from __future__ import annotations

import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import engine, projection
from repro.core.config import ProjectionEngine, UtilityModel
from repro.core.engine import compute_round_data
from repro.core.projection import project_flip, project_flips
from repro.core.state import DeploymentState, StateDeriver
from repro.parallel.engine import parallel_project_flips
from repro.routing import backends as kernel_backends
from repro.routing.arena import RoutingArena, compute_trees_batched, subtree_weights_batched
from repro.routing.cache import RoutingCache
from repro.routing.errors import BackendUnavailable
from repro.routing.policy import get_policy
from repro.runtime.guard import MemoryBudget, RuntimeGuard, use_guard
from repro.telemetry.metrics import MetricsRegistry, use_registry
from repro.topology.graph import ASGraph

from tests.strategies import as_graphs

POLICIES = ("security_3rd", "security_2nd", "sp_first")


def _fields(proj) -> tuple:
    """Every field of a projection, ``utility`` as its bytes, ``flips``
    with its order, the counts as plain ints."""
    assert type(proj.dests_recomputed) is int and type(proj.dests_delta) is int
    return (
        proj.isp, proj.turning_on, struct.pack("<d", proj.utility),
        list(proj.flips.items()), proj.dests_recomputed, proj.dests_delta,
    )


def _mixed_jobs(graph: ASGraph, state: DeploymentState) -> list[tuple[int, bool]]:
    """Every ISP flipping out of ``state``, turn-offs between turn-ons."""
    return [(isp, isp not in state.deployers) for isp in graph.isp_indices]


def _assert_stack_equals_one_job_calls(cache, deriver, state, jobs, models=UtilityModel):
    resolved = 0
    for model in models:
        rd = compute_round_data(cache, deriver, state, model)
        for engine in ProjectionEngine:
            stacked = project_flips(cache, deriver, rd, jobs, model, engine)
            alone = [project_flip(cache, deriver, rd, isp, on, model, engine) for isp, on in jobs]
            assert [_fields(p) for p in stacked] == [_fields(p) for p in alone], (model, engine)
            resolved += sum(p.dests_recomputed for p in stacked)
    return resolved


@st.composite
def graphs_with_states(draw):
    graph = draw(as_graphs(min_nodes=4, max_nodes=14, with_cps=True))
    deployers = draw(st.lists(st.integers(0, graph.n - 1), max_size=graph.n, unique=True))
    early = [d for d in deployers if draw(st.booleans())]
    return graph, DeploymentState(frozenset(deployers), frozenset(early))


class TestStackEqualsOneJobCalls:
    @settings(max_examples=40, deadline=None)
    @given(graphs_with_states(), st.sampled_from(POLICIES), st.booleans())
    def test_random_gr1_graphs(self, graph_state, policy, stub_breaks):
        graph, state = graph_state
        cache = RoutingCache(graph, policy=policy)
        deriver = StateDeriver(graph, stub_breaks_ties=stub_breaks, compiled=cache.compiled)
        _assert_stack_equals_one_job_calls(cache, deriver, state, _mixed_jobs(graph, state))

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("sampled", [False, True], ids=["full", "sampled"])
    def test_seeded_topology(self, small_graph, policy, sampled):
        graph = small_graph
        rng = random.Random(17)
        isps = graph.isp_indices
        early = rng.sample(isps, 3)
        state = DeploymentState.initial(early).with_flips(
            turn_on=[i for i in rng.sample(isps, 10) if i not in early]
        )
        # every 16th destination: most jobs resolve no row at all
        destinations = list(range(0, graph.n, 16)) if sampled else None
        cache = RoutingCache(graph, destinations=destinations, policy=policy)
        deriver = StateDeriver(graph, compiled=cache.compiled)
        jobs = _mixed_jobs(graph, state)
        if get_policy(policy).state_dependent:
            jobs = jobs[:4] + jobs[-4:]  # a fixpoint rebuild per job and engine
        resolved = _assert_stack_equals_one_job_calls(cache, deriver, state, jobs)
        assert resolved > 0
        if sampled and policy == "security_3rd":
            rd = compute_round_data(cache, deriver, state, UtilityModel.OUTGOING)
            stacked = project_flips(cache, deriver, rd, jobs, UtilityModel.OUTGOING)
            assert sum(p.dests_recomputed == 0 for p in stacked) > len(jobs) // 2

    def test_no_jobs(self, small_cache, small_graph):
        deriver = StateDeriver(small_graph, compiled=small_cache.compiled)
        rd = compute_round_data(
            small_cache, deriver, DeploymentState.initial(()), UtilityModel.OUTGOING
        )
        assert project_flips(small_cache, deriver, rd, [], UtilityModel.OUTGOING) == []


class TestParallelProjectFlips:
    def test_projection_values_identical(self, medium_env):
        """``perf/``'s ``parallel_project_flips`` is the stack on every
        field, whatever ``workers`` says."""
        cache, graph = medium_env.cache, medium_env.graph
        deriver = StateDeriver(graph, compiled=cache.compiled)
        isps = [int(i) for i in graph.isp_indices]
        adopters = frozenset(graph.index(a) for a in medium_env.case_study_adopters())
        state = DeploymentState.initial(adopters).with_flips(turn_on=isps[20:30])
        rd = compute_round_data(cache, deriver, state, UtilityModel.INCOMING)
        # an odd number of jobs, turn-offs among them
        jobs = [(i, i not in state.deployers) for i in isps if i not in adopters][:31]
        assert not all(on for _, on in jobs)
        for engine in ProjectionEngine:
            want = project_flips(cache, deriver, rd, jobs, UtilityModel.INCOMING, engine)
            for workers in (1, 2):
                got = parallel_project_flips(
                    cache, deriver, rd, iter(jobs),
                    model=UtilityModel.INCOMING, projection=engine, workers=workers,
                )
                assert [(p.isp, p.turning_on) for p in got] == jobs
                assert [_fields(p) for p in got] == [_fields(p) for p in want]


@pytest.fixture()
def round_of_jobs(small_cache, small_graph):
    """A round of the seeded N=200 topology with a few hundred rows."""
    deriver = StateDeriver(small_graph, compiled=small_cache.compiled)
    isps = small_graph.isp_indices
    state = DeploymentState.initial(isps[:4]).with_flips(turn_on=isps[10:16])
    rd = compute_round_data(small_cache, deriver, state, UtilityModel.INCOMING)
    return deriver, rd, _mixed_jobs(small_graph, state)


def _counted(cache, deriver, rd, jobs) -> tuple[list[tuple], dict[str, int]]:
    with use_registry(MetricsRegistry()) as registry:
        stacked = project_flips(cache, deriver, rd, jobs, UtilityModel.INCOMING)
    counters = registry.snapshot()["counters"]
    assert counters["sim.projection.rows"] == sum(p.dests_recomputed for p in stacked)
    return [_fields(p) for p in stacked], counters


class TestPassSize:
    def test_pass_size_is_invisible(self, small_cache, round_of_jobs, monkeypatch):
        deriver, rd, jobs = round_of_jobs
        n = small_cache.graph.n
        results = {}
        for entries in (n, 1 << 16, 1 << 40):  # a row a pass, the default, one pass
            monkeypatch.setattr(projection, "_PASS_ENTRIES", entries)
            results[entries] = _counted(small_cache, deriver, rd, jobs)
        (one_row, a), (default, b), (unbounded, c) = results.values()
        assert one_row == default == unbounded
        rows = a["sim.projection.rows"]
        assert rows > (1 << 16) // n  # the default needs more than one pass
        assert a["sim.projection.passes"] == rows
        assert b["sim.projection.passes"] == -(-rows // ((1 << 16) // n))
        assert c["sim.projection.passes"] == 1

    def test_a_tiny_memory_budget_shrinks_the_passes(self, small_cache, round_of_jobs):
        deriver, rd, jobs = round_of_jobs
        free, counters = _counted(small_cache, deriver, rd, jobs)
        # an eighth of the budget holds the kernel working set of 3 rows
        # under a state per row
        row_bytes = engine._KERNEL_ROW_BYTES_PER_NODE + engine._STATE_ROW_BYTES_PER_NODE
        guard = RuntimeGuard(
            memory=MemoryBudget(limit_bytes=8 * 3 * row_bytes * small_cache.graph.n)
        )
        with use_guard(guard):
            tight, tight_counters = _counted(small_cache, deriver, rd, jobs)
        assert tight == free
        assert tight_counters["sim.projection.rows"] == counters["sim.projection.rows"]
        assert tight_counters["sim.projection.passes"] == -(-counters["sim.projection.rows"] // 3)
        assert guard.ladder.taken("chunked_batches") == 1


@pytest.fixture()
def shared_stub_graph() -> ASGraph:
    """ISPs 1 and 2 share the multi-homed stub 10, and CP 5 buys transit
    from both: its two routes to 10 tie, so whichever ISP secures the
    stub (and itself) wins the CP's traffic."""
    g = ASGraph(cp_asns=[5])
    for asn in (1, 2, 5, 10, 11, 12):
        g.add_as(asn)
    for provider in (1, 2):
        g.add_customer_provider(provider=provider, customer=10)
        g.add_customer_provider(provider=provider, customer=5)
    g.add_customer_provider(provider=1, customer=11)
    g.add_customer_provider(provider=2, customer=12)
    return g


class TestSharedSlot:
    @pytest.mark.parametrize("model", list(UtilityModel))
    def test_one_slot_twice_under_two_states(self, shared_stub_graph, model, monkeypatch):
        graph = shared_stub_graph
        cache = RoutingCache(graph)
        deriver = StateDeriver(graph, compiled=cache.compiled)
        state = DeploymentState.initial([graph.index(5)])
        rd = compute_round_data(cache, deriver, state, model)
        isp1, isp2, stub = graph.index(1), graph.index(2), graph.index(10)
        jobs = [(isp1, True), (isp2, True)]

        batches = []

        def spy(arena, slots, node_secure, breaks_ties, **kwargs):
            batches.append((np.array(slots), np.array(node_secure)))
            return compute_trees_batched(arena, slots, node_secure, breaks_ties, **kwargs)

        monkeypatch.setattr(projection, "compute_trees_batched", spy)
        stacked = project_flips(cache, deriver, rd, jobs, model)
        (slots, states), = batches
        at_stub = np.flatnonzero(slots == cache.dest_pos(stub))
        assert len(at_stub) == 2  # once per ISP ...
        first, second = states[at_stub]
        assert first[isp1] and not first[isp2] and second[isp2] and not second[isp1]
        assert first[stub] and second[stub]  # ... each with the stub secured its way

        alone = [project_flip(cache, deriver, rd, isp, on, model) for isp, on in jobs]
        assert [_fields(p) for p in stacked] == [_fields(p) for p in alone]
        assert all(stub in p.flips for p in stacked)
        # the CP's traffic to the stub follows whoever deploys: both gain
        # over the round unless the tie already went their way
        gains = [p.utility - float(rd.utilities[p.isp]) for p in stacked]
        assert all(g >= 0 for g in gains) and any(g > 0 for g in gains)


def _loadable(name: str) -> bool:
    try:
        kernel_backends.load_backend(name)
    except BackendUnavailable:
        return False
    return True


class TestPerRowStateOnEveryTier:
    """Part (d); also collected by the blocking ``backend-matrix`` CI job."""

    @pytest.mark.parametrize("backend", ["numpy", "cext"])
    @pytest.mark.parametrize("policy", ["security_3rd", "sp_first"])
    def test_a_state_per_row_equals_one_row_calls(self, small_graph, backend, policy):
        if not _loadable(backend):
            pytest.skip(f"{backend} backend not loadable here")
        n = small_graph.n
        dests = list(range(0, n, 9))
        pools = get_policy(policy).build_pools(small_graph, dests)
        arena = RoutingArena.build(n, [pools], policy=policy, backend=backend)
        truth = RoutingArena.build(n, [pools], policy=policy, backend="numpy")
        rng = np.random.default_rng(5)
        depth = np.diff(arena.level_ptr)
        shallow, deep = int(np.argmin(depth)), int(np.argmax(depth))
        assert depth[shallow] < depth[deep]   # no rows at the deepest levels
        batches = {
            "unsorted, repeated": rng.integers(0, len(dests), size=40),
            "full": arena.all_slots(),
            "one row": np.array([deep]),
            "a slot without deep rows": np.array([shallow, deep, shallow]),
        }
        for label, slots in batches.items():
            # every row under its own state
            secure = rng.random((len(slots), n)) < 0.5
            breaks = rng.random((len(slots), n)) < 0.7
            batch = compute_trees_batched(arena, slots, secure, breaks)
            ref = compute_trees_batched(truth, slots, secure, breaks)
            for name in ("choice", "secure", "any_secure"):
                assert getattr(batch, name).tobytes() == getattr(ref, name).tobytes(), label
            weights = subtree_weights_batched(arena, slots, batch.choice, small_graph.weights)
            ref_weights = subtree_weights_batched(truth, slots, ref.choice, small_graph.weights)
            assert weights.tobytes() == ref_weights.tobytes(), label
            for i, slot in enumerate(slots):
                row = compute_trees_batched(arena, [slot], secure[i], breaks[i])
                for name in ("choice", "secure", "any_secure"):
                    assert getattr(batch, name)[i].tobytes() == getattr(row, name)[0].tobytes()
        # mixed shapes: one state for all rows, a tie-break mask per row
        slots = batches["unsorted, repeated"]
        secure = rng.random(n) < 0.5
        breaks = rng.random((len(slots), n)) < 0.7
        shared = compute_trees_batched(arena, slots, secure, breaks)
        tiled = compute_trees_batched(arena, slots, np.tile(secure, (len(slots), 1)), breaks)
        assert shared.choice.tobytes() == tiled.choice.tobytes()
        assert shared.secure.tobytes() == tiled.secure.tobytes()

    def test_a_mask_of_the_wrong_shape_is_refused(self, small_cache):
        arena = small_cache.ensure_arena()
        n = arena.graph_n
        with pytest.raises(ValueError, match="per-row mask"):
            compute_trees_batched(
                arena, [0, 1, 2], np.zeros((2, n), dtype=bool), np.zeros(n, dtype=bool)
            )
