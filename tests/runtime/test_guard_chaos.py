"""Chaos suite: deadlines, memory budgets, and the degradation ladder.

The acceptance tests for the runtime guard as a whole:

- a sweep cut off by a deadline mid-grid must journal-resume to a grid
  bit-identical to an uninterrupted run;
- a run given an artificially small memory budget must complete by
  chunking its kernel batches — the rung visible as a
  ``runtime.guard.degraded`` counter — with unchanged results;
- preflight repair must be a no-op on clean dumps (hypothesis
  round-trip properties: ``repair(dump(g)) == g``).
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings

from repro.experiments.setup import build_environment
from repro.experiments.sweeps import run_sweep
from repro.routing import backends as kernel_backends
from repro.routing.arena import RoutingArena
from repro.routing.errors import BackendUnavailable
from repro.runtime.errors import DeadlineExceeded
from repro.runtime.guard import Deadline, MemoryBudget, RuntimeGuard, use_guard
from repro.runtime.journal import RunJournal
from repro.telemetry.metrics import MetricsRegistry, use_registry
from repro.topology.graph import ASGraph
from repro.topology.preflight import preflight_as_rel
from repro.topology.serialization import dumps_as_rel

from tests.strategies import as_graphs

THETAS = (0.0, 0.05)


def adopter_sets(env):
    sets = env.adopter_sets()
    return {"none": [], "top-5": sets["top-5"]}


@pytest.fixture(scope="module")
def clean_env():
    return build_environment(n=120, seed=11, x=0.10, warm=True)


@pytest.fixture(scope="module")
def clean_cells(clean_env):
    """The unguarded grid every interrupted run must reproduce."""
    return run_sweep(clean_env, thetas=THETAS, adopter_sets=adopter_sets(clean_env))


class _ClockAdvancingJournal(RunJournal):
    """Burns the whole deadline budget after N durable appends."""

    def __init__(self, path, clock: dict, advance_after: int):
        super().__init__(path)
        self.clock = clock
        self.advance_after = advance_after

    def append(self, record):
        super().append(record)
        self.advance_after -= 1
        if self.advance_after == 0:
            self.clock["now"] += 10_000.0


class TestDeadlineResumeUnderFaults:
    def test_faulted_sweep_resumes_bit_identically(self, clean_cells, tmp_path):
        """Acceptance: a deadline expires mid-grid, then the journal
        resumes it."""
        env = build_environment(n=120, seed=11, x=0.10, warm=False)
        env.cache.warm()
        assert not env.cache.pending_runs()

        clock = {"now": 0.0}
        guard = RuntimeGuard(deadline=Deadline(60.0, clock=lambda: clock["now"]))
        path = tmp_path / "sweep.jsonl"
        journal = _ClockAdvancingJournal(path, clock, advance_after=2)
        with use_guard(guard), pytest.raises(DeadlineExceeded) as info:
            run_sweep(
                env, thetas=THETAS, adopter_sets=adopter_sets(env),
                journal=journal,
            )
        assert "sweep cell" in info.value.where
        assert "--resume" in str(info.value)
        # both cells finished before expiry survived in the journal
        assert len(RunJournal(path)) == 2

        before = path.read_text()
        resumed = run_sweep(
            env, thetas=THETAS, adopter_sets=adopter_sets(env),
            journal=RunJournal(path),
        )
        assert resumed == clean_cells  # bit-identical to the uninterrupted run
        assert path.read_text().startswith(before)  # replayed, not redone


class TestDegradationLadderEndToEnd:
    def test_small_budget_only_chunks_kernels(self, clean_cells):
        """Acceptance: a budget that fits the arena but not a full round
        batch chunks the kernels — one visible rung — with results
        unchanged."""
        env = build_environment(n=120, seed=11, x=0.10, warm=False)
        num_dests = len(env.cache.destinations)
        total = RoutingArena.estimate_bytes(
            num_dests, env.graph.n, backend=env.cache.backend_name
        )
        # the setup path's own forecast (on the cache's tier) fits, and
        # the full round kernel batch overflows the kernel share
        guard = RuntimeGuard(memory=MemoryBudget(total + 20 * (total // num_dests)))

        with use_registry(MetricsRegistry()) as registry, use_guard(guard):
            env.cache.warm()
            stats = env.cache.stats()
            assert (stats.builds, stats.installs) == (num_dests, 0)
            env.cache.ensure_arena()
            cells = run_sweep(env, thetas=THETAS, adopter_sets=adopter_sets(env))

        counters = registry.snapshot()["counters"]
        assert counters["runtime.guard.degraded.chunked_batches"] >= 1
        assert guard.ladder.rungs_taken().keys() == {"chunked_batches"}
        assert cells == clean_cells  # the rung taken, results unchanged

    def test_tiny_budget_defers_the_warm_entirely(self):
        """The last rung: a budget below the arena estimate skips the
        eager warm and defers it to the first use."""
        guard = RuntimeGuard(memory=MemoryBudget(1024))
        with use_guard(guard):
            env = build_environment(n=60, seed=11, x=0.10, warm=True)
        assert guard.ladder.taken("lazy_warm") == 1
        assert env.cache.pending_runs() == [(0, 60)]  # nothing built eagerly


def canonical(graph: ASGraph) -> tuple:
    """Structure-equality key over what the as-rel format can represent.

    The format carries ASes only through edges and ``# cp:`` markers, so
    isolated non-CP nodes are excluded from the comparison — they cannot
    survive any dump/load cycle, repaired or not.
    """
    edges = sorted((a, b, rel.value) for a, b, rel in graph.edges())
    mentioned = {a for a, b, _ in edges} | {b for _, b, _ in edges} | graph.cp_asns
    return (
        sorted(asn for asn in graph.asns if asn in mentioned),
        sorted(graph.cp_asns),
        edges,
    )


class TestPaperScaleForecast:
    """36K-shaped synthetics: the guard must plan, not discover, OOM.

    A full 36,964 x 36,964 arena forecasts at ~94 GiB on numpy, the
    pools alone at ~25 GiB — these tests assert the forecast says so
    *without allocating*, that a
    budgeted run defers the warm on the forecast alone, and that the
    forecast stays an over-estimate of real packed arenas (the property
    the 36K plan depends on, checked at a size the suite can afford).
    """

    N_PAPER = 36964  # the Cyclops Dec-9-2010 snapshot's AS count

    def test_full_grid_forecast_is_hundreds_of_gib(self):
        total = RoutingArena.estimate_bytes(self.N_PAPER, self.N_PAPER)
        cells = self.N_PAPER ** 2
        # the pools alone, field by field: cls + lengths (int8) and
        # row_of (int32) per cell, order_pool + indptr_pool (int32) per
        # reachable node, cands_pool (int32) per candidate at 1.5 a
        # node — 20 bytes a cell, ~25 GiB, three times the 8 GiB budget
        # the next test plans against
        pools_only = RoutingArena.estimate_bytes(self.N_PAPER, self.N_PAPER, backend="cext")
        assert pools_only > 20 * cells > 3 * 8 * 2**30
        # numpy's mirror adds 42 more at that split: the weights stack
        # (12 a row), half the rows with one candidate (20 each), half
        # with two (16 a row, 12 a candidate) — ~78 GiB in all
        assert total > (20 + 42) * cells > 9 * 8 * 2**30
        # sampling destinations is what makes paper scale feasible:
        sampled = RoutingArena.estimate_bytes(256, self.N_PAPER)
        assert sampled < 2 * 2**30

    def test_budgeted_36k_plan_defers_warm_without_allocating(self):
        from repro.runtime.guard import current_guard

        guard = RuntimeGuard(memory=MemoryBudget("8GiB"))
        estimate = RoutingArena.estimate_bytes(self.N_PAPER, self.N_PAPER)
        with use_guard(guard):
            assert not current_guard().fits_memory(estimate)
            # the setup path's exact decision, minus the (unaffordable)
            # topology generation: over budget -> lazy_warm rung
            current_guard().degrade("lazy_warm", "test: 36K arena over budget")
        assert guard.ladder.taken("lazy_warm") == 1

    def test_compiled_to_numpy_is_a_registered_rung(self):
        guard = RuntimeGuard()
        guard.degrade("compiled_to_numpy", "test: backend missing")
        assert guard.ladder.taken("compiled_to_numpy") == 1

    def test_forecast_bounds_real_arenas_with_sampled_dests(self):
        """estimate_bytes >= pooled bytes on a 36K-shaped (sampled-dest)
        arena — shrunk to n=600 so the suite can afford to build it."""
        env = build_environment(n=600, seed=11, x=0.10, warm=True,
                                sample_destinations=48)
        arena = env.cache.ensure_arena()
        actual = arena.nbytes
        estimate = RoutingArena.estimate_bytes(arena.num_dests, env.graph.n)
        assert estimate >= actual
        assert estimate < 60 * actual  # an over-estimate, not a fantasy

    @pytest.mark.parametrize("backend", ["numpy", "cext"])
    @pytest.mark.parametrize("n, sample", [(600, 48), (300, None)])
    def test_forecast_bounds_the_level_major_mirror(self, n, sample, backend):
        """The forecast covers what is resident during a round on the
        arena's tier: the pools, plus, on numpy, the level-major mirror
        that tier builds from them (``nbytes`` above leaves it out).
        The compiled tiers read the pools in place and build none."""
        try:
            kernel_backends.load_backend(backend)
        except BackendUnavailable:
            pytest.skip(f"{backend} backend not loadable here")
        env = build_environment(n=n, seed=11, x=0.10, warm=True,
                                sample_destinations=sample, backend=backend)
        arena = env.cache.ensure_arena()
        resident = arena.nbytes
        if backend == "numpy":
            pools = [getattr(arena, name) for name in (
                "order_ptr", "order_pool", "level_ptr", "level_pool", "indptr_ptr",
                "indptr_pool", "cand_ptr", "cands_pool",
            )]
            mirror = kernel_backends.load_backend("numpy").build_level_major(
                arena.graph_n, *pools
            )
            assert mirror > 0
            resident += mirror
        estimate = RoutingArena.estimate_bytes(
            arena.num_dests, env.graph.n, backend=env.cache.backend_name
        )
        assert resident <= estimate < 10 * resident
        pools_only = RoutingArena.estimate_bytes(arena.num_dests, env.graph.n, backend="cext")
        assert arena.nbytes <= pools_only < RoutingArena.estimate_bytes(
            arena.num_dests, env.graph.n, backend="numpy"
        )


class TestRoundTripProperties:
    @settings(max_examples=40, deadline=None)
    @given(as_graphs(with_cps=True))
    def test_repair_of_clean_dump_is_identity(self, graph):
        """repair(dump(g)) == g: preflight never mangles a clean graph."""
        repaired, report = preflight_as_rel(io.StringIO(dumps_as_rel(graph)), mode="repair")
        assert report.dropped_edges == 0
        assert not [i for i in report.issues if i.code != "disconnected"]
        assert canonical(repaired) == canonical(graph)

    @settings(max_examples=40, deadline=None)
    @given(as_graphs(with_cps=True))
    def test_repair_is_idempotent_on_duplicated_input(self, graph):
        """Feeding every edge twice repairs back to the same graph."""
        text = dumps_as_rel(graph)
        edge_lines = [
            line for line in text.splitlines() if line and not line.startswith("#")
        ]
        doubled = text + "\n".join(edge_lines) + "\n"
        repaired, report = preflight_as_rel(io.StringIO(doubled), mode="repair")
        assert canonical(repaired) == canonical(graph)
        dup_issues = [i for i in report.issues if i.code == "duplicate_edge"]
        assert len(dup_issues) == len(edge_lines)
