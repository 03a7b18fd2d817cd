"""Chaos suite: combined faults, deadlines, and the degradation ladder.

The acceptance tests for the runtime guard as a whole:

- a sweep whose cache was warmed under combined kill + hang + slow
  faults, then cut off by a deadline mid-grid, must journal-resume to a
  grid bit-identical to an unfaulted run;
- a run given an artificially small memory budget plus an injected
  shared-memory failure must complete by walking the ladder — pickled
  pools, chunked batches, reduced workers — with every rung visible
  as ``runtime.guard.degraded`` counters and unchanged results;
- preflight repair must be a no-op on clean dumps (hypothesis
  round-trip properties: ``repair(dump(g)) == g``).
"""

from __future__ import annotations

import multiprocessing

import pytest
from hypothesis import given, settings

from repro.experiments.setup import build_environment
from repro.experiments.sweeps import run_sweep
from repro.parallel.engine import (
    ProcessEngine,
    _PartitionBuilder,
    parallel_warm_cache,
)
from repro.parallel.shm import consume_published_arena, ensure_tracker_running
from repro.routing import backends as kernel_backends
from repro.routing.arena import RoutingArena
from repro.routing.errors import BackendUnavailable
from repro.runtime.errors import DeadlineExceeded
from repro.runtime.faults import FaultInjector
from repro.runtime.guard import Deadline, MemoryBudget, RuntimeGuard, use_guard
from repro.runtime.journal import RunJournal
from repro.runtime.retry import RetryPolicy
from repro.telemetry.metrics import MetricsRegistry, use_registry
from repro.topology.graph import ASGraph
from repro.topology.preflight import preflight_as_rel_text
from repro.topology.serialization import dumps_as_rel

from tests.strategies import as_graphs

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="chaos tests target the fork start method",
)

THETAS = (0.0, 0.05)
FAST_RETRY = RetryPolicy(max_attempts=5, backoff_base=0.01, backoff_max=0.05)
ITEMS = list(range(40))


def square(x: int) -> int:
    return x * x


def adopter_sets(env):
    sets = env.adopter_sets()
    return {"none": [], "top-5": sets["top-5"]}


@pytest.fixture(scope="module")
def clean_env():
    return build_environment(n=120, seed=11, x=0.10, warm=True)


@pytest.fixture(scope="module")
def clean_cells(clean_env):
    """The unfaulted, unguarded grid every chaos run must reproduce."""
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


def _warm_under_faults(cache, state_root) -> ProcessEngine:
    """Warm every chunk through an engine injecting kill+hang+slow.

    The injectors chain around the parallel warm's own builder, so the
    engine is mapping real structure builds; results land via the
    cache's public ``install_pools`` API.
    """
    rows = cache.rows_per_chunk
    runs = [
        (at, min(at + rows, stop))
        for start, stop in cache.pending_runs() for at in range(start, stop, rows)
    ]
    assert len(runs) >= 12
    for sub in ("hang", "kill"):
        (state_root / sub).mkdir(exist_ok=True)
    slow = FaultInjector(
        {runs[1], runs[7]}, mode="slow", slow_seconds=0.05, fn=_PartitionBuilder(cache)
    )
    hung = FaultInjector(
        {runs[4]}, mode="hang", fail_times=1, state_dir=state_root / "hang",
        hang_seconds=60.0, fn=slow,
    )
    chaos = FaultInjector(
        {runs[10]}, mode="kill", fail_times=1, state_dir=state_root / "kill", fn=hung,
    )
    engine = ProcessEngine(workers=2, retry=FAST_RETRY, partition_timeout=0.5)
    ensure_tracker_running()  # before the first fork, as the warm itself does
    for (start, _), handle in zip(runs, engine.map(chaos, runs)):
        cache.install_pools(start, consume_published_arena(handle))
    assert not cache.pending_runs()
    return engine


@fork_only
class TestDeadlineResumeUnderFaults:
    def test_faulted_sweep_resumes_bit_identically(
        self, clean_cells, tmp_path, small_chunks
    ):
        """Acceptance: kill+hang+slow warm, deadline mid-grid, resume."""
        env = build_environment(n=120, seed=11, x=0.10, warm=False)
        engine = _warm_under_faults(env.cache, tmp_path)
        assert engine.last_stats.worker_deaths >= 1  # the kill fired
        assert engine.last_stats.timeouts >= 1       # the hang was reaped
        env.cache.ensure_arena()

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
        assert resumed == clean_cells  # bit-identical to the unfaulted run
        assert path.read_text().startswith(before)  # replayed, not redone


@fork_only
class TestDegradationLadderEndToEnd:
    def test_small_budget_and_shm_failure_walk_the_ladder(
        self, clean_cells, monkeypatch, small_chunks
    ):
        """Acceptance: pickled pools + chunked batches + reduced
        workers, each rung a visible counter, results unchanged."""
        import repro.parallel.shm as shm

        # workers resolve publish_arena at call time, after the fork,
        # so patching the module attribute reaches every child
        monkeypatch.setattr(shm, "publish_arena", lambda arena: None)

        env = build_environment(n=120, seed=11, x=0.10, warm=False)
        num_dests = len(env.cache.destinations)
        total = RoutingArena.estimate_bytes(
            num_dests, env.graph.n, backend=env.cache.backend_name
        )
        per_dest = max(1, total // num_dests)
        # the planner's own forecast (on the cache's tier), with room for
        # the arena plus ~5 in-flight warm partitions: 8
        # workers must halve to 4 (reduced_workers) but not to serial,
        # and the full round kernel batch must overflow the kernel share
        guard = RuntimeGuard(memory=MemoryBudget(total + 20 * per_dest))

        with use_registry(MetricsRegistry()) as registry, use_guard(guard):
            parallel_warm_cache(env.cache, workers=8)
            assert not env.cache.pending_runs()  # warm completed
            assert env.cache.stats().installs == num_dests
            env.cache.ensure_arena()
            cells = run_sweep(env, thetas=THETAS, adopter_sets=adopter_sets(env))

        counters = registry.snapshot()["counters"]
        assert counters["runtime.guard.degraded.shm_to_pickle"] >= 1
        assert counters["runtime.guard.degraded.reduced_workers"] >= 1
        assert counters["runtime.guard.degraded.chunked_batches"] >= 1
        assert counters["runtime.guard.degraded"] >= 3
        assert guard.ladder.taken("serial_workers") == 0  # stayed parallel
        assert cells == clean_cells  # every rung taken, results unchanged

    def test_tiny_budget_defers_the_warm_entirely(self):
        """The last rung: a budget below the arena estimate skips the
        eager warm and leaves trees to build lazily per destination."""
        guard = RuntimeGuard(memory=MemoryBudget(1024))
        with use_guard(guard):
            env = build_environment(n=60, seed=11, x=0.10, warm=True)
        assert guard.ladder.taken("lazy_warm") == 1
        assert env.cache.pending_runs() == [(0, 60)]  # nothing built eagerly


@fork_only
class TestNewFaultModes:
    def test_slow_mode_delays_but_completes(self):
        injector = FaultInjector({2}, mode="slow", slow_seconds=0.01, fn=square)
        assert injector(2) == 4

    def test_oom_mode_retried_to_success(self, tmp_path):
        injector = FaultInjector(
            {5}, mode="oom", fail_times=1, state_dir=tmp_path,
            oom_bytes=2**20, fn=square,
        )
        engine = ProcessEngine(workers=2, retry=FAST_RETRY)
        assert engine.map(injector, ITEMS) == [x * x for x in ITEMS]
        assert engine.last_stats.worker_errors >= 1


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

    A full 36,964 x 36,964 arena forecasts in the hundreds of GiB —
    these tests assert the forecast says so *without allocating*, that a
    budgeted run defers the warm on the forecast alone, and that the
    forecast stays an over-estimate of real packed arenas (the property
    the 36K plan depends on, checked at a size the suite can afford).
    """

    N_PAPER = 36964  # the Cyclops Dec-9-2010 snapshot's AS count

    def test_full_grid_forecast_is_hundreds_of_gib(self):
        total = RoutingArena.estimate_bytes(self.N_PAPER, self.N_PAPER)
        assert total > 100 * 2**30  # dense alone is 9 * 36964^2 ~ 11 GiB
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
        """estimate_bytes >= packed bytes on a 36K-shaped (sampled-dest)
        arena — shrunk to n=600 so the suite can afford to build it."""
        env = build_environment(n=600, seed=11, x=0.10, warm=True,
                                sample_destinations=48)
        arena = env.cache.ensure_arena()
        actual, _ = arena.to_blocks()
        estimate = RoutingArena.estimate_bytes(arena.num_dests, env.graph.n)
        assert estimate >= actual
        assert estimate < 60 * actual  # an over-estimate, not a fantasy

    @pytest.mark.parametrize("backend", ["numpy", "cext"])
    @pytest.mark.parametrize("n, sample", [(600, 48), (300, None)])
    def test_forecast_bounds_the_level_major_mirror(self, n, sample, backend):
        """The forecast covers what is resident during a round on the
        arena's tier: the pools, plus, on numpy, the level-major mirror
        that tier builds from them (``to_blocks`` above leaves it out).
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
                "indptr_pool", "cand_ptr", "cands_pool", "keys_pool",
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
        repaired, report = preflight_as_rel_text(dumps_as_rel(graph), mode="repair")
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
        repaired, report = preflight_as_rel_text(doubled, mode="repair")
        assert canonical(repaired) == canonical(graph)
        dup_issues = [i for i in report.issues if i.code == "duplicate_edge"]
        assert len(dup_issues) == len(edge_lines)
