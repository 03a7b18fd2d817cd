"""ResultCache: digest-keyed hits, LRU byte-budget eviction, telemetry."""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import pytest

from repro import telemetry
from repro.experiments.sweeps import SweepCell
from repro.service.cache import _CELL_BYTES, CellView, KeptEnv, ResultCache
from repro.service.specs import env_digest, parse_spec
from repro.telemetry.metrics import set_registry


def make_cell(adopters: str = "top-5", theta: float = 0.05) -> SweepCell:
    return SweepCell(
        adopters=adopters, theta=theta, stub_breaks_ties=True,
        fraction_secure_ases=0.5, fraction_secure_isps=0.4,
        fraction_isps_by_market=0.3, fraction_secure_paths=0.6,
        f_squared=0.25, num_rounds=7, outcome="terminated",
    )


class _FakeArena:
    """Just enough surface for the cache's accounting (nbytes, state_key)."""

    def __init__(self, nbytes: int, state_key: str | None = None):
        self.nbytes = nbytes
        self.state_key = state_key


def fake_env(nbytes: int, state_key: str | None = None) -> SimpleNamespace:
    """An environment as far as :class:`KeptEnv` looks at one."""
    return SimpleNamespace(cache=SimpleNamespace(arena=_FakeArena(nbytes, state_key)))


def keep(cache: ResultCache, digest: str, nbytes: int, backend: str | None = None) -> None:
    """One job on ``digest`` that keeps a fake environment of ``nbytes``."""
    with cache.environment(digest, backend) as kept:
        if kept.env is None:
            kept.keep(fake_env(nbytes))


def kept_env(cache: ResultCache, digest: str, backend: str | None = None):
    """The environment a job on ``digest`` would find (None: it builds one)."""
    with cache.environment(digest, backend) as kept:
        return kept.env


class TestCells:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.get_cell("scope", "top-5", 0.05) is None
        cell = make_cell()
        cache.put_cell("scope", "top-5", 0.05, cell)
        assert cache.get_cell("scope", "top-5", 0.05) is cell
        stats = cache.stats()
        assert (stats.cell_hits, stats.cell_misses) == (1, 1)

    def test_scope_isolates_otherwise_equal_keys(self):
        cache = ResultCache()
        cache.put_cell("scope-a", "top-5", 0.05, make_cell())
        assert cache.get_cell("scope-b", "top-5", 0.05) is None

    def test_cell_view_binds_a_scope(self):
        cache = ResultCache()
        view = cache.cell_view("scope-a")
        assert isinstance(view, CellView)
        cell = make_cell()
        view.put("none", 0.0, cell)
        assert view.get("none", 0.0) is cell
        assert cache.cell_view("scope-b").get("none", 0.0) is None


class TestEviction:
    def test_lru_eviction_under_byte_budget(self):
        cache = ResultCache(budget_bytes=2 * _CELL_BYTES)
        for i, theta in enumerate((0.0, 0.1, 0.2)):
            cache.put_cell("s", "none", theta, make_cell("none", theta))
        # the oldest entry fell out; the two newest survive
        assert cache.get_cell("s", "none", 0.0) is None
        assert cache.get_cell("s", "none", 0.1) is not None
        assert cache.get_cell("s", "none", 0.2) is not None
        assert cache.stats().evictions == 1
        assert cache.stats().bytes_used <= cache.budget_bytes

    def test_access_refreshes_lru_order(self):
        cache = ResultCache(budget_bytes=2 * _CELL_BYTES)
        cache.put_cell("s", "none", 0.0, make_cell("none", 0.0))
        cache.put_cell("s", "none", 0.1, make_cell("none", 0.1))
        cache.get_cell("s", "none", 0.0)           # refresh the older entry
        cache.put_cell("s", "none", 0.2, make_cell("none", 0.2))
        assert cache.get_cell("s", "none", 0.0) is not None  # survived
        assert cache.get_cell("s", "none", 0.1) is None       # evicted

    def test_arena_eviction_charges_real_bytes(self):
        cache = ResultCache(budget_bytes=1000)
        keep(cache, "env-a", 600)
        keep(cache, "env-b", 600)
        assert kept_env(cache, "env-a") is None      # evicted by env-b
        assert kept_env(cache, "env-b") is not None
        assert cache.stats().bytes_used <= 1000

    def test_single_oversized_entry_is_kept(self):
        # eviction never empties the cache entirely: one entry larger
        # than the whole budget still caches (it is strictly better
        # than recomputing it every request)
        cache = ResultCache(budget_bytes=100)
        keep(cache, "env", 10_000)
        assert kept_env(cache, "env") is not None


class TestArenas:
    def test_state_dependent_arena_refused(self):
        with pytest.raises(ValueError, match="state-dependent"):
            KeptEnv().keep(fake_env(10, state_key="abc123"))

    def test_an_unwarmed_environment_is_refused(self):
        with pytest.raises(ValueError, match="not warmed"):
            KeptEnv().keep(SimpleNamespace(cache=SimpleNamespace(arena=None)))

    def test_arena_hit_miss_accounting(self):
        cache = ResultCache()
        keep(cache, "env", 10)
        assert kept_env(cache, "env") is not None
        stats = cache.stats()
        assert (stats.arena_hits, stats.arena_misses) == (1, 1)

    def test_the_kernel_backend_is_part_of_the_key(self):
        cache = ResultCache()
        keep(cache, "env", 10, backend="numpy")
        assert kept_env(cache, "env", backend="cext") is None
        assert kept_env(cache, "env", backend=None) is None
        assert kept_env(cache, "env", backend="numpy") is not None

    def test_jobs_on_one_environment_take_turns(self):
        cache = ResultCache()
        keep(cache, "env", 10)
        spans: list[tuple[float, float]] = []

        def job() -> None:
            with cache.environment("env", None):
                start = time.monotonic()
                time.sleep(0.05)
                spans.append((start, time.monotonic()))

        threads = [threading.Thread(target=job) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        spans.sort()
        assert len(spans) == 3
        assert all(a_end <= b_start for (_, a_end), (b_start, _) in zip(spans, spans[1:]))

    def test_other_environments_run_meanwhile(self):
        cache = ResultCache()
        keep(cache, "env-a", 10)
        keep(cache, "env-b", 10)
        with cache.environment("env-a", None):
            got: list[object] = []
            other = threading.Thread(target=lambda: got.append(kept_env(cache, "env-b")))
            other.start()
            other.join(timeout=30)
            assert got and got[0] is not None


class TestTelemetryAndConcurrency:
    def test_counters_land_in_the_live_registry(self):
        registry, _ = telemetry.enable()
        try:
            cache = ResultCache()
            cache.get_cell("s", "none", 0.0)
            cache.put_cell("s", "none", 0.0, make_cell("none", 0.0))
            cache.get_cell("s", "none", 0.0)
            counters = registry.snapshot()["counters"]
            assert counters["service.cache.cell_misses"] == 1
            assert counters["service.cache.cell_hits"] == 1
        finally:
            set_registry(None)

    def test_concurrent_mixed_access_stays_consistent(self):
        cache = ResultCache(budget_bytes=64 * _CELL_BYTES)
        errors: list[BaseException] = []

        def hammer(worker: int) -> None:
            try:
                for i in range(200):
                    theta = (i % 10) / 10
                    view = cache.cell_view(f"scope-{worker % 2}")
                    got = view.get("none", theta)
                    if got is None:
                        view.put("none", theta, make_cell("none", theta))
                    else:
                        assert got.theta == theta
            except BaseException as exc:  # surfaced below, not swallowed
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        stats = cache.stats()
        assert stats.cell_hits + stats.cell_misses == 4 * 200
        assert stats.bytes_used <= cache.budget_bytes


class TestJobEnvironments:
    """A job's environment warms through ``build_environment`` and is
    kept, with its state memos, for the next job on its digest."""

    SPEC = {"kind": "case-study", "n": 60, "seed": 11}

    def test_the_first_job_publishes_its_arena_and_the_next_installs_it(self):
        from repro.service.executor import _build_env

        cache = ResultCache()
        with _build_env(parse_spec(self.SPEC), cache) as (first, kept):
            assert kept is not None and kept.env is first
            assert first.cache.arena is not None
        with _build_env(parse_spec(self.SPEC), cache) as (second, _):
            assert second is first
        stats = cache.stats()
        assert (stats.arena_hits, stats.arena_misses) == (1, 1)

    def test_a_budget_below_the_arena_defers_the_warm_and_shares_nothing(self):
        from repro.runtime.guard import MemoryBudget, RuntimeGuard, use_guard
        from repro.service.executor import _build_env

        cache = ResultCache()
        guard = RuntimeGuard(memory=MemoryBudget(1024))
        with use_guard(guard), _build_env(parse_spec(self.SPEC), cache) as (env, kept):
            assert kept is None
        assert guard.ladder.taken("lazy_warm") == 1
        assert env.cache.arena is None
        assert env.cache.pending_runs() == [(0, 60)]  # nothing built eagerly
        assert kept_env(cache, env_digest(parse_spec(self.SPEC))) is None

    def test_a_state_dependent_policy_shares_nothing(self):
        from repro.service.executor import _build_env

        cache = ResultCache()
        spec = parse_spec({**self.SPEC, "policy": "security_2nd"})
        with _build_env(spec, cache) as (env, kept):
            assert kept is None
        assert env.cache.arena is None
        stats = cache.stats()
        assert (stats.arena_hits, stats.arena_misses, stats.entries) == (0, 0, 0)

    def test_a_kept_environment_is_charged_for_its_evaluations_and_not_its_rounds(self):
        from repro.experiments.case_study import run_case_study
        from repro.service.executor import _build_env

        cache = ResultCache()
        with _build_env(parse_spec(self.SPEC), cache) as (env, kept):
            memo = kept.memo(True)
            run_case_study(env, memo=memo)
            assert memo.buffers.weights is not None  # the game's round matrices
        assert memo and memo.nbytes > 0
        assert memo.buffers.weights is None  # released when the job left
        assert cache.stats().bytes_used == env.cache.arena.nbytes + memo.nbytes
