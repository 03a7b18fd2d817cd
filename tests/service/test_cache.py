"""ResultCache: digest-keyed hits, LRU byte-budget eviction, telemetry."""

from __future__ import annotations

import threading

import pytest

from repro import telemetry
from repro.experiments.sweeps import SweepCell
from repro.service.cache import _CELL_BYTES, CellView, ResultCache
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
        cache.put_arena("env-a", _FakeArena(nbytes=600))
        cache.put_arena("env-b", _FakeArena(nbytes=600))
        assert cache.get_arena("env-a") is None      # evicted by env-b
        assert cache.get_arena("env-b") is not None
        assert cache.stats().bytes_used <= 1000

    def test_single_oversized_entry_is_kept(self):
        # eviction never empties the cache entirely: one entry larger
        # than the whole budget still caches (it is strictly better
        # than recomputing it every request)
        cache = ResultCache(budget_bytes=100)
        cache.put_arena("env", _FakeArena(nbytes=10_000))
        assert cache.get_arena("env") is not None


class TestArenas:
    def test_state_dependent_arena_refused(self):
        cache = ResultCache()
        with pytest.raises(ValueError, match="state-dependent"):
            cache.put_arena("env", _FakeArena(nbytes=10, state_key="abc123"))

    def test_arena_hit_miss_accounting(self):
        cache = ResultCache()
        assert cache.get_arena("env") is None
        cache.put_arena("env", _FakeArena(nbytes=10))
        assert cache.get_arena("env") is not None
        stats = cache.stats()
        assert (stats.arena_hits, stats.arena_misses) == (1, 1)


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
    """A job's environment warms through ``build_environment`` and
    shares its arena through the result cache."""

    SPEC = {"kind": "case-study", "n": 60, "seed": 11}

    def test_the_first_job_publishes_its_arena_and_the_next_installs_it(self):
        from repro.service.executor import _build_env

        cache = ResultCache()
        first = _build_env(parse_spec(self.SPEC), cache)
        assert first.cache.arena is not None
        second = _build_env(parse_spec(self.SPEC), cache)
        assert second.cache.arena is first.cache.arena
        stats = cache.stats()
        assert (stats.arena_hits, stats.arena_misses) == (1, 1)

    def test_a_budget_below_the_arena_defers_the_warm_and_shares_nothing(self):
        from repro.runtime.guard import MemoryBudget, RuntimeGuard, use_guard
        from repro.service.executor import _build_env

        cache = ResultCache()
        guard = RuntimeGuard(memory=MemoryBudget(1024))
        with use_guard(guard):
            env = _build_env(parse_spec(self.SPEC), cache)
        assert guard.ladder.taken("lazy_warm") == 1
        assert env.cache.arena is None
        assert env.cache.pending_runs() == [(0, 60)]  # nothing built eagerly
        assert cache.get_arena(env_digest(parse_spec(self.SPEC))) is None

    def test_a_state_dependent_policy_shares_nothing(self):
        from repro.service.executor import _build_env

        cache = ResultCache()
        env = _build_env(parse_spec({**self.SPEC, "policy": "security_2nd"}), cache)
        assert env.cache.arena is None
        stats = cache.stats()
        assert (stats.arena_hits, stats.arena_misses) == (0, 0)
