"""Unit tests for the runtime guard: deadlines, budgets, the ladder."""

from __future__ import annotations

import pytest

from repro.routing.arena import RoutingArena
from repro.runtime.errors import DeadlineExceeded, MemoryBudgetExceeded
from repro.runtime.guard import (
    LADDER_RUNGS,
    NULL_GUARD,
    Deadline,
    DegradationLadder,
    MemoryBudget,
    RuntimeGuard,
    current_guard,
    parse_size,
    use_guard,
)


class FakeClock:
    """A settable clock so deadline expiry is deterministic."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_counts_down_and_expires(self):
        clock = FakeClock()
        d = Deadline(10.0, clock=clock)
        assert d.remaining() == pytest.approx(10.0)
        assert not d.expired()
        clock.advance(10.0)
        assert d.expired()

    def test_check_raises_typed_error_naming_checkpoint(self):
        clock = FakeClock()
        d = Deadline(5.0, clock=clock)
        d.check("sweep cell")  # not expired: no raise
        clock.advance(6.0)
        with pytest.raises(DeadlineExceeded, match="sweep cell") as info:
            d.check("sweep cell")
        assert info.value.where == "sweep cell"
        assert info.value.budget_seconds == 5.0
        assert "--resume" in str(info.value)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Deadline(-1.0)

    def test_nan_budget_rejected(self):
        """NaN passes a ``< 0`` test and would never expire."""
        with pytest.raises(ValueError, match=">= 0"):
            Deadline(float("nan"))


class TestParseSize:
    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("1024", 1024),
            ("750k", 750 * 2**10),
            ("512MiB", 512 * 2**20),
            ("2GB", 2 * 2**30),
            ("1.5g", int(1.5 * 2**30)),
            ("1T", 2**40),
            (4096, 4096),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("bad", ["", "MiB", "12 parsecs", "-5", "0", 0, -3])
    def test_rejected_forms(self, bad):
        with pytest.raises(ValueError):
            parse_size(bad)


class TestMemoryBudget:
    def test_fits_and_require(self):
        budget = MemoryBudget("1MiB")
        assert budget.fits(2**20)
        assert not budget.fits(2**20 + 1)
        budget.require(100, "tiny thing")
        with pytest.raises(MemoryBudgetExceeded, match="huge thing"):
            budget.require(2**21, "huge thing")

    def test_accepts_size_strings(self):
        assert MemoryBudget("2g").limit_bytes == 2 * 2**30


class TestDegradationLadder:
    def test_counts_per_rung(self):
        ladder = DegradationLadder()
        ladder.take("chunked_batches", "test")
        ladder.take("chunked_batches", "test")
        ladder.take("lazy_warm", "test")
        assert ladder.taken("chunked_batches") == 2
        assert ladder.taken("lazy_warm") == 1
        assert ladder.taken("compiled_to_numpy") == 0
        assert ladder.rungs_taken() == {"chunked_batches": 2, "lazy_warm": 1}

    def test_unknown_rung_rejected(self):
        with pytest.raises(ValueError, match="unknown degradation rung"):
            DegradationLadder().take("give_up", "test")

    def test_warns_only_on_first_take(self, caplog):
        ladder = DegradationLadder()
        with caplog.at_level("WARNING", logger="repro.runtime.guard"):
            ladder.take("chunked_batches", "reason one")
            ladder.take("chunked_batches", "reason two")
        warnings = [r for r in caplog.records if "degraded" in r.getMessage()]
        assert len(warnings) == 1


class TestRuntimeGuard:
    def test_null_guard_is_permissive(self):
        assert not NULL_GUARD.active
        NULL_GUARD.check_deadline("anywhere")  # no raise
        assert NULL_GUARD.fits_memory(10**15)
        assert NULL_GUARD.plan_batch_rows(1000, row_bytes=10**9) == 1000

    def test_plan_batch_rows_chunks_to_budget_share(self):
        guard = RuntimeGuard(memory=MemoryBudget(800))
        # share = 800 // 8 = 100; 50 rows x 10 bytes = 500 > 100 -> 10 rows
        assert guard.plan_batch_rows(50, row_bytes=10) == 10
        assert guard.ladder.taken("chunked_batches") == 1

    def test_plan_batch_rows_full_batch_when_it_fits(self):
        guard = RuntimeGuard(memory=MemoryBudget(8000))
        assert guard.plan_batch_rows(50, row_bytes=10) == 50
        assert guard.ladder.rungs_taken() == {}

    def test_use_guard_installs_and_restores(self):
        guard = RuntimeGuard(memory=MemoryBudget("1MiB"))
        assert current_guard() is NULL_GUARD
        with use_guard(guard) as installed:
            assert installed is guard
            assert current_guard() is guard
            inner = RuntimeGuard()
            with use_guard(inner):
                assert current_guard() is inner
            assert current_guard() is guard
        assert current_guard() is NULL_GUARD


class TestLadderRungNames:
    def test_rungs_are_stable(self):
        assert LADDER_RUNGS == (
            "chunked_batches",
            "lazy_warm",
            "compiled_to_numpy",
        )


class TestArenaEstimate:
    def test_estimate_bounds_actual_footprint(self):
        from repro.experiments.setup import build_environment

        env = build_environment(n=150, seed=13, x=0.10, warm=True)
        arena = env.cache.ensure_arena()
        estimate = RoutingArena.estimate_bytes(arena.num_dests, env.graph.n)
        assert estimate >= arena.nbytes
        assert estimate <= 10 * arena.nbytes

    def test_estimate_scales_linearly_in_dests(self):
        one = RoutingArena.estimate_bytes(100, 1000)
        two = RoutingArena.estimate_bytes(200, 1000)
        assert two == pytest.approx(2 * one, rel=0.01)
