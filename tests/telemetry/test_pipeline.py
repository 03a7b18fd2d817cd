"""Telemetry threaded through the pipeline: sim, sweep, cache."""

from __future__ import annotations

import pytest

from repro.core.config import SimulationConfig
from repro.core.dynamics import DeploymentSimulation
from repro.experiments.sweeps import run_sweep
from repro.routing.cache import RoutingCache
from repro.runtime.errors import DeadlineExceeded
from repro.runtime.guard import Deadline, RuntimeGuard, use_guard
from repro.telemetry.metrics import MetricsRegistry, use_registry
from repro.telemetry.spans import Tracer, use_tracer


@pytest.fixture
def registry():
    with use_registry(MetricsRegistry()) as reg:
        yield reg


@pytest.fixture
def tracer():
    with use_tracer(Tracer()) as t:
        yield t


class TestSimulationInstrumentation:
    def test_round_metrics_and_spans(self, medium_env, registry, tracer):
        config = SimulationConfig(theta=0.05, max_rounds=20)
        sim = DeploymentSimulation(
            medium_env.graph, medium_env.case_study_adopters(), config,
            medium_env.cache,
        )
        result = sim.run()
        snap = registry.snapshot()
        assert snap["counters"]["sim.rounds"] == result.num_rounds
        assert snap["counters"]["sim.flips_on"] == sum(
            len(r.turned_on) for r in result.rounds
        )
        assert snap["counters"]["sim.decision_makers_evaluated"] == sum(
            len(r.projections) for r in result.rounds
        )
        assert snap["histograms"]["sim.round_seconds"]["count"] == result.num_rounds
        assert snap["histograms"]["sim.projection_seconds"]["count"] == result.num_rounds
        # a round's projections are one stack: every row any of them
        # resolves, in passes of at most 64 K ``rows x n`` entries
        rows = sum(p.dests_recomputed for r in result.rounds for p in r.projections.values())
        per_pass = (1 << 16) // medium_env.graph.n
        assert snap["counters"]["sim.projection.rows"] == rows > 0
        assert snap["counters"]["sim.projection.passes"] == sum(
            -(-sum(p.dests_recomputed for p in r.projections.values()) // per_pass)
            for r in result.rounds
        )
        # the stacks are the only tree batches beside each round's own
        assert snap["counters"]["routing.batched.calls"] == (
            snap["counters"]["sim.states_evaluated"] + snap["counters"]["sim.projection.passes"]
        )
        names = [e.name for e in tracer.events()]
        assert names.count("round") == result.num_rounds
        assert names.count("simulation") == 1

    def test_state_sharing_counters(self, medium_env, registry):
        """A run can say how much it shared: evaluations vs memo hits."""
        from repro.core.dynamics import StateMemo

        memo = StateMemo()
        adopters = medium_env.case_study_adopters()

        def play(theta):
            config = SimulationConfig(theta=theta, max_rounds=20)
            return DeploymentSimulation(
                medium_env.graph, adopters, config, medium_env.cache, memo=memo
            ).run()

        first = play(0.05)
        counters = registry.snapshot()["counters"]
        # the empty state plus every state a round was played on; the
        # stable final state is the last round's, found in the memo
        assert counters["sim.states_evaluated"] == first.num_rounds + 1 == len(memo)
        assert counters["sim.state_memo_hits"] == 1
        play(0.05)
        snap = registry.snapshot()
        assert snap["counters"]["sim.states_evaluated"] == len(memo)
        # the replay hits on the empty state, every round and the final state
        assert snap["counters"]["sim.state_memo_hits"] == 1 + first.num_rounds + 2
        # projection time is observed where projections are made
        assert snap["histograms"]["sim.projection_seconds"]["count"] == first.num_rounds
        assert snap["counters"]["sim.rounds"] == 2 * first.num_rounds


class TestSweepInstrumentation:
    def test_sweep_cell_round_span_nesting(self, medium_env, registry, tracer):
        cells = run_sweep(
            medium_env, thetas=(0.0, 0.5),
            adopter_sets={"top-5": medium_env.adopter_sets()["top-5"]},
        )
        snap = registry.snapshot()
        assert snap["counters"]["sweep.cells"] == len(cells) == 2
        assert snap["histograms"]["sweep.cell_seconds"]["count"] == 2
        events = {e.name: e for e in tracer.events()}
        sweep, cell, round_ = events["sweep"], events["cell"], events["round"]
        # spans nest by interval containment: sweep > cell > round
        for outer, inner in ((sweep, cell), (cell, round_)):
            assert outer.start_us <= inner.start_us
            assert (outer.start_us + outer.duration_us
                    >= inner.start_us + inner.duration_us)
        assert cell.args["adopters"] == "top-5"


class TestCacheStats:
    def test_stats_count_builds_and_fill(self, small_graph, small_chunks):
        cache = RoutingCache(small_graph)
        rows = cache.rows_per_chunk
        assert 1 < rows < 10
        ticks = iter(range(10 ** 6))
        # one tick at construction, one per check: the third check expires
        guard = RuntimeGuard(deadline=Deadline(2.5, clock=lambda: next(ticks)))
        with use_guard(guard), pytest.raises(DeadlineExceeded):
            cache.warm()  # stops after two chunks
        stats = cache.stats()
        assert stats.builds == 2 * rows
        assert stats.warm_seconds > 0
        assert stats.cached == 2 * rows
        assert stats.total == small_graph.n
        assert stats.cached_fraction == pytest.approx(2 * rows / small_graph.n)

    def test_warm_builds_in_process(self, small_graph, registry):
        cache = RoutingCache(small_graph, destinations=list(range(6)))
        cache.warm()
        stats = cache.stats()
        assert stats.builds == 6
        assert stats.cached_fraction == 1.0
        assert stats.warm_seconds > 0
