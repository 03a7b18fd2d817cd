"""Tests for the theta sweeps (Figures 8, 9, 11, 14)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.sweeps import (
    cells_to_rows,
    run_sweep,
    stub_tiebreak_comparison,
)


@pytest.fixture(scope="module")
def cells(medium_env):
    sets = {
        "none": [],
        "top-5": medium_env.adopter_sets()["top-5"],
        "cps+top-5": medium_env.adopter_sets()["cps+top-5"],
    }
    return run_sweep(
        medium_env,
        thetas=(0.0, 0.05, 0.30),
        adopter_sets=sets,
        collect_projection_accuracy=True,
    )


class TestFig8Shape:
    def test_grid_complete(self, cells):
        assert len(cells) == 9

    def test_adoption_decreases_with_theta(self, cells):
        """Fig. 8: higher deployment cost, lower adoption."""
        for name in ("top-5", "cps+top-5"):
            series = [c.fraction_secure_ases for c in cells if c.adopters == name]
            assert series[0] >= series[-1]

    def test_low_theta_mass_adoption(self, cells):
        best = max(
            c.fraction_secure_ases
            for c in cells
            if c.theta <= 0.05 and c.adopters != "none"
        )
        assert best > 0.5  # paper: 85%

    def test_high_theta_collapse_for_isps(self, cells):
        """Fig. 8b / §6.5: at high theta, few ISPs deploy by market."""
        for c in cells:
            if c.theta == 0.30 and c.adopters == "top-5":
                assert c.fraction_isps_by_market < c.fraction_secure_ases

    def test_market_fraction_bounded(self, cells):
        for c in cells:
            assert 0 <= c.fraction_isps_by_market <= c.fraction_secure_isps + 1e-9


class TestFig9:
    def test_secure_paths_below_f_squared(self, cells):
        for c in cells:
            assert c.fraction_secure_paths <= c.f_squared + 1e-9

    def test_secure_paths_near_f_squared_when_large(self, cells):
        """Fig. 9: the measured curve hugs f^2 (within ~a few %)."""
        for c in cells:
            if c.fraction_secure_ases > 0.6:
                assert c.fraction_secure_paths > 0.6 * c.f_squared


class TestFig14:
    def test_projection_ratios_collected(self, cells):
        ratios = [r for c in cells for r in c.projection_ratios]
        assert ratios
        assert np.median(ratios) == pytest.approx(1.0, abs=0.2)


class TestFig11:
    def test_stub_tiebreak_insensitivity(self, medium_env):
        """§6.7: outcomes barely move when stubs ignore security."""
        sets = {"cps+top-5": medium_env.adopter_sets()["cps+top-5"]}
        comparison = stub_tiebreak_comparison(
            medium_env, thetas=(0.05,), adopter_sets=sets
        )
        with_stub = comparison[True][0].fraction_secure_ases
        without = comparison[False][0].fraction_secure_ases
        assert abs(with_stub - without) < 0.15


def test_cells_to_rows(cells):
    rows = cells_to_rows(cells)
    assert len(rows) == len(cells)
    assert len(rows[0]) == 8


class TestStateSharing:
    """Nothing but theta changes along a row, so a state is evaluated once."""

    THETAS = (0.0, 0.05, 0.30)

    def sets(self, env):
        menu = env.adopter_sets()
        return {name: menu[name] for name in ("top-5", "5-cps", "cps+top-5")}

    def test_grid_resolves_each_distinct_state_once(self, medium_env, monkeypatch):
        """Pins the count, not a timing.  ``RoundData`` is only ever built
        by ``compute_round_data``, whichever module calls it."""
        from repro.core import engine
        from repro.core.dynamics import DeploymentSimulation

        resolved, running = [], []
        run, round_data = DeploymentSimulation.run, engine.RoundData

        def tracking_run(self, *args, **kwargs):
            running.append(self)
            try:
                return run(self, *args, **kwargs)
            finally:
                running.pop()

        def counting_round_data(**fields):
            assert running, "compute_round_data called after sim.run() returned"
            resolved.append(fields["state"])
            return round_data(**fields)

        monkeypatch.setattr(DeploymentSimulation, "run", tracking_run)
        monkeypatch.setattr(engine, "RoundData", counting_round_data)
        cells = run_sweep(medium_env, thetas=self.THETAS, adopter_sets=self.sets(medium_env))
        assert len(cells) == 9
        assert len(resolved) == len(set(resolved))
        # every game's starting utilities come from one evaluation
        assert sum(1 for state in resolved if not state.deployers) == 1
        # ... and nine memo-less games resolve well over that many states
        rounds = sum(c.num_rounds for c in cells)
        assert len(resolved) < rounds + len(cells)

    def test_state_dependent_policy_rebuilds_less(self):
        """Under Lychev et al.'s rankings every repeated evaluation drags
        a fixpoint rebuild of the whole cache behind it."""
        from repro.experiments.setup import build_environment

        def rebuilds_of(run):
            env = build_environment(n=90, seed=11, policy="security_2nd", warm=True)
            sets = {"top-5": env.adopter_sets()["top-5"]}
            before = env.cache.stats().state_rebuilds
            cells = run(env, sets)
            return cells, env.cache.stats().state_rebuilds - before

        row, shared = rebuilds_of(
            lambda env, sets: run_sweep(env, thetas=self.THETAS, adopter_sets=sets)
        )
        # one sweep per cell: each game starts from an empty memo
        alone, unshared = rebuilds_of(lambda env, sets: [
            cell for theta in self.THETAS
            for cell in run_sweep(env, thetas=(theta,), adopter_sets=sets)
        ])
        assert row == alone
        assert 0 < shared < unshared

    def test_a_caller_memo_keeps_every_row(self, medium_env):
        """A caller-owned memo keeps each row's trajectories, so the same
        grid played again evaluates nothing and reads the same cells."""
        from repro.core.dynamics import StateMemo
        from repro.core.state import DeploymentState

        memo = StateMemo()
        sets = self.sets(medium_env)
        cells = run_sweep(medium_env, thetas=self.THETAS, adopter_sets=sets, memo=memo)
        for adopters in sets.values():
            start = frozenset(medium_env.graph.index(asn) for asn in adopters)
            assert DeploymentState.initial(start) in memo
        held = dict(memo)
        assert run_sweep(
            medium_env, thetas=self.THETAS, adopter_sets=sets, memo=memo
        ) == cells
        assert memo.keys() == held.keys()
        assert all(memo[state] is held[state] for state in held)
