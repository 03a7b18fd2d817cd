"""Fig. 12b: the CP-vs-Tier1 comparison across graph variants."""

from __future__ import annotations

import pytest

from repro.core.config import SimulationConfig
from repro.core.dynamics import StateMemo, run_deployment
from repro.experiments.cp_vs_tier1 import run_cp_vs_tier1, run_graph_comparison
from repro.experiments.setup import build_environment
from repro.runtime.errors import StateMemoScopeError
from repro.topology.traffic import apply_traffic_model


def test_graph_comparison_covers_both_graphs():
    out = run_graph_comparison(n=60, seed=7, thetas=(0.0,), workers=1)
    assert set(out) == {False, True}
    for augmented, cells in out.items():
        assert cells, "comparison produced no cells"
        assert all(c.augmented is augmented for c in cells)
        assert all(0.0 <= c.fraction_secure_ases <= 1.0 for c in cells)


def test_each_x_plays_on_its_own_weights():
    """The theta rows share state evaluations within one ``x`` only: a
    cell is what a lone run under that traffic model computes."""
    env = build_environment(n=80, seed=7, x=0.10)
    grid = run_cp_vs_tier1(env, thetas=(0.0, 0.05), x_values=(0.10, 0.50))
    alone = [
        cell for x in (0.10, 0.50) for theta in (0.0, 0.05)
        for cell in run_cp_vs_tier1(env, thetas=(theta,), x_values=(x,))
    ]
    assert sorted(grid, key=repr) == sorted(alone, key=repr)


def test_memo_carried_across_a_traffic_model_raises():
    """Utilities move with the weights while the cache stays live, so a
    memo that outlives ``apply_traffic_model`` must not serve them."""
    env = build_environment(n=80, seed=7, x=0.10)
    adopters = env.adopter_sets()["5-cps"]
    memo = StateMemo()
    run_deployment(env.graph, adopters, SimulationConfig(theta=0.0), env.cache, memo=memo)
    apply_traffic_model(env.graph, 0.50)
    with pytest.raises(StateMemoScopeError, match="graph weights"):
        run_deployment(
            env.graph, adopters, SimulationConfig(theta=0.05), env.cache, memo=memo
        )
