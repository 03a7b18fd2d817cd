"""Kernel ablation: incremental vs full projected-utility engines, and
a whole round's projections as one stack vs one call per ISP.

DESIGN.md calls this out: both engines produce identical values (tests
assert it); the incremental engine prunes non-reactive destinations and
propagates deltas, which is what makes whole-graph sweeps tractable.

The round-pass entries replay the first round of the section-5 game
(the round with the most deciding ISPs) at N=500 and N=1000 on each
loadable tier: ``stack`` is the one ``project_flips`` call a round makes,
``loop`` the same jobs through the one-job ``project_flip``.  The
``subset`` entries time the two batched kernels on one projection pass's
batch of that round — as many rows as a pass holds, slots out of order
and repeated, a state per row: the compiled tiers walk those slots'
pools in place, numpy cuts the batch's stacks out of its level-major
mirror.  ``mirror_build`` times building that mirror from the round's
arena, which the numpy tier pays once per arena and the compiled tiers
never pay (``extra_info`` carries its size).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ProjectionEngine, SimulationConfig, UtilityModel
from repro.core.engine import compute_round_data
from repro.core.projection import project_flip, project_flips
from repro.core.state import DeploymentState, StateDeriver
from repro.experiments.case_study import run_case_study
from repro.experiments.setup import build_environment
from repro.routing import backends as kernel_backends
from repro.routing.arena import compute_trees_batched, subtree_weights_batched
from repro.routing.errors import BackendUnavailable

from benchmarks.conftest import BENCH_SEED


@pytest.fixture(scope="module")
def game_state(env):
    deriver = StateDeriver(env.graph, compiled=env.cache.compiled)
    adopters = frozenset(env.graph.index(a) for a in env.case_study_adopters())
    state = DeploymentState.initial(adopters)
    rd = compute_round_data(env.cache, deriver, state, UtilityModel.OUTGOING)
    isp = next(i for i in env.graph.isp_indices if i not in adopters)
    return deriver, rd, isp


def test_kernel_projection_incremental(benchmark, env, game_state):
    deriver, rd, isp = game_state
    proj = benchmark(
        lambda: project_flip(
            env.cache, deriver, rd, isp, True, UtilityModel.OUTGOING,
            ProjectionEngine.INCREMENTAL,
        )
    )
    assert proj.utility >= 0


def test_kernel_projection_full(benchmark, env, game_state):
    deriver, rd, isp = game_state
    proj = benchmark(
        lambda: project_flip(
            env.cache, deriver, rd, isp, True, UtilityModel.OUTGOING,
            ProjectionEngine.FULL,
        )
    )
    assert proj.utility >= 0


def test_kernel_engines_identical(env, game_state):
    deriver, rd, isp = game_state
    inc = project_flip(env.cache, deriver, rd, isp, True,
                       UtilityModel.OUTGOING, ProjectionEngine.INCREMENTAL)
    full = project_flip(env.cache, deriver, rd, isp, True,
                        UtilityModel.OUTGOING, ProjectionEngine.FULL)
    assert inc.utility == pytest.approx(full.utility)


def _loadable(name: str) -> bool:
    try:
        kernel_backends.load_backend(name)
    except BackendUnavailable:
        return False
    return True


ROUND_BACKENDS = [name for name in ("numpy", "cext") if _loadable(name)]


@pytest.fixture(scope="module", params=[500, 1000])
def recorded_round(request):
    """The first round of the case-study game at ``N``: its round data
    and the jobs it projected."""
    env = build_environment(n=request.param, seed=BENCH_SEED, x=0.10)
    config = SimulationConfig(theta=0.05, max_rounds=1)
    record = run_case_study(env, config=config).result.rounds[0]
    deriver = StateDeriver(env.graph, config.stub_breaks_ties, env.cache.compiled)
    rd = compute_round_data(env.cache, deriver, record.state, config.utility_model)
    jobs = [(isp, proj.turning_on) for isp, proj in record.projections.items()]
    return env.cache, deriver, rd, jobs, list(record.projections.values())


@pytest.mark.parametrize("backend", ROUND_BACKENDS)
def test_kernel_projection_round_stack(benchmark, recorded_round, backend):
    cache, deriver, rd, jobs, recorded = recorded_round
    rd.arena.backend = backend
    out = benchmark(lambda: project_flips(cache, deriver, rd, jobs, UtilityModel.OUTGOING))
    assert out == recorded


@pytest.mark.parametrize("backend", ROUND_BACKENDS)
def test_kernel_projection_round_loop(benchmark, recorded_round, backend):
    cache, deriver, rd, jobs, recorded = recorded_round
    rd.arena.backend = backend
    out = benchmark(lambda: [
        project_flip(cache, deriver, rd, isp, on, UtilityModel.OUTGOING) for isp, on in jobs
    ])
    assert out == recorded


@pytest.fixture(scope="module")
def pass_batch(recorded_round):
    """One projection pass of the recorded round: 64 Ki ``rows x n``
    entries' worth of rows over random slots, the round's state per row."""
    cache, _, rd, _, _ = recorded_round
    rows = (1 << 16) // cache.graph.n
    slots = np.random.default_rng(BENCH_SEED).integers(0, rd.arena.num_dests, size=rows)
    secure = np.tile(rd.node_secure, (rows, 1))
    breaks = np.tile(rd.breaks_ties, (rows, 1))
    return rd.arena, slots, secure, breaks, cache.graph.weights


@pytest.mark.parametrize("backend", ROUND_BACKENDS)
def test_kernel_projection_subset_trees(benchmark, pass_batch, backend):
    arena, slots, secure, breaks, _ = pass_batch
    arena.backend = backend
    bt = benchmark(lambda: compute_trees_batched(arena, slots, secure, breaks))
    assert bt.choice.shape == secure.shape


@pytest.mark.parametrize("backend", ROUND_BACKENDS)
def test_kernel_projection_subset_weights(benchmark, pass_batch, backend):
    arena, slots, secure, breaks, weights = pass_batch
    arena.backend = backend
    choice = compute_trees_batched(arena, slots, secure, breaks).choice
    w = benchmark(lambda: subtree_weights_batched(arena, slots, choice, weights))
    assert w.shape == choice.shape


def test_kernel_projection_mirror_build(benchmark, recorded_round):
    _, _, rd, _, _ = recorded_round
    arena = rd.arena
    numpy_tier = kernel_backends.load_backend("numpy")
    pools = [getattr(arena, name) for name in (
        "order_ptr", "order_pool", "level_ptr", "level_pool", "indptr_ptr",
        "indptr_pool", "cand_ptr", "cands_pool", "keys_pool",
    )]
    nbytes = benchmark(lambda: numpy_tier.build_level_major(arena.graph_n, *pools))
    benchmark.extra_info["mirror_mib"] = round(nbytes / 2**20, 2)
    assert nbytes > 0
