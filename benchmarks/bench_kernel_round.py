"""Kernel benchmark: one full map-reduce round over all destinations.

The paper's equivalent ("one round typically completed in 10-35
minutes" on a 200-node cluster at 36K ASes) is the unit of simulation
cost; everything else is projections on top of it.  A game holds its
round buffers, so its evaluations after the first re-resolve only the
rows of destinations secure now or at the last resolve:
``test_kernel_round_held_buffers`` times one such evaluation.
"""

from __future__ import annotations

import pytest

from repro.core.config import UtilityModel
from repro.core.engine import RoundBuffers, compute_round_data
from repro.core.state import DeploymentState, StateDeriver


@pytest.fixture(scope="module")
def round_inputs(env):
    deriver = StateDeriver(env.graph, compiled=env.cache.compiled)
    adopters = frozenset(env.graph.index(a) for a in env.case_study_adopters())
    return deriver, DeploymentState.initial(adopters)


def test_kernel_round_outgoing(benchmark, env, round_inputs):
    deriver, state = round_inputs
    rd = benchmark(
        lambda: compute_round_data(env.cache, deriver, state, UtilityModel.OUTGOING)
    )
    assert rd.utilities.sum() > 0


def test_kernel_round_incoming(benchmark, env, round_inputs):
    deriver, state = round_inputs
    rd = benchmark(
        lambda: compute_round_data(env.cache, deriver, state, UtilityModel.INCOMING)
    )
    assert rd.utilities.sum() > 0


def test_kernel_round_held_buffers(benchmark, env, round_inputs):
    """A game's second evaluation: the case-study state into buffers the
    empty state was just resolved into (the untimed set-up), so only
    the secure destinations' rows are resolved again."""
    deriver, state = round_inputs
    buffers = RoundBuffers()
    empty = DeploymentState.initial(())

    def nobody_secure():
        compute_round_data(
            env.cache, deriver, empty, UtilityModel.OUTGOING, buffers=buffers
        )

    rd = benchmark.pedantic(
        lambda: compute_round_data(
            env.cache, deriver, state, UtilityModel.OUTGOING, buffers=buffers
        ),
        setup=nobody_secure, rounds=20, iterations=1,
    )
    assert rd.utilities.sum() > 0 and len(rd.secure_dest_positions) < len(env.cache.destinations)
