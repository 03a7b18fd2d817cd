"""A game resolves every state into one set of round buffers.

``DeploymentSimulation`` hands its :class:`~repro.core.engine.RoundBuffers`
to every ``compute_round_data`` it makes, so a round overwrites the
matrices of the round before instead of faulting in fresh ones.  These
tests hold that to three things: the games are byte for byte the games
that allocate every round afresh (utilities, every projection), the
buffers are the same arrays on every call, and no ``RoundData`` — whose
matrices they are — outlives the evaluation that made it.
"""

from __future__ import annotations

import struct
import weakref

import numpy as np
import pytest

from repro.core import dynamics
from repro.core.config import SimulationConfig, UtilityModel
from repro.core.dynamics import DeploymentSimulation, SimulationResult
from repro.experiments.setup import build_environment
from repro.routing.policy import RouteClass

POLICIES = ["security_3rd", "security_2nd"]


@pytest.fixture(scope="module", params=POLICIES)
def env(request):
    return build_environment(n=150, seed=7, policy=request.param)


def _game(env, monkeypatch=None, fresh: bool = False) -> SimulationResult:
    """The game of ``env``'s top ISPs; ``fresh`` drops the game's
    buffers, so every round allocates its own."""
    if fresh:
        compute = dynamics.compute_round_data
        monkeypatch.setattr(
            dynamics, "compute_round_data",
            lambda *args, buffers: compute(*args),
        )
    graph = env.graph
    adopters = [graph.asn(int(i)) for i in graph.isp_indices[:3]]
    config = SimulationConfig(
        theta=0.0, utility_model=UtilityModel.OUTGOING, record_utilities=True,
        policy=env.cache.policy_name,
    )
    return DeploymentSimulation(graph, adopters, config, cache=env.cache).run()


def _projection_bytes(result: SimulationResult) -> list:
    return [
        (
            isp, p.isp, p.turning_on, struct.pack("<d", p.utility),
            list(p.flips.items()), p.dests_recomputed, p.dests_delta,
        )
        for record in result.rounds
        for isp, p in record.projections.items()
    ]


def test_buffered_game_is_the_freshly_allocated_game(env, monkeypatch):
    buffered = _game(env)
    fresh = _game(env, monkeypatch, fresh=True)
    assert len(buffered.rounds) >= 2 and any(r.turned_on for r in buffered.rounds)
    assert buffered.final_utilities.tobytes() == fresh.final_utilities.tobytes()
    assert buffered.starting_utilities.tobytes() == fresh.starting_utilities.tobytes()
    assert buffered.final_secure_pairs == fresh.final_secure_pairs
    assert [r.utilities.tobytes() for r in buffered.rounds] == [
        r.utilities.tobytes() for r in fresh.rounds
    ]
    assert _projection_bytes(buffered) == _projection_bytes(fresh)


def test_every_evaluation_writes_the_same_buffers(env, monkeypatch):
    compute = dynamics.compute_round_data
    seen, issued = [], []

    def tracking(*args, buffers):
        assert not [ref for ref in issued if ref() is not None], (
            "a RoundData outlived its state evaluation"
        )
        rd = compute(*args, buffers=buffers)
        # whatever the call before left there: no next hop exactly at
        # each destination and where it is unreachable
        cls = rd.arena.cls
        no_hop = (cls == int(RouteClass.SELF)) | (cls == int(RouteClass.UNREACHABLE))
        assert np.array_equal(rd.choice == -1, no_hop)
        assert not rd.sec_matrix[cls == int(RouteClass.UNREACHABLE)].any()
        seen.append((buffers, rd.choice, rd.sec_matrix, rd.any_sec_matrix, rd.weights))
        issued.append(weakref.ref(rd))
        return rd

    monkeypatch.setattr(dynamics, "compute_round_data", tracking)
    result = _game(env)
    assert len(seen) == len({r.state for r in result.rounds}) + 1
    assert all(ref() is None for ref in issued)
    first = seen[0]
    assert first[0] is not None
    for call in seen[1:]:
        assert all(a is b for a, b in zip(call, first))
    # what the results keep is their own, not a buffer
    for kept in (result.final_utilities, *(r.utilities for r in result.rounds)):
        assert not any(np.shares_memory(kept, buffer) for buffer in first[1:])
