"""A game resolves every state into one set of round buffers.

``DeploymentSimulation`` hands its :class:`~repro.core.engine.RoundBuffers`
to every ``compute_round_data`` it makes, so a round rewrites the
matrices of the round before instead of faulting in fresh ones, and
re-resolves only the rows of destinations secure now or at the last
resolve (an insecure destination's row is the same in every state).
These tests hold that to four things: every evaluation's matrices,
utilities and projections are byte for byte a full resolve's, and the
games those of games that allocate every round afresh; a second
evaluation resolves only the rows its state change can move, and all of
them once the arena or the weights moved; the buffers are the same
arrays on every call; and no ``RoundData`` — whose matrices they are —
outlives the evaluation that made it.
"""

from __future__ import annotations

import struct
import weakref

import numpy as np
import pytest

from repro.core import dynamics
from repro.core.config import SimulationConfig, UtilityModel
from repro.core.dynamics import DeploymentSimulation, SimulationResult, StateMemo
from repro.core.engine import RoundBuffers, RoundData, compute_round_data
from repro.core.state import DeploymentState, StateDeriver
from repro.experiments.setup import build_environment
from repro.gadgets.buyers_remorse import build_buyers_remorse
from repro.routing import backends as kernel_backends
from repro.routing.cache import RoutingCache
from repro.routing.errors import BackendUnavailable
from repro.routing.policy import RouteClass
from repro.telemetry.metrics import MetricsRegistry, use_registry
from repro.topology.traffic import apply_traffic_model

POLICIES = ["security_3rd", "security_2nd"]

#: ``(name, build_environment keywords)``: environments besides ``env``
#: whose games hold every evaluation to a full resolve
GAMES = [
    ("sampled", {"sample_destinations": 40}),
    ("numpy", {"backend": "numpy"}),
]


@pytest.fixture(scope="module", params=POLICIES)
def env(request):
    return build_environment(n=150, seed=7, policy=request.param)


def _game(env) -> SimulationResult:
    """The game of ``env``'s top ISPs."""
    graph = env.graph
    adopters = [graph.asn(int(i)) for i in graph.isp_indices[:3]]
    config = SimulationConfig(
        theta=0.0, utility_model=UtilityModel.OUTGOING,
        policy=env.cache.policy_name,
    )
    return DeploymentSimulation(graph, adopters, config, cache=env.cache).run()


def _round_bytes(rd: RoundData) -> list[bytes]:
    """Everything a round resolved, as bytes (weights bit for bit)."""
    return [
        a.tobytes() for a in (
            rd.choice, rd.sec_matrix, rd.any_sec_matrix, rd.weights.view(np.uint64),
            rd.utilities.view(np.uint64), rd.secure_dest_positions,
            rd.secure_dest_sec, rd.secure_dest_any_sec,
        )
    ]


def _projection_bytes(result: SimulationResult) -> list:
    return [
        (
            isp, p.isp, p.turning_on, struct.pack("<d", p.utility),
            list(p.flips.items()), p.dests_recomputed, p.dests_delta,
        )
        for record in result.rounds
        for isp, p in record.projections.items()
    ]


def _checked_game(play, monkeypatch) -> SimulationResult:
    """``play()``'s game with every state it evaluates into its held
    buffers checked, byte for byte, against a full resolve into fresh
    ones, and the game against the one that allocates every round
    afresh."""
    compute = dynamics.compute_round_data
    secure_dests = []

    def checking(*args, buffers):
        rd = compute(*args, buffers=buffers)
        assert _round_bytes(rd) == _round_bytes(compute(*args)), len(secure_dests)
        secure_dests.append(int(rd.node_secure[rd.arena.dest_ids].sum()))
        return rd

    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "compute_round_data", checking)
        buffered = play()
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "compute_round_data", lambda *args, buffers: compute(*args))
        fresh = play()
    assert len(secure_dests) >= 3 and any(secure_dests)
    assert buffered.final_utilities.tobytes() == fresh.final_utilities.tobytes()
    assert buffered.starting_utilities.tobytes() == fresh.starting_utilities.tobytes()
    assert buffered.final_secure_pairs == fresh.final_secure_pairs
    assert [r.utilities.tobytes() for r in buffered.rounds] == [
        r.utilities.tobytes() for r in fresh.rounds
    ]
    assert _projection_bytes(buffered) == _projection_bytes(fresh)
    return buffered


def _require_cext() -> None:
    try:
        kernel_backends.load_backend("cext")
    except BackendUnavailable:
        pytest.skip("cext backend not loadable here")


def test_buffered_game_is_the_freshly_allocated_game(env, monkeypatch):
    buffered = _checked_game(lambda: _game(env), monkeypatch)
    assert len(buffered.rounds) >= 2 and any(r.turned_on for r in buffered.rounds)


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


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name, build", GAMES, ids=[g[0] for g in GAMES])
def test_every_evaluation_is_a_full_resolve(policy, name, build, monkeypatch):
    if build.get("backend") is None:
        _require_cext()
    env = build_environment(n=150, seed=7, policy=policy, **build)
    _checked_game(lambda: _game(env), monkeypatch)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("backend", ["cext", "numpy"])
def test_a_turn_off_game_is_a_full_resolve(policy, backend, monkeypatch):
    """Fig. 13's buyer's remorse: the focal ISP starts deployed and turns
    S*BGP off, so the state after it has destinations insecure that
    were secure at the last resolve, and their rows are resolved too."""
    if backend == "cext":
        _require_cext()
    net = build_buyers_remorse()
    g = net.graph
    cache = RoutingCache(g, policy=policy, backend=backend)
    config = SimulationConfig(
        theta=0.0, utility_model=UtilityModel.INCOMING, stub_breaks_ties=False,
        max_rounds=10, policy=policy,
    )

    def play() -> SimulationResult:
        sim = DeploymentSimulation(g, [net.cp, net.upstream], config, cache,
                                   player_asns=[net.focal])
        sim.state = sim.state.with_flips(turn_on=[g.index(net.focal)])
        return sim.run()

    result = _checked_game(play, monkeypatch)
    assert g.index(net.focal) in result.rounds[0].turned_off


def _states(env) -> list[DeploymentState]:
    """Nobody, the top ISPs, a few of them, nobody again: destinations
    turn secure and back."""
    isps = env.graph.isp_indices
    return [
        DeploymentState.initial(()),
        DeploymentState.initial(isps[:6]),
        DeploymentState.initial(isps[:2]),
        DeploymentState.initial(()),
    ]


def test_a_second_evaluation_resolves_only_rows_it_can_move(env):
    """Counted through ``routing.batched.trees``: after the first
    evaluation, the rows of destinations secure now or then; every row
    where the arena moves with the state (``security_2nd``)."""
    cache = env.cache
    deriver = StateDeriver(env.graph, compiled=cache.compiled)
    model = UtilityModel.INCOMING
    buffers = RoundBuffers()
    dests = np.asarray(cache.destinations)
    was = None
    for state in _states(env):
        with use_registry(MetricsRegistry()) as registry:
            rd = compute_round_data(cache, deriver, state, model, buffers=buffers)
        trees = registry.snapshot()["counters"].get("routing.batched.trees", 0)
        now = rd.node_secure[dests]
        if was is None or cache.policy.state_dependent:
            assert trees == len(dests)
        else:
            assert trees == np.count_nonzero(now | was)
        assert _round_bytes(rd) == _round_bytes(
            compute_round_data(cache, deriver, state, model)
        )
        was = now
    assert was is not None and not was.any()


def test_reapplied_weights_resolve_every_row():
    """Traffic weights re-applied in place between two evaluations: the
    second resolves every row, under the new weights."""
    env = build_environment(n=150, seed=7)
    cache, graph = env.cache, env.graph
    deriver = StateDeriver(graph, compiled=cache.compiled)
    model = UtilityModel.OUTGOING
    first, second = _states(env)[1:3]
    buffers = RoundBuffers()
    compute_round_data(cache, deriver, first, model, buffers=buffers)
    apply_traffic_model(graph, 0.30)
    with use_registry(MetricsRegistry()) as registry:
        rd = compute_round_data(cache, deriver, second, model, buffers=buffers)
    assert registry.snapshot()["counters"]["routing.batched.trees"] == len(cache.destinations)
    assert _round_bytes(rd) == _round_bytes(compute_round_data(cache, deriver, second, model))
    # and once they hold still, only the rows the state can move
    with use_registry(MetricsRegistry()) as registry:
        compute_round_data(cache, deriver, first, model, buffers=buffers)
    secure = rd.node_secure[np.asarray(cache.destinations)]
    assert registry.snapshot()["counters"]["routing.batched.trees"] < len(secure)


def test_games_sharing_a_memo_share_its_buffers(env):
    """Two games of one theta row: with one memo the second starts from
    the rows the first left, and plays exactly the game it plays beside
    a fresh memo, resolving fewer rows (counted through
    ``routing.batched.trees``).  On a state-independent arena the rows
    it saves are the buffers', not only the memo's evaluations: it
    resolves fewer than beside the first game's evaluations with fresh
    buffers."""
    graph = env.graph
    adopters = [graph.asn(int(i)) for i in graph.isp_indices[:3]]

    def play(theta: float, memo: StateMemo) -> tuple[SimulationResult, float]:
        config = SimulationConfig(
            theta=theta, utility_model=UtilityModel.OUTGOING,
            policy=env.cache.policy_name,
        )
        with use_registry(MetricsRegistry()) as registry:
            result = DeploymentSimulation(
                graph, adopters, config, env.cache, memo=memo
            ).run()
        counters = registry.snapshot()["counters"]
        assert counters.get("sim.states_evaluated", 0) > 0
        return result, counters["routing.batched.trees"]

    shared = StateMemo()
    play(0.0, shared)
    second, rows = play(0.1, shared)
    alone, rows_alone = play(0.1, StateMemo())
    assert rows < rows_alone
    assert second.outcome == alone.outcome
    assert second.final_state == alone.final_state
    assert second.final_utilities.tobytes() == alone.final_utilities.tobytes()
    assert second.final_secure_pairs == alone.final_secure_pairs
    assert [r.utilities.tobytes() for r in second.rounds] == [
        r.utilities.tobytes() for r in alone.rounds
    ]
    assert _projection_bytes(second) == _projection_bytes(alone)
    if not env.cache.policy.state_dependent:
        kept = StateMemo()
        play(0.0, kept)
        kept.buffers = RoundBuffers()
        assert rows < play(0.1, kept)[1]
