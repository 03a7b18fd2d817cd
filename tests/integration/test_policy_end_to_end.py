"""End-to-end: the full pipeline under the non-default rankings.

The acceptance bar for the policy layer: case study and sweep run to
completion under ``security_1st`` and ``security_2nd`` — a ``workers=2``
config and journal resume included — and their adoption dynamics
*differ* from the default ``security_3rd`` run (promoting SecP in the
ranking changes partial-deployment outcomes; Lychev et al.).
"""

from __future__ import annotations

import pytest

from repro.core.config import SimulationConfig
from repro.core.dynamics import run_deployment
from repro.experiments.setup import build_environment
from repro.experiments.sweeps import run_sweep
from repro.runtime.journal import RunJournal

N, SEED = 150, 11
MAX_ROUNDS = 10


def _adoption_curve(env, policy, workers=1):
    result = run_deployment(
        env.graph, env.case_study_adopters(),
        SimulationConfig(
            theta=0.05, max_rounds=MAX_ROUNDS, policy=policy, workers=workers
        ),
        env.cache,
    )
    return result.secure_ases_per_round(), result


@pytest.fixture(scope="module")
def default_curve():
    env = build_environment(n=N, seed=SEED, x=0.10)
    return _adoption_curve(env, "security_3rd")[0]


@pytest.mark.parametrize("policy", ["security_1st", "security_2nd"])
def test_case_study_differs_from_default(policy, default_curve):
    env = build_environment(n=N, seed=SEED, x=0.10, policy=policy)
    assert env.cache.policy_name == policy
    curve, result = _adoption_curve(env, policy)
    assert result.num_rounds >= 1
    # the state-dependent structures were actually rebuilt along the way
    assert env.cache.stats().state_rebuilds >= 1
    assert curve != default_curve


@pytest.mark.parametrize("policy", ["security_1st", "security_2nd"])
def test_parallel_warm_under_policy(policy, default_curve):
    """workers=2 is ignored: the warm and the game's projections run
    in-process under the policy, the same as serial."""
    env = build_environment(n=N, seed=SEED, x=0.10, policy=policy, workers=2)
    assert env.cache.stats().builds == env.graph.n
    assert env.cache.policy_name == policy
    assert env.cache.arena is not None
    assert env.cache.arena.policy == policy
    curve, _ = _adoption_curve(env, policy, workers=2)
    serial = build_environment(n=N, seed=SEED, x=0.10, policy=policy)
    assert curve == _adoption_curve(serial, policy)[0] != default_curve


def test_sweep_with_journal_resume_under_security_2nd(tmp_path):
    env = build_environment(n=120, seed=7, x=0.10, policy="security_2nd")
    sets = {"top-5": env.adopter_sets()["top-5"]}
    thetas = (0.05, 0.30)
    path = tmp_path / "sweep.jsonl"
    first = run_sweep(
        env, thetas=thetas, adopter_sets=sets, max_rounds=MAX_ROUNDS,
        journal=path,
    )
    assert RunJournal(path).header()["meta"]["policy"] == "security_2nd"

    # fresh environment, same journal: every cell replays, none recompute
    env2 = build_environment(n=120, seed=7, x=0.10, policy="security_2nd")
    resumed = run_sweep(
        env2, thetas=thetas, adopter_sets=sets, max_rounds=MAX_ROUNDS,
        journal=path,
    )
    assert resumed == first
