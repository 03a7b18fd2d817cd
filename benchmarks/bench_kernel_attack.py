"""Attack-kernel benchmarks: batched multi-origin sweep vs scalar pairs.

One bench per loadable backend runs :func:`simulate_attacks_batched`
over a fixed (victim, attacker) pair sample; the scalar reference runs
the same pairs one :func:`simulate_hijack` at a time.  ``make
bench-compare`` asserts the batching headline — the batched kernel at
least 3x faster than per-pair scalar on the same snapshot — so an
attack-kernel regression fails the gate like any other kernel
regression.

Scale: ``REPRO_BENCH_ATTACK_N`` ASes (default 400) and
``REPRO_BENCH_ATTACK_PAIRS`` pairs (default 8).  The scalar reference
is pure Python and dominates the file's runtime; it exists to keep the
speedup claim honest, not to be fast.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.experiments.setup import build_environment
from repro.routing import backends as kernel_backends
from repro.routing.errors import BackendUnavailable
from repro.security.hijack import simulate_attacks_batched, simulate_hijack
from repro.security.metrics import sample_pairs

ATTACK_N = int(os.environ.get("REPRO_BENCH_ATTACK_N", "400"))
ATTACK_PAIRS = int(os.environ.get("REPRO_BENCH_ATTACK_PAIRS", "8"))
ATTACK_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2011"))


def _loadable() -> list[str]:
    out = []
    for name in kernel_backends.usable_backends():
        try:
            kernel_backends.load_backend(name)
        except BackendUnavailable:
            continue
        out.append(name)
    return out


BACKENDS = _loadable()

_cache: dict[str, object] = {}


def _env():
    if "env" not in _cache:
        _cache["env"] = build_environment(
            n=ATTACK_N, seed=ATTACK_SEED, x=0.10, warm=True
        )
    return _cache["env"]


@pytest.fixture(scope="module")
def bench_env():
    return _env()


@pytest.fixture(scope="module")
def bench_pairs(bench_env):
    return sample_pairs(bench_env.graph, samples=ATTACK_PAIRS, seed=7)


@pytest.fixture(scope="module")
def bench_state(bench_env):
    secure = np.zeros(bench_env.graph.n, dtype=bool)
    secure[::3] = True
    return secure


def _scalar_fooled(env, pairs, state, scenario: str) -> list[int]:
    """Per pair, the ASes the scalar reference has the attacker fool;
    computed once per scenario."""
    key = ("fooled", scenario)
    if key not in _cache:
        _cache[key] = [
            int(simulate_hijack(
                env.graph, victim, attacker, state, state, scenario=scenario,
            ).routes_to_attacker.sum())
            for victim, attacker in pairs
        ]
    return _cache[key]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scenario", ["origin_hijack", "route_leak"])
def test_kernel_attack_batched(
    benchmark, bench_env, bench_pairs, bench_state, backend, scenario
):
    """The attack-matrix inner loop: one batched call, many pairs."""
    compiled = bench_env.cache.compiled
    # warm outside the timer: first call pays edge-table construction
    simulate_attacks_batched(
        bench_env.graph, bench_pairs, bench_state, bench_state,
        scenario=scenario, backend=backend, compiled=compiled,
    )
    outcomes = benchmark(
        lambda: simulate_attacks_batched(
            bench_env.graph, bench_pairs, bench_state, bench_state,
            scenario=scenario, backend=backend, compiled=compiled,
        )
    )
    assert len(outcomes) == len(bench_pairs)
    # outside the timer: the counts the attack matrix folds are the
    # scalar reference's, pair for pair
    assert outcomes.num_fooled.tolist() == _scalar_fooled(
        bench_env, bench_pairs, bench_state, scenario
    )


@pytest.mark.parametrize("scenario", ["origin_hijack"])
def test_kernel_attack_scalar(benchmark, bench_env, bench_pairs, bench_state, scenario):
    """Per-pair scalar reference on the same sample (the 3x gate's slow leg)."""

    def scalar_pairs():
        return [
            simulate_hijack(
                bench_env.graph, victim, attacker, bench_state, bench_state,
                scenario=scenario,
            )
            for victim, attacker in bench_pairs
        ]

    outcomes = benchmark(scalar_pairs)
    assert len(outcomes) == len(bench_pairs)
