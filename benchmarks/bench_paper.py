"""Every paper and extension artefact, regenerated and held to its shapes.

One test per :mod:`repro.experiments.registry` id: the experiment runs
once on the shared ``env`` (``REPRO_BENCH_N`` ASes), its text is
printed, and every claim it returns must hold.  EXPERIMENTS.md records
what each id measures against the paper.

    REPRO_BENCH_N=500 pytest benchmarks/bench_paper.py --benchmark-disable
"""

from __future__ import annotations

import pytest

from repro.experiments.registry import EXPERIMENTS, run_experiment


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_paper_artefact(benchmark, env, capsys, experiment_id):
    text, claims = benchmark.pedantic(
        run_experiment, args=(experiment_id, env), rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        print(text)
    assert claims, f"{experiment_id} checks no claim"
    failed = [name for name, held in claims.items() if not held]
    assert not failed, f"{experiment_id}: claims that did not hold: {failed}"
