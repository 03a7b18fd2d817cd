"""Shared environment for the benchmarks.

Scale: the paper ran a 200-node DryadLINQ cluster over 36,964 ASes; the
benchmarks default to ``REPRO_BENCH_N`` (default 500) ASes so the whole
suite regenerates every table and figure in minutes on a laptop.  The
*shapes* (who wins, where theta crossovers fall) are what reproduce;
absolute counts scale with N.  Set e.g. ``REPRO_BENCH_N=2000`` for
slower, closer-to-paper runs.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.setup import ExperimentEnv, build_environment

BENCH_N = int(os.environ.get("REPRO_BENCH_N", "500"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2011"))


@pytest.fixture(scope="session")
def env() -> ExperimentEnv:
    """The base benchmark topology (x = 10%, original graph)."""
    return build_environment(n=BENCH_N, seed=BENCH_SEED, x=0.10)
