"""Tests for the named experiment registry."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.registry import (
    EXPERIMENTS,
    list_experiments,
    run_experiment,
)

#: modules a benchmark workload, the CLI or the daemon imports; none of
#: them may pull in the registry (which reaches every gadget and
#: extension module) or the gadget and protocol packages
_ENTRY_MODULES = (
    "repro.cli",
    "repro.service.daemon",
    "repro.experiments.case_study",
    "repro.experiments.sweeps",
    "repro.experiments.attack_matrix",
)

_LOADED_SCRIPT = """
import importlib, sys
for module in sys.argv[1:]:
    importlib.import_module(module)
for name in sorted(sys.modules):
    if name == "repro.experiments.registry" or name.startswith(
        ("repro.gadgets", "repro.protocol")
    ):
        print(name)
"""


@pytest.fixture(scope="module")
def outputs(medium_env):
    """Every experiment's ``(text, claims)``, run once on ``medium_env``."""
    return {e.id: run_experiment(e.id, medium_env) for e in list_experiments()}


class TestRegistry:
    def test_expected_ids(self):
        assert {
            "table1", "fig3", "fig8", "fig10", "sec73", "sec83", "attack-matrix",
            "table2",
        } <= set(EXPERIMENTS)

    def test_list_sorted(self):
        ids = [e.id for e in list_experiments()]
        assert ids == sorted(ids)

    def test_unknown_id_hints(self, medium_env):
        with pytest.raises(KeyError, match="known ids"):
            run_experiment("nope", medium_env)

    def test_every_experiment_runs(self, outputs):
        for text, _ in outputs.values():
            assert isinstance(text, str) and text

    def test_every_experiment_claims_something(self, outputs):
        for experiment_id, (_, claims) in outputs.items():
            assert claims, f"{experiment_id} returns no claim"
            assert all(type(held) is bool for held in claims.values())

    def test_claim_names_are_unique_across_the_registry(self, outputs):
        names = [name for _, claims in outputs.values() for name in claims]
        assert len(names) == len(set(names))

    def test_table2_mentions_counts(self, outputs, medium_env):
        text, _ = outputs["table2"]
        assert str(medium_env.graph.n) in text


def test_entry_points_leave_the_registry_unloaded():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_SCRIPT, *_ENTRY_MODULES],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert proc.stdout.split() == []
