"""Policy metadata in sweeps and journals.

The active routing policy is part of a run's identity: a sweep journal
records it in the header, and resuming under a *different* policy must
fail loudly (cells computed under different rankings are incomparable),
with a :class:`~repro.runtime.errors.SchemaError` naming both policies.
"""

from __future__ import annotations

import pytest

from repro.core.config import SimulationConfig
from repro.core.dynamics import DeploymentSimulation
from repro.experiments.setup import build_environment
from repro.experiments.sweeps import SWEEP_JOURNAL_KIND, run_sweep
from repro.runtime.errors import JournalMismatchError, SchemaError
from repro.runtime.journal import RunJournal

THETAS = (0.05,)


@pytest.fixture(scope="module")
def tiny_env():
    return build_environment(n=120, seed=11, x=0.10, warm=True)


def adopter_sets(env):
    sets = env.adopter_sets()
    return {"top-5": sets["top-5"]}


class TestSweepJournalPolicy:
    def test_header_records_policy(self, tiny_env, tmp_path):
        path = tmp_path / "sweep.jsonl"
        run_sweep(
            tiny_env, thetas=THETAS, adopter_sets=adopter_sets(tiny_env),
            journal=path,
        )
        header = RunJournal(path).header()
        assert header["meta"]["policy"] == "security_3rd"

    def test_resume_under_different_policy_raises_schema_error(
        self, tiny_env, tmp_path
    ):
        path = tmp_path / "sweep.jsonl"
        journal = RunJournal(path)
        meta = {"policy": "security_1st", "num_ases": tiny_env.graph.n}
        journal.ensure_header(SWEEP_JOURNAL_KIND, meta)
        with pytest.raises(SchemaError) as excinfo:
            run_sweep(
                tiny_env, thetas=THETAS, adopter_sets=adopter_sets(tiny_env),
                journal=journal,
            )
        message = str(excinfo.value)
        assert "security_1st" in message and "security_3rd" in message

    def test_legacy_journal_without_policy_means_default(
        self, tiny_env, tmp_path
    ):
        """Journals written before the policy field are default-policy
        journals; resuming them under the default must not raise the
        policy error (the generic metadata check still applies)."""
        path = tmp_path / "legacy.jsonl"
        RunJournal(path).ensure_header(SWEEP_JOURNAL_KIND, {"num_ases": 5})
        with pytest.raises(JournalMismatchError) as excinfo:
            run_sweep(
                tiny_env, thetas=THETAS, adopter_sets=adopter_sets(tiny_env),
                journal=path,
            )
        assert not isinstance(excinfo.value, SchemaError)

        second = build_environment(n=120, seed=11, warm=False, policy="security_2nd")
        with pytest.raises(SchemaError) as excinfo:
            run_sweep(
                second, thetas=THETAS, adopter_sets=adopter_sets(second),
                journal=path,
            )
        message = str(excinfo.value)
        assert "security_3rd" in message and "security_2nd" in message


class TestSimulationJournalPolicy:
    def test_cache_policy_is_authoritative(self, tiny_env):
        """A shared cache fills in a default config's policy; an explicit
        conflicting config is rejected."""
        from repro.routing.cache import RoutingCache

        cache = RoutingCache(tiny_env.graph, policy="sp_first")
        sim = DeploymentSimulation(
            tiny_env.graph, tiny_env.case_study_adopters(),
            SimulationConfig(theta=0.05), cache,
        )
        assert sim.config.policy == "sp_first"

        with pytest.raises(ValueError, match="conflicts"):
            DeploymentSimulation(
                tiny_env.graph, tiny_env.case_study_adopters(),
                SimulationConfig(theta=0.05, policy="security_2nd"), cache,
            )
