"""Checkpoint/resume: an interrupted sweep must finish where it left off.

Two levels: an in-process interruption (exception mid-grid), and the
acceptance-criterion integration test — a subprocess SIGKILLs itself
mid-grid, the sweep is rerun with the same journal, and the resulting
cell set must be identical to an uninterrupted run with the completed
cells skipped, not recomputed.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.setup import build_environment
from repro.experiments.sweeps import (
    SWEEP_JOURNAL_KIND,
    cell_from_dict,
    run_sweep,
)
from repro.runtime.errors import JournalMismatchError
from repro.runtime.journal import RunJournal

THETAS = (0.0, 0.05)


@pytest.fixture(scope="module")
def tiny_env():
    return build_environment(n=120, seed=11, x=0.10, warm=True)


def adopter_sets(env):
    sets = env.adopter_sets()
    return {"none": [], "top-5": sets["top-5"]}


class _InterruptingJournal(RunJournal):
    """Raises after N appends — a deterministic mid-grid crash."""

    def __init__(self, path, stop_after: int):
        super().__init__(path)
        self.stop_after = stop_after

    def append(self, record):
        super().append(record)
        self.stop_after -= 1
        if self.stop_after == 0:
            raise KeyboardInterrupt("injected interruption")


class TestInProcessResume:
    def test_resume_matches_uninterrupted_run(self, tiny_env, tmp_path):
        sets = adopter_sets(tiny_env)
        clean = run_sweep(tiny_env, thetas=THETAS, adopter_sets=sets)

        path = tmp_path / "sweep.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                tiny_env, thetas=THETAS, adopter_sets=sets,
                journal=_InterruptingJournal(path, stop_after=2),
            )
        journal = RunJournal(path)
        assert len(journal) == 2  # both finished cells survived the crash

        # the resumed run replays those 2 and computes the rest
        before = path.read_text()
        resumed = run_sweep(
            tiny_env, thetas=THETAS, adopter_sets=sets, journal=journal
        )
        assert resumed == clean
        # completed cells were skipped: the journal grew strictly by appends
        assert path.read_text().startswith(before)
        assert len(journal) == len(clean)

    def test_resume_after_the_first_theta_of_every_row(self, tiny_env, tmp_path):
        """The replayed cells fill no state memo: the rest of each row
        must come out as if its first game had been played here."""
        sets = adopter_sets(tiny_env)
        thetas = (0.0, 0.05, 0.30)
        clean = run_sweep(tiny_env, thetas=thetas, adopter_sets=sets)

        journal = RunJournal(tmp_path / "sweep.jsonl")
        run_sweep(tiny_env, thetas=thetas, adopter_sets=sets, journal=journal)
        header = journal.header()
        first = [
            record for record in journal.records()
            if record.get("type") == "cell" and record["cell"]["theta"] == thetas[0]
        ]
        assert len(first) == len(sets)
        partial = RunJournal(tmp_path / "partial.jsonl")
        partial.ensure_header(header["kind"], header["meta"])
        for record in first:
            partial.append(record)

        sources: list[str] = []
        resumed = run_sweep(
            tiny_env, thetas=thetas, adopter_sets=sets, journal=partial,
            on_cell=lambda cell, source: sources.append(source),
        )
        assert resumed == clean
        assert sources == ["replayed", "computed", "computed"] * len(sets)

    def test_completed_journal_runs_nothing(self, tiny_env, tmp_path):
        sets = adopter_sets(tiny_env)
        path = tmp_path / "sweep.jsonl"
        first = run_sweep(tiny_env, thetas=THETAS, adopter_sets=sets, journal=path)
        snapshot = path.read_text()
        second = run_sweep(tiny_env, thetas=THETAS, adopter_sets=sets, journal=path)
        assert second == first
        assert path.read_text() == snapshot  # fully replayed, nothing appended

    def test_mismatched_grid_rejected(self, tiny_env, tmp_path):
        sets = adopter_sets(tiny_env)
        path = tmp_path / "sweep.jsonl"
        run_sweep(tiny_env, thetas=THETAS, adopter_sets=sets, journal=path)
        with pytest.raises(JournalMismatchError):
            run_sweep(
                tiny_env, thetas=(0.0, 0.30), adopter_sets=sets, journal=path
            )


_VICTIM_SCRIPT = """
import os, signal, sys
from repro.experiments.setup import build_environment
from repro.experiments.sweeps import run_sweep
from repro.runtime.journal import RunJournal

path, kill_after = sys.argv[1], int(sys.argv[2])
env = build_environment(n=120, seed=11, x=0.10, warm=True)
sets = env.adopter_sets()
sets = {"none": [], "top-5": sets["top-5"]}
journal = RunJournal(path)
if kill_after:
    durable_append = journal.append
    seen = [0]
    def append_then_maybe_die(record):
        durable_append(record)
        seen[0] += 1
        if seen[0] >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)
    journal.append = append_then_maybe_die
cells = run_sweep(env, thetas=(0.0, 0.05), adopter_sets=sets, journal=journal)
print(len(cells))
"""


def _run_victim(journal_path: Path, kill_after: int) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", _VICTIM_SCRIPT, str(journal_path), str(kill_after)],
        env=env, capture_output=True, text=True, timeout=300,
    )


class TestSigkillResume:
    def test_sigkill_mid_grid_then_resume(self, tiny_env, tmp_path):
        """Acceptance: SIGKILL mid-grid + restart == uninterrupted run."""
        path = tmp_path / "sweep.jsonl"
        killed = _run_victim(path, kill_after=2)
        assert killed.returncode == -signal.SIGKILL
        after_crash = path.read_text()
        journal = RunJournal(path)
        assert len(journal) == 2  # completed cells durably journaled

        resumed = _run_victim(path, kill_after=0)
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout.strip() == "4"

        # identical cell set to an uninterrupted in-process run
        clean = run_sweep(
            tiny_env, thetas=THETAS, adopter_sets=adopter_sets(tiny_env)
        )
        final = [
            cell_from_dict(r["cell"])
            for r in RunJournal(path).records()
            if r.get("type") == "cell"
        ]
        assert sorted(final, key=lambda c: (c.adopters, c.theta)) == sorted(
            clean, key=lambda c: (c.adopters, c.theta)
        )
        # the two crash-surviving cells were skipped, not recomputed
        assert path.read_text().startswith(after_crash)
        assert RunJournal(path).header()["kind"] == SWEEP_JOURNAL_KIND
