"""Sweep journals written before the sweep lost its attack axis.

``data/sweep_attack_off.jsonl`` was recorded with the axis off, so each
of its cells carries an empty ``"attack"`` list;
``data/sweep_attack_on.jsonl`` holds the same grid recorded with the
axis on (``origin_hijack``, 3 samples), whose header names the axis.
Both are the 400-AS ``medium_env`` grid of ``top-5`` and ``5-cps`` at
theta 0 and 0.3.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.experiments.sweeps import cell_from_dict, cell_to_dict, run_sweep
from repro.runtime.errors import JournalMismatchError

DATA = Path(__file__).parent / "data"


def _sweep(env, **kw):
    sets = env.adopter_sets()
    return run_sweep(
        env, thetas=(0.0, 0.3), adopter_sets={k: sets[k] for k in ("top-5", "5-cps")},
        **kw,
    )


@pytest.fixture(scope="module")
def fresh(medium_env):
    return _sweep(medium_env)


def _copy(name: str, tmp_path: Path) -> Path:
    path = tmp_path / name
    shutil.copyfile(DATA / name, path)
    return path


def test_an_old_journal_resumes_with_every_cell_replayed(medium_env, fresh, tmp_path):
    path = _copy("sweep_attack_off.jsonl", tmp_path)
    sources = []
    cells = _sweep(
        medium_env, journal=path, on_cell=lambda cell, source: sources.append(source)
    )
    assert cells == fresh
    assert sources == ["replayed"] * len(fresh)
    assert path.read_bytes() == (DATA / "sweep_attack_off.jsonl").read_bytes()


def test_a_fresh_header_is_the_old_one_byte_for_byte(medium_env, tmp_path):
    path = tmp_path / "fresh.jsonl"
    _sweep(medium_env, journal=path)
    old = (DATA / "sweep_attack_off.jsonl").read_text().splitlines()
    assert path.read_text().splitlines()[0] == old[0]


def test_a_journal_recorded_with_the_attack_axis_is_refused(medium_env, tmp_path):
    path = _copy("sweep_attack_on.jsonl", tmp_path)
    with pytest.raises(JournalMismatchError, match="attack_s"):
        _sweep(medium_env, journal=path)


def test_cells_round_trip(fresh):
    for cell in fresh:
        assert cell_from_dict(cell_to_dict(cell)) == cell


def test_payloads_with_an_attack_field_load(fresh):
    lines = (DATA / "sweep_attack_off.jsonl").read_text().splitlines()[1:]
    payloads = [json.loads(line)["record"]["cell"] for line in lines]
    assert all(p["attack"] == [] for p in payloads)
    assert [cell_from_dict(p) for p in payloads] == fresh
