"""Tests for the attack × policy × deployment matrix runner."""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.experiments.attack_matrix import (
    AttackMatrixCell,
    cell_from_dict,
    cell_to_dict,
    matrix_to_rows,
    run_attack_matrix,
)
from repro.experiments.setup import build_environment
from repro.runtime.errors import JournalMismatchError, SchemaError
from repro.runtime.journal import RunJournal
from repro.telemetry.metrics import MetricsRegistry, use_registry

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def cells(medium_env):
    return run_attack_matrix(
        medium_env,
        scenarios=["origin_hijack", "route_leak"],
        policies=["security_3rd"],
        strategies=["top_isp_first"],
        levels=(0.0, 1.0),
        samples=4,
    )


class TestGrid:
    def test_complete_and_unique(self, cells):
        assert len(cells) == 4  # 2 scenarios x 1 policy x 1 strategy x 2 levels
        assert len({c.key for c in cells}) == 4

    def test_cells_well_formed(self, cells):
        for c in cells:
            assert c.outcome in ("ok", "no-convergence")
            assert c.samples == 4
            assert 0.0 <= c.fraction_secure <= 1.0
            assert 0.0 <= c.mean_fraction_fooled <= c.max_fraction_fooled <= 1.0

    def test_deployment_levels_materialise(self, cells):
        by_level = {c.level: c for c in cells if c.scenario == "origin_hijack"}
        assert by_level[0.0].fraction_secure == 0.0
        assert by_level[1.0].fraction_secure > 0.0

    def test_aliases_canonicalised(self, medium_env):
        cells = run_attack_matrix(
            medium_env,
            scenarios=["hijack"],          # alias for origin_hijack
            policies=["security_3rd"],
            strategies=["top_isp_first"],
            levels=(0.0,),
            samples=2,
        )
        assert [c.scenario for c in cells] == ["origin_hijack"]

    def test_unknown_names_fail_fast(self, medium_env):
        with pytest.raises(ValueError, match="unknown attack scenario"):
            run_attack_matrix(medium_env, scenarios=["nope"], levels=(0.0,))
        with pytest.raises(ValueError, match="unknown"):
            run_attack_matrix(medium_env, policies=["nope"], levels=(0.0,))
        with pytest.raises(ValueError, match="unknown deployment strategy"):
            run_attack_matrix(medium_env, strategies=["nope"], levels=(0.0,))

    def test_rows_align_with_cells(self, cells):
        rows = matrix_to_rows(cells)
        assert len(rows) == len(cells)
        assert all(len(r) == 8 for r in rows)


class TestCellSerialisation:
    def test_round_trip(self, cells):
        for cell in cells:
            assert cell_from_dict(cell_to_dict(cell)) == cell

    def test_unknown_keys_ignored(self, cells):
        payload = cell_to_dict(cells[0])
        payload["future_field"] = 123
        assert cell_from_dict(payload) == cells[0]


class TestJournal:
    KW = dict(
        scenarios=["origin_hijack", "subprefix_hijack"],
        policies=["security_3rd"],
        strategies=["top_isp_first"],
        levels=(0.0, 1.0),
        samples=3,
    )

    def test_resume_replays_identically(self, medium_env, tmp_path):
        journal = RunJournal(tmp_path / "matrix.jsonl")
        first = run_attack_matrix(medium_env, journal=journal, **self.KW)
        sources: list[str] = []
        second = run_attack_matrix(
            medium_env, journal=journal,
            on_cell=lambda cell, source: sources.append(source), **self.KW,
        )
        assert second == first
        assert sources == ["replayed"] * len(first)

    def test_partial_journal_computes_only_the_rest(self, medium_env, tmp_path):
        journal = RunJournal(tmp_path / "matrix.jsonl")
        full = run_attack_matrix(medium_env, journal=journal, **self.KW)
        # drop the last cell record and resume: exactly one recompute
        lines = journal.path.read_text().splitlines()
        journal.path.write_text("\n".join(lines[:-1]) + "\n")
        sources: list[str] = []
        again = run_attack_matrix(
            medium_env, journal=RunJournal(journal.path),
            on_cell=lambda cell, source: sources.append(source), **self.KW,
        )
        assert again == full
        assert sources.count("computed") == 1
        assert sources.count("replayed") == len(full) - 1

    def test_scenario_mismatch_names_both_sets(self, medium_env, tmp_path):
        journal = RunJournal(tmp_path / "matrix.jsonl")
        run_attack_matrix(medium_env, journal=journal, **self.KW)
        kw = dict(self.KW, scenarios=["route_leak"])
        with pytest.raises(SchemaError) as excinfo:
            run_attack_matrix(medium_env, journal=journal, **kw)
        message = str(excinfo.value)
        assert "origin_hijack" in message and "route_leak" in message

    def test_other_meta_mismatch_still_guarded(self, medium_env, tmp_path):
        journal = RunJournal(tmp_path / "matrix.jsonl")
        run_attack_matrix(medium_env, journal=journal, **self.KW)
        kw = dict(self.KW, samples=5)
        with pytest.raises(JournalMismatchError):
            run_attack_matrix(medium_env, journal=journal, **kw)


class TestTelemetry:
    def test_counters_and_spans(self, medium_env):
        from repro.telemetry.metrics import MetricsRegistry, use_registry
        from repro.telemetry.spans import Tracer, use_tracer

        registry, tracer = MetricsRegistry(), Tracer()
        with use_registry(registry), use_tracer(tracer):
            run_attack_matrix(
                medium_env,
                scenarios=["origin_hijack"], policies=["security_3rd"],
                strategies=["top_isp_first"], levels=(0.0,), samples=2,
            )
        snapshot = registry.snapshot()
        spans = [e.name for e in tracer.events()]
        assert snapshot["counters"]["security.attack.cells"] == 1
        assert snapshot["counters"]["security.attack.batches"] >= 1
        assert "attack.matrix" in spans and "attack.cell" in spans


class TestSharedStates:
    """Cells that hand the kernel one problem share its attacks:
    strategies that reach one deployment state, and rankings that differ
    only in where SecP sits when nobody applies it."""

    KW = dict(
        scenarios=["origin_hijack", "route_leak"],
        policies=["security_3rd", "security_1st"],
        strategies=["top_isp_first", "random"],
        levels=(0.0, 0.5),
        samples=3,
    )

    def test_equals_the_matrix_computed_cell_by_cell(self, medium_env):
        from repro.telemetry.metrics import MetricsRegistry, use_registry

        with use_registry(MetricsRegistry()) as registry:
            cells = run_attack_matrix(medium_env, **self.KW)
            counters = registry.snapshot()["counters"]
        # everybody's level 0 is nobody deployed, where SecP decides
        # nothing: of its eight cells, one per scenario is attacked
        assert counters["security.attack.cells_shared"] == 6
        assert counters["security.attack.cells"] == len(cells) == 16
        for cell in cells:
            alone = run_attack_matrix(
                medium_env, **dict(
                    self.KW, scenarios=[cell.scenario], policies=[cell.policy],
                    strategies=[cell.strategy], levels=(cell.level,),
                ),
            )
            assert alone == [cell]

    def test_shared_cells_are_journaled_computed_and_replayed(self, medium_env, tmp_path):
        journal = RunJournal(tmp_path / "matrix.jsonl")
        sources: list[str] = []
        first = run_attack_matrix(
            medium_env, journal=journal,
            on_cell=lambda cell, source: sources.append(source), **self.KW,
        )
        assert sources == ["computed"] * len(first)
        records = [r for r in journal.records() if r.get("type") == "cell"]
        assert len(records) == len(first)
        sources.clear()
        again = run_attack_matrix(
            medium_env, journal=RunJournal(journal.path),
            on_cell=lambda cell, source: sources.append(source), **self.KW,
        )
        assert again == first
        assert sources == ["replayed"] * len(first)


class TestWorkloadGrid:
    """The benchmark's attack grid (N=1000, seed 2011, 120 cells, 16
    pairs): one attack per distinct kernel problem."""

    KW = dict(
        scenarios=["origin_hijack", "subprefix_hijack", "route_leak", "forged_origin"],
        policies=[
            "security_3rd", "security_2nd", "security_1st", "sp_first", "sticky_primaries",
        ],
        strategies=["top_isp_first", "random"],
        levels=(0.0, 0.25, 0.5),
        samples=16,
        seed=2011,
    )

    @pytest.fixture(scope="class")
    def env(self):
        return build_environment(n=1000, seed=2011)

    @pytest.fixture(scope="class")
    def grid(self, env):
        with use_registry(MetricsRegistry()) as registry:
            cells = run_attack_matrix(env, **self.KW)
            return cells, registry.snapshot()["counters"]

    def test_one_attack_per_kernel_problem(self, grid):
        cells, counters = grid
        assert counters["security.attack.cells"] == len(cells) == 120
        # level 0 of either strategy is nobody deployed: its 40 cells
        # are one problem per scenario under the four rankings with LP
        # above SP, and one under sp_first
        assert counters["security.attack.cells_shared"] == 32
        assert counters["security.attack.batches"] == 88

    def test_every_cell_names_its_own_coordinates(self, grid):
        cells, _ = grid
        kw = self.KW
        assert [c.key for c in cells] == [
            (scenario, policy, strategy, level)
            for strategy in kw["strategies"] for level in kw["levels"]
            for scenario in kw["scenarios"] for policy in kw["policies"]
        ]
        first = {c.key: c for c in cells}
        for cell in cells:
            if cell.level == 0.0 and cell.policy != "sp_first":
                # a shared cell: the first one attacked, under its own name
                base = first[(cell.scenario, "security_3rd", "top_isp_first", 0.0)]
                assert cell == dataclasses.replace(
                    base, policy=cell.policy, strategy=cell.strategy
                )

    def test_equals_each_policy_run_on_its_own(self, env, grid):
        cells, _ = grid
        for policy in self.KW["policies"]:
            alone = run_attack_matrix(env, **dict(self.KW, policies=[policy]))
            assert alone == [c for c in cells if c.policy == policy], policy


class TestJournalFromPerPolicyAttacks:
    """``data/attack_matrix_parent.jsonl`` was written when the grid
    attacked every ``(deployment state, scenario, policy)`` on its own:
    the ``medium_env`` grid of ``KW``, 32 cells."""

    KW = dict(
        scenarios=["origin_hijack", "route_leak"],
        policies=["security_3rd", "security_1st", "sp_first", "sticky_primaries"],
        strategies=["top_isp_first", "random"],
        levels=(0.0, 0.5),
        samples=3,
    )
    NAME = "attack_matrix_parent.jsonl"

    def _resume(self, env, path):
        sources: list[str] = []
        cells = run_attack_matrix(
            env, journal=RunJournal(path),
            on_cell=lambda cell, source: sources.append(source), **self.KW,
        )
        return cells, sources

    def test_every_cell_replays_as_computed_now(self, medium_env, tmp_path):
        path = tmp_path / self.NAME
        path.write_bytes((DATA / self.NAME).read_bytes())
        cells, sources = self._resume(medium_env, path)
        assert sources == ["replayed"] * 32
        assert cells == run_attack_matrix(medium_env, **self.KW)
        assert path.read_bytes() == (DATA / self.NAME).read_bytes()

    def test_a_cut_journal_is_completed_byte_for_byte(self, medium_env, tmp_path):
        lines = (DATA / self.NAME).read_text().splitlines(keepends=True)
        path = tmp_path / self.NAME
        path.write_text("".join(lines[:11]))   # the header and 10 cells
        _, sources = self._resume(medium_env, path)
        assert sources == ["replayed"] * 10 + ["computed"] * 22
        assert path.read_bytes() == (DATA / self.NAME).read_bytes()
