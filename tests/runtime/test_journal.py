"""The run journal must survive crashes: torn tails, mixed runs, replay."""

from __future__ import annotations

import json

import pytest

from repro.runtime import journal as journal_module
from repro.runtime.errors import JournalCorruptError, JournalMismatchError
from repro.runtime.journal import JOURNAL_FORMAT, CellLog, RunJournal


@pytest.fixture
def journal(tmp_path):
    j = RunJournal(tmp_path / "run.jsonl")
    j.ensure_header("test", {"n": 3})
    return j


class TestAppendReplay:
    def test_records_replay_in_order(self, journal):
        for i in range(5):
            journal.append({"type": "cell", "i": i})
        assert [r["i"] for r in journal.records()] == [0, 1, 2, 3, 4]
        assert len(journal) == 5

    def test_header_contents(self, journal):
        header = journal.header()
        assert header["format"] == JOURNAL_FORMAT
        assert header["kind"] == "test"
        assert header["meta"] == {"n": 3}

    def test_empty_journal(self, tmp_path):
        j = RunJournal(tmp_path / "missing.jsonl")
        assert not j.exists()
        assert j.header() is None
        assert j.records() == []

    def test_reopen_validates_matching_header(self, journal):
        again = RunJournal(journal.path)
        again.ensure_header("test", {"n": 3})  # no error
        again.append({"type": "cell", "i": 0})
        assert len(again) == 1


class TestMismatch:
    def test_different_meta_rejected(self, journal):
        with pytest.raises(JournalMismatchError, match="mismatched keys: \\['n'\\]"):
            RunJournal(journal.path).ensure_header("test", {"n": 4})

    def test_different_kind_rejected(self, journal):
        with pytest.raises(JournalMismatchError, match="kind"):
            RunJournal(journal.path).ensure_header("other", {"n": 3})


class TestCorruption:
    def test_torn_final_line_dropped(self, journal):
        journal.append({"i": 0})
        journal.append({"i": 1})
        text = journal.path.read_text()
        journal.path.write_text(text[:-20])  # tear the last append
        assert [r["i"] for r in journal.records()] == [0]

    def test_torn_tail_repaired_before_next_append(self, journal):
        journal.append({"i": 0})
        journal.path.write_text(journal.path.read_text() + '{"rec')
        again = RunJournal(journal.path)
        again.ensure_header("test", {"n": 3})  # repairs the tail
        again.append({"i": 1})
        assert [r["i"] for r in again.records()] == [0, 1]

    def test_mid_file_damage_raises(self, journal):
        journal.append({"i": 0})
        journal.append({"i": 1})
        lines = journal.path.read_text().splitlines()
        lines[1] = lines[1][:-15] + "}"  # damage a non-final record
        journal.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptError):
            journal.records()

    def test_checksum_guards_record_edits(self, journal):
        journal.append({"i": 0})
        journal.append({"i": 1})
        text = journal.path.read_text().replace('"i": 0', '"i": 9')
        journal.path.write_text(text)
        with pytest.raises(JournalCorruptError, match="checksum"):
            journal.records()

    def test_torn_header_only_repaired_to_empty(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"format": "repro.run-jour')
        j = RunJournal(path)
        j.ensure_header("test", {"n": 1})
        assert j.header()["kind"] == "test"

    def test_wrong_format_line_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps({"format": "something/9"}) + "\n" * 2)
        with pytest.raises(JournalCorruptError, match="not a"):
            RunJournal(path).records()


class TestOneReadPerOpen:
    """Opening a journal reads the file once and verifies each record once."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"reads": 0, "checksums": 0}
        read, checksum = RunJournal._read_lines, journal_module._record_checksum

        def counting_read(self):
            calls["reads"] += 1
            return read(self)

        def counting_checksum(record):
            calls["checksums"] += 1
            return checksum(record)

        monkeypatch.setattr(RunJournal, "_read_lines", counting_read)
        monkeypatch.setattr(journal_module, "_record_checksum", counting_checksum)
        return calls

    @pytest.fixture
    def hundred(self, tmp_path):
        j = RunJournal(tmp_path / "grid.jsonl")
        j.ensure_header("grid", {"n": 1, "policy": "p"})
        for i in range(100):
            j.append({"type": "cell", "cell": {"i": i}})
        return j.path

    def test_a_cell_log_reads_once(self, hundred, counted):
        log = CellLog(
            hundred, "grid", {"n": 1, "policy": "p"}, named="policy", legacy="p",
            key=lambda cell: (cell["i"],), encode=dict, decode=dict, telemetry="t",
        )
        assert counted == {"reads": 1, "checksums": 100}
        assert log.lookup((99,)) == {"i": 99}

    def test_ensure_header_reads_once_and_returns_the_records(self, hundred, counted):
        records = RunJournal(hundred).ensure_header("grid", {"n": 1, "policy": "p"})
        assert counted == {"reads": 1, "checksums": 100}
        assert [r["cell"]["i"] for r in records] == list(range(100))

    def test_a_torn_tail_is_cut_in_the_same_read(self, hundred, counted):
        hundred.write_text(hundred.read_text() + '{"rec')
        records = RunJournal(hundred).ensure_header("grid", {"n": 1, "policy": "p"})
        assert counted == {"reads": 1, "checksums": 100}
        assert len(records) == 100
        assert len(hundred.read_text().splitlines()) == 101
