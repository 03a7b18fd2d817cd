"""Advisory append locking on RunJournal (satellite of the job daemon).

``flock`` is per open-file-description, so a second descriptor in the
*same* process contends exactly like another process would — which
keeps these tests single-process and fast.
"""

from __future__ import annotations

import fcntl
import threading
import time

import pytest

from repro.runtime.errors import JournalError, JournalLockedError
from repro.runtime.journal import RunJournal


@pytest.fixture()
def journal(tmp_path):
    j = RunJournal(tmp_path / "run.jsonl", lock_timeout=0.2)
    j.ensure_header("test", {})
    return j


class TestContention:
    def test_held_lock_times_out_with_typed_error(self, journal):
        with open(journal.path, "a") as holder:
            fcntl.flock(holder.fileno(), fcntl.LOCK_EX)
            with pytest.raises(JournalLockedError) as excinfo:
                journal.append({"type": "cell", "i": 1})
        assert str(journal.path) in str(excinfo.value)
        assert isinstance(excinfo.value, JournalError)  # RPR008 hierarchy

    def test_released_lock_unblocks_appends(self, journal):
        with open(journal.path, "a") as holder:
            fcntl.flock(holder.fileno(), fcntl.LOCK_EX)
            fcntl.flock(holder.fileno(), fcntl.LOCK_UN)
            journal.append({"type": "cell", "i": 1})
        assert [r["i"] for r in journal.records()] == [1]

    def test_append_waits_out_short_contention(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl", lock_timeout=5.0)
        journal.ensure_header("test", {})
        holder = open(journal.path, "a")
        fcntl.flock(holder.fileno(), fcntl.LOCK_EX)

        def release_soon():
            time.sleep(0.15)
            holder.close()  # closing the fd drops the flock

        releaser = threading.Thread(target=release_soon)
        releaser.start()
        try:
            journal.append({"type": "cell", "i": 1})  # waits, then wins
        finally:
            releaser.join(timeout=10)
        assert [r["i"] for r in journal.records()] == [1]

    def test_failed_append_leaves_no_torn_line(self, journal):
        journal.append({"type": "cell", "i": 1})
        before = journal.path.read_bytes()
        with open(journal.path, "a") as holder:
            fcntl.flock(holder.fileno(), fcntl.LOCK_EX)
            with pytest.raises(JournalLockedError):
                journal.append({"type": "cell", "i": 2})
        assert journal.path.read_bytes() == before
        journal.append({"type": "cell", "i": 2})  # and the journal still works
        assert [r["i"] for r in journal.records()] == [1, 2]


class TestConcurrentWriters:
    def test_parallel_appends_never_interleave(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl", lock_timeout=30.0)
        journal.ensure_header("test", {})
        errors: list[BaseException] = []

        def writer(worker: int) -> None:
            try:
                for i in range(25):
                    journal.append({"type": "cell", "worker": worker, "i": i})
            except BaseException as exc:  # surfaced below, not swallowed
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        records = journal.records()
        assert len(records) == 4 * 25
        for worker in range(4):
            mine = [r["i"] for r in records if r["worker"] == worker]
            assert mine == list(range(25))  # per-writer order preserved
