"""Worker functions whose writes the fork-safety pass must classify."""

import contextlib
import threading

COUNTER: dict[str, int] = {}
OPENED: dict[str, int] = {}
TOTALS: dict[str, int] = {}
STATS: dict[str, int] = {}
_LOCK = threading.Lock()
_tls = threading.local()


def record(key: str) -> None:
    COUNTER[key] = COUNTER.get(key, 0) + 1  # expect: RPR016
    record_locked(key)
    record_threadlocal(key)
    record_waived(key)
    with opened(key):  # a with-header's call runs on the worker too
        helper_pure(key)


@contextlib.contextmanager
def opened(key: str):
    OPENED[key] = 1  # expect: RPR016
    yield


def record_locked(key: str) -> None:
    with _LOCK:
        TOTALS[key] = TOTALS.get(key, 0) + 1  # under a lock: exempt


def record_threadlocal(key: str) -> None:
    _tls.last = key  # threading.local(): per-thread by construction, exempt


def record_waived(key: str) -> None:
    STATS[key] = 1  # repro-lint: disable=RPR016 -- per-process scratch, merged by the parent after join


def helper_pure(key: str) -> str:
    local: dict[str, int] = {}
    local[key] = 1  # plain local mutation: never flagged
    return key


def cold_write(key: str) -> None:
    # identical write shape, but unreachable from any entry point
    COUNTER[key] = 0


def stale_waiver(key: str) -> str:
    scratch = {key: 1}  # repro-lint: disable=RPR016 -- expect: RPR010
    return str(scratch)
