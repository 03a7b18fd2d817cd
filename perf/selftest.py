"""Self-test of the harness: plain asserts, run by ``run.py check``.

Not collected by pytest (the repo's ``python_files`` patterns would pick
up ``test_*.py`` and ``bench_*.py`` names, so nothing under ``perf/`` uses
them).
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

from spans import SpanRecorder
from stats import Deadline, DeadlineExceeded, quartiles, summarize

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def check_spans() -> None:
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with rec.span("parent") as parent:
        clock.now += 1.0                      # parent alone: 1 s
        with rec.span("child"):
            clock.now += 2.0
            with rec.span("grandchild"):
                clock.now += 0.5
        clock.now += 0.25                     # parent alone: 0.25 s
        with rec.span("child"):
            clock.now += 4.0
    assert parent.duration == 7.75
    times = rec.self_times()
    assert times == {"parent": 1.25, "child": 6.0, "grandchild": 0.5}, times
    assert rec.total("child") == 6.5 and rec.durations("child") == [2.5, 4.0]
    assert [s.parent for s in rec.spans] == [None, 0, 1, 0]

    # children reported from outside may overlap each other and the parent's
    # edges: self time subtracts the union, clipped to the parent
    rec = SpanRecorder(clock)
    with rec.span("parent") as parent:
        start = clock.now
        clock.now += 10.0
        rec.add("cell", start - 1.0, start + 4.0)
        rec.add("cell", start + 3.0, start + 6.0)
        rec.add("cell", start + 9.0, start + 12.0)
    assert rec.self_time(parent) == 10.0 - (6.0 + 1.0)


def check_stats() -> None:
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)
    values = [10.0, 12.0, 11.0, 30.0, 11.5]
    assert summarize(values) == {
        "median": 11.5, "q1": 10.5, "q3": 21.0, "min": 10.0, "max": 30.0, "n": 5,
    }
    try:
        quartiles([])
    except ValueError:
        pass
    else:
        raise AssertionError("quartiles([]) must raise")


def check_deadline() -> None:
    clock = FakeClock()
    deadline = Deadline(30.0, clock)
    clock.now += 29.9
    deadline.check("workload game")
    assert not deadline.expired() and abs(deadline.remaining() - 0.1) < 1e-9
    clock.now += 0.2
    assert deadline.expired()
    try:
        deadline.check("workload game")
    except DeadlineExceeded as exc:
        assert "workload game" in str(exc) and "30" in str(exc)
    else:
        raise AssertionError("an expired deadline must raise")


def check_schema(line: dict, contract: dict, trace: bool = False) -> None:
    """One result line against the contract's metric list."""
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, sorted(line)
    assert isinstance(line["correct"], bool)
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int) and 0 <= line["failed"] <= line["attempted"]
    specs = contract["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [s["name"] for s in specs], list(line["metrics"])
    for spec in specs:
        metric = line["metrics"][spec["name"]]
        assert NAME.match(spec["name"]), spec["name"]
        assert set(metric) == {"value", "unit"} and metric["unit"] == spec["unit"], metric
        assert isinstance(metric["value"], (int, float)), metric
    if not trace:
        assert "setup_s" in line["metrics"], "every workload reports setup_s"


def check_contract(contract: dict) -> None:
    """BENCHMARK.json against the limits the driver states and the code."""
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import run
    import workloads

    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert contract["paths"] == ["perf"] and contract["command"] == ["python3", "perf/run.py"]
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    assert [w["name"] for w in contract["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.LIBRARY) | {"service"}
    assert run.DEFAULT_SEED == workloads.CANONICAL_SEED
    for w in contract["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += [w["name"] for w in contract["workloads"]]
    assert len(names) == len(set(names)), "a name is used once"
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25, metric
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])
    assert {m["name"]: (m["unit"], m["better"]) for m in contract["per_layer"]} \
        == layers.LAYER_METRICS
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def digest_hash(digests: dict) -> str:
    """The hash stored beside a workload's digests in ``golden.json``."""
    body = {k: v for k, v in digests.items() if k != "sha256"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def check_golden() -> None:
    golden = json.loads((PERF / "golden.json").read_text())
    for workload, digests in golden.items():
        assert digests.get("sha256") == digest_hash(digests), (
            f"golden.json: the digests of workload {workload} were edited "
            "(regenerate with `run.py golden`)")

        def walk(value: object) -> None:
            if isinstance(value, (list, tuple)):
                for item in value:
                    walk(item)
            elif isinstance(value, dict):
                for item in value.values():
                    walk(item)
            else:
                # integers and strings only: nothing a numpy version can move
                assert isinstance(value, (int, str)) and not isinstance(value, bool), value

        walk(digests)
    # the same inputs through one or two workers must play the same game
    assert golden["game"] == golden["game_w2"]


def main() -> None:
    check_spans()
    check_stats()
    check_deadline()
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_contract(contract)
    check_golden()
    metrics = {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in contract["end_to_end"]}
    check_schema({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}, contract)
    print("selftest: ok")


if __name__ == "__main__":
    main()
