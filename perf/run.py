#!/usr/bin/env python3
"""The end-to-end performance ledger of the S*BGP deployment simulator.

    python3 perf/run.py --workload W --seed S --seconds T --trace 0|1
    python3 perf/run.py all   [--seed S] [--json OUT]
    python3 perf/run.py trace [--seed S] [--json OUT]
    python3 perf/run.py check

The first form is one run of one workload and prints one JSON object as
its last line (``BENCHMARK.json`` describes it).  ``all`` runs every
workload untraced and prints every end-to-end metric; ``trace`` runs
every workload traced and prints the per-layer budget; ``check`` is the
fast correctness pass (self-test, check-size digests, output schema).
``golden`` rewrites ``perf/golden.json`` from the current program.

Every workload runs in its own fresh process under a deadline.  A run
that overruns is stopped here, and the exit message names the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from stats import Deadline, DeadlineExceeded

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
WORK = ROOT / ".perf_work"
GOLDEN = PERF / "golden.json"

#: a run that takes longer than this is stopped (the driver allows 180 s)
DEADLINE_S = 150.0
CHECK_DEADLINE_S = 60.0

#: the canonical seed (``workloads.CANONICAL_SEED``; not imported, so that
#: this process never pays for importing the program)
DEFAULT_SEED = 2011

WORKLOADS = ("game", "game_w2", "sweep", "paper_shape", "attack_matrix", "service")


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def require_program() -> None:
    """The benchmark measures the checkout it sits in; without one it stops."""
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        sys.exit(f"perf/run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               budget: float = DEADLINE_S, golden: Path = GOLDEN) -> dict:
    """One workload in a fresh process with a private work directory."""
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "SBGP_KERNEL_BACKEND"}
    env.update(
        PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
        SBGP_KERNEL_CACHE=str(WORK / "kernels"), TMPDIR=str(work), HOME=str(work),
    )
    deadline = Deadline(budget)
    started = time.perf_counter()
    try:
        with open(work / "result.json", "w+") as out:
            proc = subprocess.Popen(
                [sys.executable, str(PERF / "worker.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                 "--work", str(work), "--golden", str(golden)],
                env=env, stdout=out, start_new_session=True,
            )
            try:
                while True:
                    try:
                        proc.wait(timeout=0.05)
                        break
                    except subprocess.TimeoutExpired:
                        deadline.check(f"workload {workload}")
            finally:
                # the session also holds the daemon and any pool workers
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
            if proc.returncode != 0:
                raise RuntimeError(f"workload {workload}: worker exited {proc.returncode}")
            out.seek(0)
            body = json.loads(out.read().strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    body["run_seconds"] = time.perf_counter() - started
    return body


def end_to_end(body: dict, contract: dict) -> dict:
    """Every end-to-end metric of one run, with its sample statistics."""
    metrics = {}
    for spec in contract["end_to_end"]:
        name = spec["name"]
        record = dict(body["summary"].get(name) or {"n": 0})
        # a workload that could not run reports 0 beside failed == attempted
        record["value"] = body["values"].get(name, 0.0)
        record["unit"] = spec["unit"]
        metrics[name] = record
    return metrics


def per_layer(body: dict, contract: dict) -> dict:
    return {
        spec["name"]: {"value": body["layers"][spec["name"]], "unit": spec["unit"]}
        for spec in contract["per_layer"]
    }


def contract_line(body: dict, metrics: dict) -> str:
    return json.dumps({
        "correct": body["failed"] == 0, "attempted": max(1, body["attempted"]),
        "failed": body["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    })


def machine() -> dict:
    import numpy

    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
        "numpy": numpy.__version__, "cc": shutil.which(os.environ.get("CC") or "cc"),
    }


def report_failures(body: dict) -> None:
    for failure in body["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)


def atomic():
    """The program's atomic-write module (result files go through it)."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from repro.runtime import atomic as module

    return module


def write_json(path: str | None, payload: dict) -> None:
    if path:
        atomic().atomic_write_json(path, payload)


def cmd_single(args: argparse.Namespace) -> int:
    contract = load_contract()
    body = run_worker(args.workload, args.seed, args.seconds, args.trace)
    report_failures(body)
    metrics = per_layer(body, contract) if args.trace else end_to_end(body, contract)
    print(contract_line(body, metrics))
    return 0


def cmd_all(args: argparse.Namespace) -> int:
    contract = load_contract()
    started = time.perf_counter()
    results = {}
    for workload in WORKLOADS:
        body = run_worker(workload, args.seed, args.seconds, trace=0)
        report_failures(body)
        metrics = end_to_end(body, contract)
        rate = body["failed"] / max(1, body["attempted"])
        results[workload] = {
            "metrics": metrics, "attempted": body["attempted"], "failed": body["failed"],
            "failure_rate": rate, "failures": body["failures"],
            "calib_s": body["calib_s"], "run_seconds": body["run_seconds"],
        }
        print(f"{workload}  ({body['run_seconds']:.1f} s, bench.calib_s {body['calib_s']:.4f})")
        for name, m in metrics.items():
            detail = ""
            if m["n"]:
                detail = (f"median {m['median']:.4f}  q1 {m['q1']:.4f}  "
                          f"q3 {m['q3']:.4f}  n {m['n']}")
            print(f"  {name:<22}{m['value']:>12.4f} {m['unit']:<6}{detail}")
        print(f"  {'failure_rate':<22}{rate:>12.4f}       "
              f"{body['failed']} of {body['attempted']} operations")
    total = time.perf_counter() - started
    print(f"all: {total:.1f} s")
    write_json(args.json, {
        "format": "repro.perf/1", "claim": None, "seed": args.seed,
        "machine": machine(), "total_seconds": total, "workloads": results,
    })
    return 1 if any(r["failed"] for r in results.values()) else 0


def cmd_trace(args: argparse.Namespace) -> int:
    contract = load_contract()
    started = time.perf_counter()
    results = {}
    failed = 0
    for workload in WORKLOADS:
        body = run_worker(workload, args.seed, args.seconds, trace=1)
        report_failures(body)
        failed += body["failed"]
        layers = per_layer(body, contract)
        results[workload] = {
            "layers": layers, "attempted": body["attempted"], "failed": body["failed"],
            "failures": body["failures"], "run_seconds": body["run_seconds"],
            "traced_s": body.get("traced_s", 0.0),
            "budget_s": body.get("budget_s", {}),
            "uncovered_s": body.get("uncovered_s", {}),
        }
        print(f"{workload}  ({body['run_seconds']:.1f} s)")
        for name, m in layers.items():
            if m["value"]:
                print(f"  {name:<32}{m['value']:>14.4f} {m['unit']}")
        traced = body.get("traced_s", 0.0)
        for label, rows in (("budget", "budget_s"), ("uncovered", "uncovered_s")):
            for name, seconds in body.get(rows, {}).items():
                print(f"  {label + ': ' + name:<46}{seconds:>9.4f} s"
                      f"{seconds / traced:>8.1%} of the traced iteration")
        if args.spans:
            write_json(f"{args.spans}.{workload}.json", {"spans": body.get("spans", [])})
    total = time.perf_counter() - started
    print(f"trace: {total:.1f} s")
    write_json(args.json, {
        "format": "repro.perf-trace/1", "seed": args.seed, "machine": machine(),
        "total_seconds": total, "workloads": results,
    })
    return 1 if failed else 0


def cmd_check(args: argparse.Namespace) -> int:
    import selftest

    started = time.perf_counter()
    try:
        selftest.main()
    except AssertionError as exc:
        print(f"check selftest: FAILED {exc}", file=sys.stderr)
        return 1
    contract = load_contract()
    status = 0
    for workload in WORKLOADS:
        body = run_worker(workload, args.seed, -1, trace=0, budget=CHECK_DEADLINE_S)
        selftest.check_schema(json.loads(contract_line(body, end_to_end(body, contract))), contract)
        verdict = "ok" if not body["failed"] else "FAILED"
        print(f"check {workload}: {verdict} ({body['attempted']} operations, "
              f"{body['run_seconds']:.1f} s)")
        report_failures(body)
        status |= bool(body["failed"])
    print(f"check: {time.perf_counter() - started:.1f} s")
    return status


def cmd_golden(args: argparse.Namespace) -> int:
    """Rewrite golden.json: digests of the canonical inputs, both sizes."""
    golden = {}
    for workload in WORKLOADS:
        body = run_worker(workload, DEFAULT_SEED, 0, trace=0, golden=PERF / "no-golden")
        report_failures(body)
        if body["failed"]:
            return 1
        golden[workload] = body["digests"]
        print(f"golden {workload}: {sorted(body['digests'])}")
    import selftest

    # one digest per line: a changed result shows as one changed line.  The
    # hash lets ``check`` catch an edit to a full-size digest it never runs.
    for digests in golden.values():
        digests["sha256"] = selftest.digest_hash(digests)
    text = ",\n".join(
        f' "{workload}": {{\n' + ",\n".join(
            f'  "{key}": {json.dumps(digest)}' for key, digest in digests.items()
        ) + "\n }"
        for workload, digests in golden.items()
    )
    atomic().atomic_write_text(GOLDEN, "{\n" + text + "\n}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", nargs="?", choices=("all", "trace", "check", "golden"))
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="OUT", help="also write the results here")
    parser.add_argument("--spans", metavar="PREFIX",
                        help="trace: write each workload's spans to PREFIX.<workload>.json")
    args = parser.parse_args(argv)
    if (args.mode is None) == (args.workload is None):
        parser.error("give either a mode (all, trace, check, golden) or --workload")
    require_program()
    if args.seconds is None:
        args.seconds = load_contract()["run_seconds"]
    command = {
        None: cmd_single, "all": cmd_all, "trace": cmd_trace,
        "check": cmd_check, "golden": cmd_golden,
    }[args.mode]
    try:
        return command(args)
    except DeadlineExceeded as exc:
        sys.exit(f"perf/run.py: {exc}")


if __name__ == "__main__":
    sys.exit(main())
