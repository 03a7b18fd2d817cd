"""Untraced measurement: the seeded warm-up, the timed iterations, the ledger.

A run is a seeded warm-up followed by the timed iterations:

- the warm-up runs the workload's operation twice at its small check
  size on inputs generated from ``--seed`` and requires both results to
  be identical (and equal to ``golden.json`` at the canonical seed).  It
  loads every lazy import and the compiled kernels before timing starts
  and is never timed;
- the timed iterations run at the workload's full size on the canonical
  inputs, every one verified against ``golden.json``.  README.md says
  why the timed inputs do not vary with the seed.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable

from repro.experiments.setup import build_environment
from repro.experiments.sweeps import run_sweep

import service
from stats import Calibration, lower_quartile
from workloads import CANONICAL_SEED, Workload, cell_digest, named_sets

MIN_ITERATIONS = 3
SERVICE_N = {"full": 500, "check": 120}
SERVICE_ENVIRONMENTS = 4
SERVICE_STARTS = 3


class Ledger:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, Any] = {}

    def attempt(self, what: str, operation: Callable[[], Any]) -> Any:
        """Run one operation; an exception is a failed operation, not a crash."""
        self.attempted += 1
        try:
            return operation()
        except Exception as exc:  # boundary: every failure is counted and named
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def verify(self, what: str, key: str, digest: Any, canonical: bool) -> None:
        """Compare with the golden digest (canonical inputs) or the first sibling."""
        digest = json.loads(json.dumps(digest))
        expected = self.golden.get(key) if canonical else None
        if expected is None:
            expected = self.digests.setdefault(key, digest)
            source = "its sibling iteration"
        else:
            self.digests.setdefault(key, digest)
            source = "golden.json"
        if digest != expected:
            self.failures.append(f"{what}: result digest differs from {source}")


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def library_iteration(w: Workload, n: int, seed: int, tmp: Path) -> tuple[float, float, Any]:
    """Fresh set-up plus the operation; the result is consumed by its digest."""
    gc.collect()
    t0 = time.perf_counter()
    env = w.build(n, seed)
    t1 = time.perf_counter()
    result = w.run(env, tmp, seed)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, w.digest(env, result)


def warm_up(w: Workload, seed: int, tmp: Path, ledger: Ledger, passes: int = 2) -> bool:
    """The seeded check-size passes; False when the workload cannot run at all."""
    for _ in range(passes):
        outcome = ledger.attempt(
            f"{w.name} warm-up", lambda: library_iteration(w, w.check_n, seed, tmp)
        )
        if outcome is None:
            return False
        ledger.verify(f"{w.name} warm-up", "check", outcome[2], seed == CANONICAL_SEED)
    return True


def measure_library(w: Workload, seed: int, seconds: float, tmp: Path, ledger: Ledger) -> dict:
    calib = Calibration()
    if not warm_up(w, seed, tmp, ledger) or seconds < 0:
        return {"values": {}, "samples": {}, "calib_s": calib.run()}
    setup, wall, slowdown = [], [], []
    attempts = failed_in_a_row = 0
    calib.run()
    start = time.perf_counter()
    while attempts < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        attempts += 1
        outcome = ledger.attempt(
            w.name, lambda: library_iteration(w, w.n, CANONICAL_SEED, tmp)
        )
        calib.run()
        if outcome is None:
            failed_in_a_row += 1
            if failed_in_a_row == MIN_ITERATIONS:
                break  # it does not work: report the failures instead of spinning
            continue
        failed_in_a_row = 0
        setup.append(outcome[0])
        wall.append(outcome[1])
        slowdown.append(calib.slowdown())  # the calibrations either side
        ledger.verify(w.name, "full", outcome[2], canonical=True)
    raw = {"setup_s": setup, "wall_s": wall,
           "job_latency_cold_s": [s + t for s, t in zip(setup, wall)],
           "job_latency_warm_s": wall}
    samples = {
        name: [v / k for v, k in zip(values, slowdown)] for name, values in raw.items()
    }
    values = {name: lower_quartile(v) for name, v in samples.items() if v}
    if values:
        # closed loop, one client, a fresh environment per operation
        values["jobs_per_s"] = 1.0 / values["job_latency_cold_s"]
        values["peak_rss_mib"] = peak_rss_mib()
    return {
        "values": values, "samples": samples, "raw_samples": raw,
        "calib_s": calib.median(), "calib_samples": calib.samples,
    }


def verify_records(n: int, records: list[service.JobRecord], key: str,
                   canonical: bool, ledger: Ledger) -> None:
    for record in records:
        what = f"service {record.label} job (seed {record.env_seed})"
        ledger.attempted += 1
        if record.error is not None or record.doc is None:
            ledger.failures.append(f"{what}: {record.error or 'no result'}")
            continue
        label = "cold" if record.label == "coalesced" else record.label
        ledger.verify(
            what, f"{key}/{record.env_seed}/{label}",
            service.job_digest(n, record.doc), canonical,
        )


def direct_sweep_digest(n: int, seed: int) -> Any:
    """The cold sweep job computed in this process, without the daemon."""
    spec = dict(service.episode_specs(n, seed))["cold"]
    env = build_environment(n=n, seed=seed, x=spec["x"])
    cells = run_sweep(
        env, thetas=spec["thetas"],
        adopter_sets=named_sets(env, tuple(spec["adopter_sets"])),
    )
    return [cell_digest(n, c) for c in cells]


def service_warm_up(daemon: service.Daemon, seed: int, ledger: Ledger) -> None:
    """One seeded check-size episode; its cold sweep must equal a direct run."""
    n = SERVICE_N["check"]
    _, records = service.run_episode(daemon.base, n, seed)
    verify_records(n, records, "check", seed == CANONICAL_SEED, ledger)
    cold = records[0]
    if cold.doc is None:
        return
    direct = ledger.attempt(
        "service warm-up vs direct run_sweep", lambda: direct_sweep_digest(n, seed)
    )
    if direct is not None and direct != service.job_digest(n, cold.doc):
        ledger.failures.append(
            "service warm-up: daemon result differs from a direct run_sweep"
        )


def measure_service(seed: int, seconds: float, tmp: Path, ledger: Ledger,
                    trace: bool) -> dict:
    """Daemon start-ups, the seeded warm-up episode, the timed client phase.

    The traced run starts the daemon once, skips the warm-up and gives
    each client one environment: enough to pass every layer once.
    """
    calib = Calibration()
    calib.run()
    starts, start_slowdown = [], []

    def start(store: str) -> service.Daemon:
        daemon = service.Daemon(tmp / store)
        calib.run()
        starts.append(daemon.start_seconds)
        start_slowdown.append(calib.slowdown())
        return daemon

    for k in range(0 if trace or seconds < 0 else SERVICE_STARTS - 1):
        start(f"spare{k}").stop()
        calib.run()
    daemon = start("store")
    try:
        if not trace:
            service_warm_up(daemon, seed, ledger)
        if seconds < 0:
            return {"values": {}, "samples": {"setup_s": starts}, "calib_s": calib.median()}
        n = SERVICE_N["full"]
        seeds = [CANONICAL_SEED + k
                 for k in range(service.CLIENTS if trace else SERVICE_ENVIRONMENTS)]
        for _ in range(3):
            calib.run()
        phase, episodes, records = service.run_clients(daemon.base, n, seeds)
        for _ in range(3):
            calib.run()
        # the daemon is another process and its clients only wait, so the
        # machine's speed is taken right before and right after the phase.
        # (Sampling it from a third thread *during* the phase was tried: on
        # two hyperthreads it slows the daemon and reads 1.5x slow itself.)
        slowdown = calib.slowdown(last=6)
        verify_records(n, records, "full", True, ledger)
        jobs = [r for r in records if r.doc is not None and r.label != "coalesced"]
        if len(jobs) < len(seeds) * 5:
            # a job without a result is already a counted failure; there is
            # no complete phase to take timings from
            return {"values": {}, "samples": {}, "calib_s": calib.median()}
        raw = {
            "setup_s": starts, "wall_s": episodes,
            "job_latency_cold_s": [r.latency_s for r in jobs if r.label == "cold"],
            "job_latency_warm_s": [r.latency_s for r in jobs if r.label != "cold"],
        }
        samples = {name: [v / slowdown for v in values] for name, values in raw.items()}
        samples["setup_s"] = [s / k for s, k in zip(starts, start_slowdown)]
        out = {
            "values": {
                # 3 starts and 4 episodes: too few for a quartile to repeat
                "setup_s": statistics.median(samples["setup_s"]),
                "wall_s": statistics.median(samples["wall_s"]),
                # a job finds the one worker free or waits for the other
                # client's job: two modes, and the median of 4 or 16 samples
                # sits in the gap between them.  The mean is what Little's
                # law ties to jobs_per_s, and it repeats.
                "job_latency_cold_s": statistics.fmean(samples["job_latency_cold_s"]),
                "job_latency_warm_s": statistics.fmean(samples["job_latency_warm_s"]),
                "jobs_per_s": len(jobs) / (phase / slowdown),
            },
            "samples": samples, "raw_samples": raw,
            "calib_s": calib.median(), "calib_samples": calib.samples,
        }
        if trace:
            t0 = time.perf_counter()
            out["layers"] = service.trace_layers(daemon, records)
            out["layers"].update({
                "service.start_s": statistics.median(starts),
                # the trace is read after the phase, so this is its whole cost
                "bench.trace_overhead_frac": (time.perf_counter() - t0) / phase,
            })
        out["values"]["peak_rss_mib"] = daemon.peak_rss_mib()
        return out
    finally:
        code = daemon.stop()
        if code != 0:
            ledger.attempted += 1
            ledger.failures.append(f"service: daemon exited with code {code}")
