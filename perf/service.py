"""The ``service`` workload: a real daemon, two closed-loop HTTP clients.

``python -m repro.cli serve --store TMP --port 0 --job-workers 1`` runs as
a subprocess.  Each environment gets one scripted episode: a cold sweep
job and its duplicate (coalesced), an overlapping grid (cell-cache
hits), a disjoint-theta grid (arena hit only), a case-study and a small
attack-matrix job.  Two client threads split the environments between
them; each sends its next request only after the previous one
completed and polls a running job every 10 ms.
"""

from __future__ import annotations

import json
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any

from workloads import THETA, cell_digest, matrix_digest

POLL_SECONDS = 0.010
CLIENTS = 2
JOB_TIMEOUT = 120.0
STOP_TIMEOUT = 20.0
SETS = ["cps+top-5"]


def episode_specs(n: int, seed: int) -> list[tuple[str, dict]]:
    """The scripted job mix of one environment, in submission order."""
    base = {"n": n, "seed": seed, "x": 0.10}
    sweep = {**base, "kind": "sweep", "adopter_sets": SETS}
    return [
        ("cold", {**sweep, "thetas": [0.0, THETA]}),
        ("overlap", {**sweep, "thetas": [0.0, THETA, 0.30]}),
        ("disjoint", {**sweep, "thetas": [0.10]}),
        ("case-study", {**base, "kind": "case-study", "theta": THETA}),
        ("attack-matrix", {
            **base, "kind": "attack-matrix", "scenarios": ["origin_hijack"],
            "policies": ["security_3rd", "security_1st"],
            "strategies": ["top_isp_first"], "levels": [0.0, 0.5],
            "attack_samples": 4, "attack_seed": seed,
        }),
    ]


def job_digest(n: int, doc: dict) -> Any:
    """A result document as integers and strings."""
    if doc["kind"] == "sweep":
        return [cell_digest(n, c) for c in doc["cells"]]
    if doc["kind"] == "attack-matrix":
        return matrix_digest(n, doc["cells"])
    return {
        "adopters": sorted(doc["early_adopter_asns"]),
        "num_rounds": doc["num_rounds"], "outcome": doc["outcome"],
        "new_ases_per_round": doc["new_ases_per_round"],
        "new_isps_per_round": doc["new_isps_per_round"],
    }


class HttpFailure(RuntimeError):
    """A response outside 2xx."""


def http(base: str, path: str, method: str = "GET", payload: dict | None = None) -> bytes:
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.read()
    except urllib.error.HTTPError as exc:
        raise HttpFailure(f"{method} {path}: HTTP {exc.code}") from exc


class Daemon:
    """The daemon subprocess; always SIGTERMed and reaped."""

    def __init__(self, store: Path):
        self.store = store
        self.base = ""
        spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--store", str(store),
             "--port", "0", "--job-workers", "1"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            self._await_healthz()
        except BaseException:
            self.stop()
            raise
        #: spawn -> first 200 from /healthz
        self.start_seconds = time.perf_counter() - spawned

    def _await_healthz(self) -> None:
        endpoint = self.store / "endpoint.json"
        limit = time.monotonic() + 60.0
        while time.monotonic() < limit:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited early: {self.proc.stderr.read().decode()[-500:]}"
                )
            if endpoint.exists():
                try:
                    self.base = json.loads(endpoint.read_text())["url"]
                except (json.JSONDecodeError, KeyError):
                    pass  # caught mid-write
                else:
                    http(self.base, "/healthz")
                    return
            time.sleep(0.005)
        raise RuntimeError("daemon never published endpoint.json")

    def peak_rss_mib(self) -> float:
        """The daemon's high-water RSS (``VmHWM``)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=STOP_TIMEOUT)
        self.proc.stderr.close()
        return self.proc.returncode


class JobRecord:
    """One submission as its client saw it."""

    def __init__(self, label: str, env_seed: int):
        self.label = label
        self.env_seed = env_seed
        self.id = ""
        self.submit_s = 0.0
        self.latency_s = 0.0      # POST sent -> result body fetched
        self.fetch_s = 0.0
        self.result_bytes = 0
        self.doc: dict | None = None
        self.error: str | None = None


def run_job(base: str, label: str, env_seed: int, spec: dict,
            duplicate: bool = False) -> list[JobRecord]:
    """Submit, poll to a terminal state, fetch the result.

    With ``duplicate`` the same spec is posted a second time right
    after the first, while the job is still active, so the daemon
    coalesces it; both submissions then wait for the one execution.
    """
    records = [JobRecord(label, env_seed)]
    start = time.perf_counter()
    job = json.loads(http(base, "/v1/jobs", "POST", spec))
    records[0].submit_s = time.perf_counter() - start
    records[0].id = job["id"]
    if duplicate:
        twin = JobRecord("coalesced", env_seed)
        t0 = time.perf_counter()
        again = json.loads(http(base, "/v1/jobs", "POST", spec))
        twin.submit_s = time.perf_counter() - t0
        twin.id = again["id"]
        if again["id"] != job["id"] or again.get("created", True):
            twin.error = "duplicate submission was not coalesced"
        records.append(twin)
    limit = time.monotonic() + JOB_TIMEOUT
    while job["state"] not in ("done", "failed", "cancelled"):
        if time.monotonic() > limit:
            records[0].error = f"job {job['id']} still {job['state']}"
            return records
        time.sleep(POLL_SECONDS)
        job = json.loads(http(base, f"/v1/jobs/{job['id']}"))
    if job["state"] != "done":
        records[0].error = f"job {job['id']} ended {job['state']}: {job['error']}"
        return records
    t0 = time.perf_counter()
    body = http(base, f"/v1/jobs/{job['id']}/result")
    now = time.perf_counter()
    for record in records:
        record.fetch_s = now - t0
        record.latency_s = now - start
        record.result_bytes = len(body)
        record.doc = json.loads(body)
    return records


def run_episode(base: str, n: int, env_seed: int) -> tuple[float, list[JobRecord]]:
    """One environment's scripted mix; returns its wall time and records."""
    records: list[JobRecord] = []
    start = time.perf_counter()
    for label, spec in episode_specs(n, env_seed):
        try:
            records += run_job(base, label, env_seed, spec, duplicate=label == "cold")
        except (HttpFailure, OSError) as exc:
            failed = JobRecord(label, env_seed)
            failed.error = str(exc)
            records.append(failed)
    return time.perf_counter() - start, records


def run_clients(base: str, n: int, env_seeds: list[int]) -> tuple[float, list[float], list[JobRecord]]:
    """All episodes, split over ``CLIENTS`` closed-loop client threads.

    Returns the phase's wall time, every episode's, and the records.
    """
    episodes: list[float] = []
    records: list[JobRecord] = []
    lock = threading.Lock()

    def client(seeds: list[int]) -> None:
        for env_seed in seeds:
            wall, recs = run_episode(base, n, env_seed)
            with lock:
                episodes.append(wall)
                records.extend(recs)

    threads = [
        threading.Thread(target=client, args=(env_seeds[k::CLIENTS],), daemon=True)
        for k in range(CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOB_TIMEOUT * 6)
        if thread.is_alive():
            raise RuntimeError("service client did not finish")
    return time.perf_counter() - start, episodes, records


def job_events(base: str, job_id: str) -> dict[str, float]:
    """Queue wait and run time of one job from its ``/events`` timestamps."""
    stamps: dict[str, float] = {}
    for line in http(base, f"/v1/jobs/{job_id}/events").decode().splitlines():
        event = json.loads(line)
        key = event.get("state") if event["event"] == "state" else event["event"]
        stamps.setdefault(key, event["ts"])
    return {
        "queue_wait_s": stamps["running"] - stamps["submitted"],
        "run_s": stamps["done"] - stamps["running"],
    }


def prometheus_value(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


def trace_layers(daemon: Daemon, records: list[JobRecord]) -> dict[str, float]:
    """Per-layer numbers read from the daemon's own endpoints after the run."""
    base = daemon.base
    jobs = [r for r in records if r.doc is not None and r.label != "coalesced"]
    events = [job_events(base, r.id) for r in jobs]
    healthz = []
    for _ in range(20):
        t0 = time.perf_counter()
        http(base, "/healthz")
        healthz.append(time.perf_counter() - t0)
    metrics = http(base, "/metrics").decode()
    cell_hits = prometheus_value(metrics, "repro_service_cache_cell_hits_total")
    cell_misses = prometheus_value(metrics, "repro_service_cache_cell_misses_total")
    store_bytes = sum(
        p.stat().st_size for p in daemon.store.rglob("*") if p.is_file()
    )
    # what of a job's latency its submit, queue wait, run and fetch explain;
    # the rest is the 10 ms poll and the store's state transitions
    explained = sum(
        r.submit_s + e["queue_wait_s"] + e["run_s"] + r.fetch_s
        for r, e in zip(jobs, events)
    )
    ms = 1000.0
    return {
        "service.submit_ms": statistics.median(r.submit_s for r in jobs) * ms,
        "service.coalesced_ms": statistics.median(
            r.submit_s for r in records if r.label == "coalesced") * ms,
        "service.result_fetch_ms": statistics.median(r.fetch_s for r in jobs) * ms,
        "service.result_bytes": float(sum(r.result_bytes for r in jobs)),
        "service.healthz_ms": statistics.median(healthz) * ms,
        "service.queue_wait_ms": statistics.median(e["queue_wait_s"] for e in events) * ms,
        "service.run_ms": statistics.median(e["run_s"] for e in events) * ms,
        "service.cache_cell_hits": cell_hits,
        "service.cache_arena_hits": prometheus_value(
            metrics, "repro_service_cache_arena_hits_total"),
        "service.cache_hit_ratio": cell_hits / max(1.0, cell_hits + cell_misses),
        "service.store_bytes": float(store_bytes),
        "bench.layer_coverage_frac": explained / sum(r.latency_s for r in jobs),
    }
