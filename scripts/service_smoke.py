#!/usr/bin/env python
"""End-to-end smoke test of the ``sbgp-sim serve`` daemon.

Launches the real daemon as a subprocess on a throwaway store, drives
the full client lifecycle over HTTP — submit, poll, stream events,
fetch the result — then submits an overlapping second job and verifies
the result cache actually served it (``service.cache.*`` counters in
``/metrics``) and that its games read states the first job evaluated
(``sim.*`` counters), and shuts the daemon down with SIGTERM.

Exit code 0 on success; any failure prints the reason and exits 1.
Used by the non-blocking ``service-smoke`` CI job and runnable locally::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

SPEC_FIRST = {
    "n": 120, "seed": 11, "x": 0.10,
    "thetas": [0.0, 0.05], "adopter_sets": ["none", "top-5"],
}
SPEC_SECOND = {**SPEC_FIRST, "thetas": [0.0, 0.05, 0.30]}


def request(base: str, path: str, method: str = "GET", payload: dict | None = None):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


def wait_for_endpoint(store: Path, proc: subprocess.Popen, timeout: float = 60.0) -> str:
    endpoint = store / "endpoint.json"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"daemon exited early: {proc.stderr.read().decode()}")
        if endpoint.exists():
            try:
                return json.loads(endpoint.read_text())["url"]
            except (json.JSONDecodeError, KeyError):
                pass  # mid-write
        time.sleep(0.1)
    raise SystemExit("daemon never published endpoint.json")


def wait_for_done(base: str, job_id: str, timeout: float = 300.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = request(base, f"/v1/jobs/{job_id}")
        assert status == 200, body
        job = json.loads(body)
        if job["state"] in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.25)
    raise SystemExit(f"job {job_id} did not finish within {timeout}s")


def metric(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="sbgp-service-smoke-") as tmp:
        store = Path(tmp) / "store"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--store", str(store), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            base = wait_for_endpoint(store, proc)
            print(f"daemon up at {base}")

            status, body = request(base, "/healthz")
            assert status == 200, f"healthz: {status} {body}"

            status, body = request(base, "/v1/jobs", "POST", SPEC_FIRST)
            assert status == 202, f"submit: {status} {body}"
            first = json.loads(body)
            done = wait_for_done(base, first["id"])
            assert done["state"] == "done", f"first job: {done}"
            print(f"job {first['id']} done "
                  f"({done['progress']['done']}/{done['progress']['total']} cells)")

            status, body = request(base, f"/v1/jobs/{first['id']}/events")
            assert status == 200 and body.strip(), "events stream empty"

            status, body = request(base, f"/v1/jobs/{first['id']}/result")
            assert status == 200, f"result: {status}"
            n_cells = len(json.loads(body)["cells"])
            assert n_cells == 4, f"expected 4 cells, got {n_cells}"
            status, text = request(base, "/metrics")
            assert status == 200
            rounds = metric(text, "repro_sim_rounds_total")
            evaluated = metric(text, "repro_sim_states_evaluated_total")

            # overlapping second job: the whole point of the service
            status, body = request(base, "/v1/jobs", "POST", SPEC_SECOND)
            assert status == 202, f"second submit: {status} {body}"
            second = json.loads(body)
            done2 = wait_for_done(base, second["id"])
            assert done2["state"] == "done", f"second job: {done2}"

            status, text = request(base, "/metrics")
            assert status == 200
            cell_hits = metric(text, "repro_service_cache_cell_hits_total")
            arena_hits = metric(text, "repro_service_cache_arena_hits_total")
            assert cell_hits >= 4, f"expected >=4 cell-cache hits, got {cell_hits}"
            assert arena_hits >= 1, f"expected >=1 arena-cache hit, got {arena_hits}"
            print(f"cache served the overlap: cell_hits={cell_hits:g} "
                  f"arena_hits={arena_hits:g}")

            # the second job computes only its theta=0.30 cells, one game
            # per adopter set, each from a state the first job's games
            # started from.  On an empty memo every round evaluates the
            # state it is played in (the empty state twice), so fewer
            # evaluations than rounds means a round read an evaluation
            # the first job left in the kept environment's memo
            rounds = metric(text, "repro_sim_rounds_total") - rounds
            evaluated = metric(text, "repro_sim_states_evaluated_total") - evaluated
            assert evaluated < rounds, (
                f"second job evaluated {evaluated:g} states in {rounds:g} rounds; "
                "expected it to reuse the first job's evaluations"
            )
            print(f"second job reused evaluations: {evaluated:g} states "
                  f"evaluated in {rounds:g} rounds")
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise SystemExit("daemon ignored SIGTERM")
        assert proc.returncode == 0, f"daemon exit code {proc.returncode}"
        assert (store / "metrics.json").exists(), "shutdown did not flush metrics"
        print("graceful shutdown ok; service smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
