"""HTTP daemon: API surface, error mapping, and crash-resume acceptance.

Two tiers here.  The in-process tier spins a :class:`SimulationService`
inside the test process and exercises every route plus the
two-overlapping-jobs acceptance criterion (cache hits visible in
``/metrics``, results bit-identical to a cold ``run_sweep``).  The
subprocess tier runs the real ``sbgp-sim serve`` CLI, SIGKILLs it
mid-job, restarts on the same store, and asserts the job resumes from
its journal and completes.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import telemetry
from repro.experiments.setup import build_environment
from repro.experiments.sweeps import cell_from_dict, run_sweep
from repro.service.daemon import SimulationService
from repro.telemetry.metrics import set_registry
from repro.telemetry.spans import set_tracer

ENV = {"n": 80, "seed": 7, "x": 0.10}
SPEC = {**ENV, "thetas": [0.0, 0.05], "adopter_sets": ["none", "top-5"]}


def request(base: str, path: str, method: str = "GET", payload: dict | None = None):
    """(status, body-dict-or-text) for one HTTP round trip."""
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            raw = resp.read().decode()
            status = resp.status
    except urllib.error.HTTPError as exc:
        raw = exc.read().decode()
        status = exc.code
    try:
        return status, json.loads(raw)
    except json.JSONDecodeError:
        return status, raw  # NDJSON event streams, Prometheus text


def poll_until(base: str, job_id: str, states=("done", "failed", "cancelled"), timeout=180.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, job = request(base, f"/v1/jobs/{job_id}")
        assert status == 200, job
        if job["state"] in states:
            return job
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} never reached {states}")


@pytest.fixture()
def service(tmp_path):
    registry, _ = telemetry.enable()
    svc = SimulationService(str(tmp_path / "store"), port=0, workers=1)
    svc.start()
    host, port = svc.address
    try:
        yield svc, f"http://{host}:{port}"
    finally:
        svc.shutdown()
        set_registry(None)
        set_tracer(None)


class TestRoutes:
    def test_healthz_and_endpoint_file(self, service, tmp_path):
        svc, base = service
        status, body = request(base, "/healthz")
        assert status == 200 and body["status"] == "ok"
        endpoint = json.loads(Path(svc.endpoint_path).read_text())
        assert endpoint["format"] == "repro.service-endpoint/1"
        assert endpoint["url"] == base

    def test_healthz_names_the_kernel_tier_that_ran(self, service):
        _, base = service
        assert request(base, "/healthz")[1]["kernel_backend"] is None
        _, job = request(base, "/v1/jobs", "POST", SPEC)
        assert poll_until(base, job["id"])["state"] == "done"
        _, result = request(base, f"/v1/jobs/{job['id']}/result")
        _, body = request(base, "/healthz")
        assert body["kernel_backend"] == result["backend"]
        assert body["backends"][result["backend"]] == "loaded"

    def test_submit_poll_events_result(self, service):
        _, base = service
        status, job = request(base, "/v1/jobs", "POST", SPEC)
        assert status == 202 and job["created"] is True
        assert job["state"] in ("queued", "running")

        final = poll_until(base, job["id"])
        assert final["state"] == "done", final.get("error")
        assert final["progress"] == {"done": 4, "total": 4}

        status, listing = request(base, "/v1/jobs")
        assert status == 200 and [j["id"] for j in listing["jobs"]] == [job["id"]]

        status, ndjson = request(base, f"/v1/jobs/{job['id']}/events")
        assert status == 200
        events = [json.loads(line) for line in ndjson.splitlines()]
        assert any(e["event"] == "progress" for e in events)
        # incremental tail: everything after the first event's seq
        status, tail = request(base, f"/v1/jobs/{job['id']}/events?since={events[0]['seq']}")
        assert len(tail.splitlines()) == len(events) - 1

        status, result = request(base, f"/v1/jobs/{job['id']}/result")
        assert status == 200 and len(result["cells"]) == 4

    def test_resubmit_coalesces_then_recomputes(self, service):
        _, base = service
        status, first = request(base, "/v1/jobs", "POST", SPEC)
        status, dup = request(base, "/v1/jobs", "POST", {**SPEC, "priority": 3})
        assert status == 200 and dup["created"] is False
        assert dup["id"] == first["id"]
        poll_until(base, first["id"])
        status, fresh = request(base, "/v1/jobs", "POST", SPEC)
        assert status == 202 and fresh["id"] != first["id"]

    def test_metrics_exposes_service_counters(self, service):
        _, base = service
        _, job = request(base, "/v1/jobs", "POST", SPEC)
        poll_until(base, job["id"])
        status, text = request(base, "/metrics")
        assert status == 200
        assert "repro_service_http_requests_total" in text
        assert "repro_service_jobs_done_total" in text


class TestErrorMapping:
    def test_bad_spec_is_400(self, service):
        _, base = service
        status, body = request(base, "/v1/jobs", "POST", {"kind": "nope"})
        assert status == 400 and "kind" in body["error"]
        status, body = request(base, "/v1/jobs", "POST", None)
        assert status == 400

    def test_unknown_job_is_404(self, service):
        _, base = service
        for path in ("/v1/jobs/j000099-deadbeef", "/v1/jobs/j000099-deadbeef/result"):
            status, body = request(base, path)
            assert status == 404, path
        status, _ = request(base, "/nope")
        assert status == 404

    def test_result_before_done_and_double_cancel_are_409(self, service):
        _, base = service
        # a wide job keeps the single worker busy; a second stays queued
        _, blocker = request(base, "/v1/jobs", "POST", {
            **ENV, "thetas": [0.0, 0.02, 0.05, 0.10, 0.20, 0.30], "adopter_sets": [],
        })
        _, queued = request(base, "/v1/jobs", "POST", SPEC)
        status, body = request(base, f"/v1/jobs/{queued['id']}/result")
        assert status == 409  # no result yet

        status, cancelled = request(base, f"/v1/jobs/{queued['id']}", "DELETE")
        assert status == 202 and cancelled["state"] == "cancelled"
        status, body = request(base, f"/v1/jobs/{queued['id']}", "DELETE")
        assert status == 409  # already terminal

        status, _ = request(base, f"/v1/jobs/{blocker['id']}", "DELETE")
        assert status == 202
        poll_until(base, blocker["id"])

    def test_bad_since_is_400(self, service):
        _, base = service
        _, job = request(base, "/v1/jobs", "POST", SPEC)
        status, body = request(base, f"/v1/jobs/{job['id']}/events?since=soon")
        assert status == 400
        poll_until(base, job["id"])


def prometheus_value(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


class TestAcceptance:
    def test_overlapping_jobs_hit_cache_and_match_cold_sweep(self, service):
        """ISSUE acceptance: second overlapping job shows service.cache
        hits in /metrics and both results are bit-identical to a cold
        ``run_sweep`` on a fresh environment."""
        _, base = service
        _, first = request(base, "/v1/jobs", "POST", SPEC)
        poll_until(base, first["id"])

        second_spec = {**ENV, "thetas": [0.0, 0.05, 0.30], "adopter_sets": ["none", "top-5"]}
        _, second = request(base, "/v1/jobs", "POST", second_spec)
        assert second["id"] != first["id"]
        final = poll_until(base, second["id"])
        assert final["state"] == "done", final.get("error")

        _, metrics = request(base, "/metrics")
        assert prometheus_value(metrics, "repro_service_cache_cell_hits_total") >= 4
        assert prometheus_value(metrics, "repro_service_cache_arena_hits_total") >= 1

        _, result = request(base, f"/v1/jobs/{second['id']}/result")
        served = sorted(
            (cell_from_dict(c) for c in result["cells"]),
            key=lambda c: (c.adopters, c.theta),
        )
        env = build_environment(**ENV, warm=True)
        sets = env.adopter_sets()
        cold = sorted(
            run_sweep(env, thetas=(0.0, 0.05, 0.30),
                      adopter_sets={"none": sets["none"], "top-5": sets["top-5"]}),
            key=lambda c: (c.adopters, c.theta),
        )
        assert served == cold


def serve(store: Path) -> tuple[subprocess.Popen, str]:
    """Start ``sbgp-sim serve`` on ``store``; return it and its URL as
    soon as ``endpoint.json`` appears."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    endpoint = store / "endpoint.json"
    endpoint.unlink(missing_ok=True)  # a stale one survives SIGKILL
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--store", str(store), "--port", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"daemon died on startup: {proc.stderr.read().decode()}"
            )
        if endpoint.exists():
            try:
                doc = json.loads(endpoint.read_text())
                return proc, doc["url"]
            except (json.JSONDecodeError, KeyError):
                pass  # mid-write; retry
        time.sleep(0.1)
    raise AssertionError("daemon never published endpoint.json")


class TestStartSequence:
    def test_submission_at_first_endpoint_waits_for_the_stack(self, tmp_path):
        """A sweep posted the moment ``endpoint.json`` appears (before the
        daemon has loaded the simulation stack) runs to ``done`` with the
        cells of a direct ``run_sweep``."""
        proc, base = serve(tmp_path / "store")
        try:
            status, job = request(base, "/v1/jobs", "POST", SPEC)
            assert status == 202, job
            final = poll_until(base, job["id"])
            assert final["state"] == "done", final.get("error")
            _, result = request(base, f"/v1/jobs/{job['id']}/result")
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        env = build_environment(**ENV, warm=True)
        sets = env.adopter_sets()
        direct = run_sweep(env, thetas=tuple(SPEC["thetas"]),
                           adopter_sets={name: sets[name] for name in SPEC["adopter_sets"]})
        key = lambda c: (c.adopters, c.theta)
        served = [cell_from_dict(c) for c in result["cells"]]
        assert sorted(served, key=key) == sorted(direct, key=key)


@pytest.mark.slow
class TestCrashResume:
    """ISSUE acceptance: SIGKILL mid-job, restart, resume, complete."""

    def test_sigkill_midjob_then_restart_resumes_and_completes(self, tmp_path):
        store = tmp_path / "store"
        # big enough that most of the grid is still ahead when two cells
        # are done: a row shares its state evaluations, so the "none"
        # row is one evaluation and small grids finish between two polls
        big = {"n": 400, "seed": 7, "x": 0.10}
        names = ["none", "top-5", "5-cps", "cps+top-5"]
        wide = {
            **big,
            "thetas": [0.0, 0.02, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50],
            "adopter_sets": names,  # 32 cells
        }
        proc, base = serve(store)
        try:
            status, job = request(base, "/v1/jobs", "POST", wide)
            assert status == 202
            journal = store / "journals" / f"{job['digest']}.jsonl"
            # poll until at least 2 cells are finished (hence journaled)
            deadline = time.monotonic() + 180
            while time.monotonic() < deadline:
                _, polled = request(base, f"/v1/jobs/{job['id']}")
                if polled["progress"]["done"] >= 2:
                    break
                time.sleep(0.1)
            else:
                raise AssertionError("job never reached 2 finished cells")
        finally:
            proc.kill()  # SIGKILL: no drain, no cleanup
            proc.wait(timeout=30)

        pre_kill = journal.read_bytes()
        assert pre_kill, "sweep journal missing after kill"

        proc2, base2 = serve(store)
        try:
            resumed = poll_until(base2, job["id"], timeout=300)
            assert resumed["state"] == "done", resumed.get("error")
            assert any(e["event"] == "recovered" for e in json.loads(
                "[" + ",".join(request(base2, f"/v1/jobs/{job['id']}/events")[1].splitlines()) + "]"
            ))
            _, result = request(base2, f"/v1/jobs/{job['id']}/result")
            assert len(result["cells"]) == 32
            # the restarted run extended (never rewrote) the journal
            assert journal.read_bytes().startswith(pre_kill)
        finally:
            proc2.send_signal(signal.SIGTERM)
            try:
                proc2.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc2.kill()
                raise

        # and the resumed result matches a cold in-process sweep
        env = build_environment(**big, warm=True)
        sets = env.adopter_sets()
        cold = sorted(
            run_sweep(env, thetas=tuple(wide["thetas"]),
                      adopter_sets={name: sets[name] for name in names}),
            key=lambda c: (c.adopters, c.theta),
        )
        served = sorted(
            (cell_from_dict(c) for c in result["cells"]),
            key=lambda c: (c.adopters, c.theta),
        )
        assert served == cold
