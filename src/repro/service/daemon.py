"""The HTTP daemon: ``sbgp-sim serve``.

Stdlib-only (``http.server``), one process, threads all the way down:
:class:`ThreadingHTTPServer` handles requests concurrently while the
:class:`~repro.service.scheduler.Scheduler`'s workers run jobs.  The
API is deliberately small and poll-based::

    POST   /v1/jobs            submit a spec        -> 202 {job}
    GET    /v1/jobs            list jobs            -> 200 {jobs: [...]}
    GET    /v1/jobs/{id}       poll one job         -> 200 {job}
    GET    /v1/jobs/{id}/events?since=N  progress   -> 200 JSONL
    GET    /v1/jobs/{id}/result          result doc -> 200 JSON
    DELETE /v1/jobs/{id}       cancel               -> 202 {job}
    GET    /metrics            Prometheus text      -> 200
    GET    /healthz            liveness + job table -> 200

Handlers never touch simulation kernels (lint rule RPR012 enforces it);
they parse, validate, and hand work to the scheduler.  Error mapping is
uniform: :class:`~repro.service.errors.SpecError` -> 400,
:class:`~repro.service.errors.JobNotFoundError` -> 404,
:class:`~repro.service.errors.JobStateError` -> 409.

Binding port 0 picks a free port; the daemon writes the actual endpoint
to ``<store>/endpoint.json`` (atomically) so scripts — the CI smoke
test included — can discover it without parsing logs.

Nothing here imports the simulation stack (numpy, ``repro.core``,
``repro.experiments``): the daemon answers ``/healthz`` first and loads
the stack after (:meth:`SimulationService.start`), so ``POST /v1/jobs``
waits on :attr:`SimulationService.ready` while every GET answers at once.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro.runtime.atomic import atomic_write_json
from repro.service.cache import DEFAULT_BUDGET_BYTES, ResultCache
from repro.service.errors import (
    JobNotFoundError,
    JobStateError,
    ServiceError,
    SpecError,
)
from repro.service.scheduler import Scheduler
from repro.service.specs import parse_spec
from repro.service.store import JobStore
from repro.telemetry.export import render_prometheus, write_metrics
from repro.telemetry.metrics import get_registry

log = logging.getLogger(__name__)

#: request body cap (a spec is a few hundred bytes; 1 MiB is generous)
MAX_BODY_BYTES = 1 << 20

#: ``format`` marker of ``endpoint.json``
ENDPOINT_FORMAT = "repro.service-endpoint/1"

#: how long a submission waits for the simulation stack to load (a
#: fraction of a second in practice; a load that fails ends the process)
_READY_TIMEOUT_SECONDS = 60.0


class _ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying a back-pointer to the service."""

    daemon_threads = True
    allow_reuse_address = True
    service: "SimulationService"


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes HTTP verbs + paths onto the scheduler and store."""

    protocol_version = "HTTP/1.1"
    server: _ServiceHTTPServer

    # -- plumbing ------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        log.debug("%s - %s", self.address_string(), format % args)

    @property
    def service(self) -> "SimulationService":
        return self.server.service

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict[str, Any]) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send(status, body, "application/json")

    def _send_error_json(self, status: int, message: str) -> None:
        get_registry().counter("service.http.errors").inc()
        self._send_json(status, {"error": message})

    def _read_json_body(self) -> object:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise SpecError("request body required (a JSON job spec)")
        if length > MAX_BODY_BYTES:
            raise SpecError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SpecError(f"request body is not valid JSON: {exc}") from exc

    def _dispatch(self, method: str) -> None:
        get_registry().counter("service.http.requests").inc()
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        try:
            handled = self._route(method, parts, parse_qs(parsed.query))
        except SpecError as exc:
            self._send_error_json(400, str(exc))
            return
        except JobNotFoundError as exc:
            self._send_error_json(404, str(exc))
            return
        except JobStateError as exc:
            self._send_error_json(409, str(exc))
            return
        except ServiceError as exc:
            self._send_error_json(500, str(exc))
            return
        if not handled:
            self._send_error_json(404, f"no route: {method} {parsed.path}")

    # -- routing -------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def _route(self, method: str, parts: list[str], query: dict[str, list[str]]) -> bool:
        if method == "GET" and parts == ["healthz"]:
            return self._get_healthz()
        if method == "GET" and parts == ["metrics"]:
            return self._get_metrics()
        if parts[:2] != ["v1", "jobs"]:
            return False
        if method == "POST" and len(parts) == 2:
            return self._post_job()
        if method == "GET" and len(parts) == 2:
            jobs = [j.to_dict() for j in self.service.store.jobs()]
            self._send_json(200, {"jobs": jobs})
            return True
        if len(parts) == 3:
            if method == "GET":
                job = self.service.store.get(parts[2])
                self._send_json(200, job.to_dict())
                return True
            if method == "DELETE":
                job = self.service.scheduler.cancel(parts[2])
                self._send_json(202, job.to_dict())
                return True
        if method == "GET" and len(parts) == 4 and parts[3] == "events":
            return self._get_events(parts[2], query)
        if method == "GET" and len(parts) == 4 and parts[3] == "result":
            job = self.service.store.get(parts[2])
            self._send_json(200, self.service.store.load_result(job))
            return True
        return False

    # -- endpoints -----------------------------------------------------

    def _post_job(self) -> bool:
        body = self._read_json_body()
        # parse_spec loads the policy and scenario registries, which only
        # SimulationService.start may import first
        if not self.service.ready.wait(timeout=_READY_TIMEOUT_SECONDS):
            raise ServiceError("the simulation stack is still loading; retry")
        spec = parse_spec(body)
        job, created = self.service.scheduler.submit(spec)
        payload = job.to_dict()
        payload["created"] = created
        self._send_json(202 if created else 200, payload)
        return True

    def _get_events(self, job_id: str, query: dict[str, list[str]]) -> bool:
        try:
            since = int(query.get("since", ["0"])[0])
        except ValueError as exc:
            raise SpecError(f"since must be an integer: {query['since'][0]!r}") from exc
        job = self.service.store.get(job_id)
        lines = [json.dumps(e, sort_keys=True) for e in job.events_since(since)]
        body = ("\n".join(lines) + "\n" if lines else "").encode("utf-8")
        self._send(200, body, "application/x-ndjson")
        return True

    def _get_healthz(self) -> bool:
        from repro.routing.backends import backend_status

        states: dict[str, int] = {}
        for job in self.service.store.jobs():
            states[job.state] = states.get(job.state, 0) + 1
        backends = backend_status()
        registry = get_registry()
        self._send_json(200, {
            "status": "ok",
            "jobs": states,
            "queue_depth": self.service.scheduler.queue_depth(),
            "cache_entries": len(self.service.cache),
            # kernel-backend availability on THIS host (loaded backends
            # were exercised; available ones would load on first use)
            "backends": backends,
            # the tier the last backend resolution chose, i.e. the one
            # the latest job ran on (None before any job)
            "kernel_backend": next(
                (name for name in backends
                 if registry.gauge(f"routing.backend.active.{name}").value == 1.0),
                None,
            ),
        })
        return True

    def _get_metrics(self) -> bool:
        body = render_prometheus(get_registry().snapshot()).encode("utf-8")
        self._send(200, body, "text/plain; version=0.0.4")
        return True


class SimulationService:
    """Store + cache + scheduler + HTTP server, wired together.

    The caller (the ``serve`` CLI, or a test) enables telemetry before
    construction if it wants live ``/metrics``; the service itself only
    *reads* the ambient registry, so embedding it never hijacks global
    state.
    """

    def __init__(
        self,
        store_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        cache_budget_bytes: int = DEFAULT_BUDGET_BYTES,
    ):
        self.store = JobStore(store_dir)
        self.cache = ResultCache(cache_budget_bytes)
        self.scheduler = Scheduler(self.store, self.cache, workers=workers)
        self._httpd = _ServiceHTTPServer((host, port), ServiceHandler)
        self._httpd.service = self
        self._serve_thread: threading.Thread | None = None
        self._stopped = threading.Event()
        #: set once the simulation stack is loaded and the workers run
        self.ready = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        """The actually-bound ``(host, port)`` (resolves port 0)."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def endpoint_path(self) -> str:
        return str(self.store.root / "endpoint.json")

    def start(self) -> None:
        """Publish the endpoint and serve, then load the stack and run jobs.

        In order: publish ``endpoint.json`` for the socket bound in
        ``__init__``, start the HTTP thread (``/healthz`` answers from
        here on), start the scheduler — which imports the simulation
        stack on this thread before it spawns a worker — and set
        :attr:`ready`.  The stack loads on the calling (main) thread
        because its import-time allocations then land in glibc's main
        heap; loaded from another thread they go to a per-thread arena
        and raise the daemon's peak RSS.  Submissions wait on
        :attr:`ready` because ``parse_spec`` imports the policy and
        scenario registries, and two threads importing one of the
        package ↔ submodule cycles (``repro.security`` ↔
        ``repro.security.metrics``) for the first time at once can
        raise importlib's ``_DeadlockError``.
        """
        host, port = self.address
        atomic_write_json(self.endpoint_path, {
            "format": ENDPOINT_FORMAT, "host": host, "port": port,
            "url": f"http://{host}:{port}",
        })
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.2},
            name="sbgp-http",
            daemon=True,
        )
        self._serve_thread.start()
        log.info("sbgp-sim service listening on http://%s:%d", host, port)
        self.scheduler.start()
        self.ready.set()

    def wait_until_shutdown(self, poll_seconds: float = 0.5) -> None:
        """Block the calling thread until :meth:`request_shutdown`.

        Polls (rather than parking unboundedly) so signal handlers set
        by the CLI get a prompt look-in on the main thread.
        """
        while not self._stopped.wait(timeout=poll_seconds):
            pass

    def request_shutdown(self) -> None:
        """Signal-safe: ask :meth:`wait` to return (idempotent)."""
        self._stopped.set()

    def shutdown(self) -> None:
        """Graceful stop: suspend jobs, stop HTTP, flush telemetry."""
        self.request_shutdown()
        self.scheduler.stop()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
            self._serve_thread = None
        snapshot = get_registry().snapshot()
        if any(snapshot.get(kind) for kind in ("counters", "gauges", "histograms")):
            write_metrics(self.store.root / "metrics.json", snapshot)
        log.info("sbgp-sim service stopped")
