"""Shared fixtures: small generated topologies and warmed caches.

Also carries a fallback for the ``timeout`` ini option (pyproject.toml)
when pytest-timeout is not installed: a SIGALRM-based per-test limit so
a hung-worker regression still fails fast instead of wedging the suite.
"""

from __future__ import annotations

import signal
import threading

import pytest

import repro.routing.tree as tree_module
from repro.experiments.setup import ExperimentEnv, build_environment
from repro.routing.cache import RoutingCache
from repro.topology.generator import GeneratedTopology, generate_topology
from repro.topology.graph import ASGraph
from repro.topology.traffic import apply_traffic_model

try:
    import pytest_timeout  # noqa: F401

    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False


def pytest_addoption(parser):
    if not _HAVE_PYTEST_TIMEOUT:
        parser.addini(
            "timeout",
            "per-test timeout in seconds (pytest-timeout fallback shim)",
            default="0",
        )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if (
        _HAVE_PYTEST_TIMEOUT  # the real plugin enforces the limit
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return (yield)
    try:
        seconds = float(item.config.getini("timeout") or 0)
    except (TypeError, ValueError):
        seconds = 0.0
    if seconds <= 0:
        return (yield)

    def _on_alarm(signum, frame):
        pytest.fail(f"test exceeded the {seconds:g}s fallback timeout", pytrace=False)

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def small_chunks(monkeypatch) -> None:
    """Destination chunks of a few rows on the small test topologies
    (one chunk holds hundreds of their destinations otherwise), for
    tests about what happens *between* chunks: a parallel warm hands out
    runs of whole chunks, a lazy miss builds one.  Forked workers
    inherit the patched size."""
    monkeypatch.setattr(tree_module, "_CHUNK_CELLS", 1 << 12)


@pytest.fixture(scope="session")
def small_topology() -> GeneratedTopology:
    """A 200-AS synthetic Internet (shared, treat as read-only)."""
    return generate_topology(n=200, seed=3)


@pytest.fixture(scope="session")
def small_graph(small_topology: GeneratedTopology) -> ASGraph:
    graph = small_topology.graph
    apply_traffic_model(graph, 0.10)
    return graph


@pytest.fixture(scope="session")
def small_cache(small_graph: ASGraph) -> RoutingCache:
    cache = RoutingCache(small_graph)
    cache.warm()
    return cache


@pytest.fixture(scope="session")
def medium_env() -> ExperimentEnv:
    """A 400-AS environment for experiment-level tests (read-only)."""
    return build_environment(n=400, seed=5, x=0.10, warm=True)
