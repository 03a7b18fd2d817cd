"""Kernel backend registry: one namespace, three implementation tiers.

The three hot kernels — the batched tree resolver (``trees_stacked``),
the batched subtree weights (``weights_stacked``) and the synchronous-
Jacobi iteration that converges a chunk of rows (``jacobi_converge``,
single- and multi-origin alike: a row without an adversary carries
``attacker = -1``) — exist in three implementations ("backends") behind
this registry:

- ``numpy``: the vectorised code in
  :mod:`repro.routing.backends.numpy_impl`.  It is the **differential
  ground truth**: every other backend must produce bit-identical
  outputs (asserted by ``tests/routing/test_backends.py``).  Its level
  bodies gather whole path-length levels across destinations, so it
  keeps a level-major mirror of each arena's pools, its own: built on
  its first call, dropped with the arena.  Its Jacobi sweep re-decides
  every node of every row still moving, all rows at once.
- ``cext``: the same kernels as scalar loops in a small C translation
  unit, compiled once per source digest with the system C compiler and
  bound through ``ctypes`` (:mod:`repro.routing.backends.cext_impl`).
  No build-time dependency beyond ``cc``; the shared object is cached
  on disk.  Its tree kernels walk each batch row's slot of the arena's
  pools in place and hold no second copy of them; its Jacobi iteration
  converges one row at a time and, after the first sweep, re-decides
  only the nodes that read a node the sweep before changed.
- ``python``: the C loops' executable spec in pure Python
  (:mod:`repro.routing.backends._loops`), registered *hidden* so the
  parity suite can pin the exact control flow the C code transliterates
  without a compiler.  Far too slow for real runs; never selected by
  ``auto``.

Selection: explicit name > ``SBGP_KERNEL_BACKEND`` env var > ``auto``.
``auto`` is ``cext`` when it loads, else ``numpy``; when it falls back
(no compiler, a failed compile, a failed dlopen) it logs one warning per
process and counts ``routing.backend.auto_fallbacks``.  An explicitly
requested backend that cannot load **degrades** to numpy through the
resource guard's ``compiled_to_numpy`` ladder rung — a counted,
observable event, never an error — so a run specced for cext still
completes on a box without a compiler.

Kernel *implementation* modules must never be imported outside this
package (lint rule RPR013): consumers go through
:func:`resolve_backend` / :func:`kernels_for` so the fallback and the
telemetry stay on the only path.
"""

from __future__ import annotations

import dataclasses
import importlib
import logging
import os
import shutil
import threading
import time
from typing import Any

from repro.routing.errors import BackendUnavailable
from repro.runtime.guard import current_guard
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import get_tracer

_log = logging.getLogger(__name__)

__all__ = [
    "AUTO",
    "BackendUnavailable",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "KernelBackend",
    "available_backends",
    "backend_status",
    "default_backend_name",
    "find_compiler",
    "get_backend",
    "kernels_for",
    "load_backend",
    "probe",
    "register_backend",
    "resolve_backend",
    "usable_backends",
]

#: Environment variable consulted when no backend is named explicitly.
ENV_VAR = "SBGP_KERNEL_BACKEND"

#: The differential ground truth and universal fallback.
DEFAULT_BACKEND = "numpy"

#: Pseudo-name: the compiled tier when it loads, else numpy.  What
#: selection resolves when nothing names a backend.
AUTO = "auto"

#: The compiled tier ``auto`` tries first.
_COMPILED_BACKEND = "cext"


@dataclasses.dataclass(frozen=True)
class KernelBackend:
    """Registry descriptor for one kernel implementation tier.

    ``module`` is imported lazily on first use; ``needs_cc`` marks
    backends that want a C compiler on PATH (checked cheaply by
    :func:`probe`, without triggering compilation).  ``hidden`` keeps
    test-only backends out of user-facing listings (CLI choices,
    ``/healthz``) while leaving them resolvable by exact name.
    """

    name: str
    description: str
    module: str
    compiled: bool = False
    needs_cc: bool = False
    hidden: bool = False


_REGISTRY: dict[str, KernelBackend] = {}
_IMPLS: dict[str, Any] = {}
_FAILURES: dict[str, str] = {}
#: Whether this process has warned that ``auto`` fell back to numpy.
_AUTO_WARNED = False
#: Serialises the import/compile slow path of :func:`load_backend`.
_LOAD_LOCK = threading.Lock()


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add ``backend`` to the registry (idempotent for equal specs)."""
    existing = _REGISTRY.get(backend.name)
    if existing is not None and existing != backend:
        raise ValueError(
            f"kernel backend {backend.name!r} already registered with a "
            f"different spec"
        )
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> KernelBackend:
    """The descriptor for ``name``; raises ``ValueError`` when unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; registered: "
            f"{', '.join(available_backends())} (or {AUTO!r})"
        ) from None


def available_backends() -> list[str]:
    """Registered, user-facing backend names (sorted; hidden excluded)."""
    return sorted(n for n, b in _REGISTRY.items() if not b.hidden)


def find_compiler() -> str | None:
    """The C compiler the ``cext`` tier builds with, or None.

    The one lookup both :func:`probe` and the loader use, so a
    prediction and the load it predicts never disagree about which
    compilers count.
    """
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def probe(name: str) -> bool:
    """Cheap availability check — no import, no compilation.

    Used by the daemon's ``/healthz`` and by ``auto`` selection, so it
    must stay O(PATH lookup).  A ``True`` is a *prediction*; the load
    can still fail, in which case the caller degrades.
    """
    if name in _IMPLS:
        return True
    if name in _FAILURES:
        return False
    backend = _REGISTRY.get(name)
    if backend is None:
        return False
    return not backend.needs_cc or find_compiler() is not None


def usable_backends() -> list[str]:
    """Registered user-facing backends that :func:`probe` accepts."""
    return [name for name in available_backends() if probe(name)]


def backend_status() -> dict[str, str]:
    """``{name: loaded|available|unavailable}`` for every visible backend."""
    out: dict[str, str] = {}
    for name in available_backends():
        if name in _IMPLS:
            out[name] = "loaded"
        elif probe(name):
            out[name] = "available"
        else:
            out[name] = "unavailable"
    return out


def load_backend(name: str) -> Any:
    """Import (and for compiled tiers, compile + warm) backend ``name``.

    Returns the implementation module exposing ``trees_stacked``,
    ``weights_stacked`` and ``jacobi_converge``.  Load results are cached
    both ways: a success is never re-imported, a failure is never
    retried within the process (compilation attempts are expensive and
    deterministic).
    """
    impl = _IMPLS.get(name)
    if impl is not None:
        return impl
    # Double-checked: the fast path above is lock-free; the slow path is
    # serialised so concurrent scheduler threads cannot race a compile
    # and double-import the same tier.
    with _LOAD_LOCK:
        impl = _IMPLS.get(name)
        if impl is not None:
            return impl
        if name in _FAILURES:
            raise BackendUnavailable(
                f"kernel backend {name!r} unavailable: {_FAILURES[name]}"
            )
        backend = get_backend(name)
        registry = get_registry()
        started = time.perf_counter()
        try:
            with get_tracer().span(f"backend.load.{name}"):
                impl = importlib.import_module(backend.module)
        except (ImportError, OSError, RuntimeError) as exc:
            _FAILURES[name] = str(exc) or type(exc).__name__
            registry.counter(f"routing.backend.load_failures.{name}").inc()
            raise BackendUnavailable(
                f"kernel backend {name!r} unavailable: {exc}"
            ) from exc
        if backend.compiled:
            # cc time for the whole tier (cache hits land near zero, so
            # the histogram doubles as a compile-cache effectiveness probe).
            registry.histogram("routing.backend.compile_seconds").observe(
                time.perf_counter() - started
            )
        _IMPLS[name] = impl
        return impl


def _note_active(name: str) -> None:
    registry = get_registry()
    if not registry.enabled:
        return
    for other in available_backends():
        registry.gauge(f"routing.backend.active.{other}").set(
            1.0 if other == name else 0.0
        )


def default_backend_name() -> str:
    """The name selection falls back to: env var, else ``auto``."""
    return os.environ.get(ENV_VAR, "").strip() or AUTO


def _resolve_auto() -> str:
    """``cext`` when it loads; else numpy, visibly: one warning per
    process and a ``routing.backend.auto_fallbacks`` count per fallback."""
    global _AUTO_WARNED
    if probe(_COMPILED_BACKEND):
        try:
            load_backend(_COMPILED_BACKEND)
            return _COMPILED_BACKEND
        except BackendUnavailable:
            pass  # the probe was a prediction
    get_registry().counter("routing.backend.auto_fallbacks").inc()
    with _LOAD_LOCK:
        warned, _AUTO_WARNED = _AUTO_WARNED, True
    if not warned:
        reason = _FAILURES.get(_COMPILED_BACKEND, "no C compiler (cc/gcc/clang) on PATH")
        _log.warning(
            "kernel backend %r: %s unavailable (%s); running on the numpy tier",
            AUTO, _COMPILED_BACKEND, reason,
        )
    return DEFAULT_BACKEND


def resolve_backend(name: str | None = None) -> str:
    """Resolve a requested backend to a *loaded*, usable backend name.

    ``None`` defers to :func:`default_backend_name`; ``auto`` is
    ``cext`` when it loads, else numpy (a logged, counted fallback).  An
    explicit name that is registered but will not load degrades to numpy
    via the guard's ``compiled_to_numpy`` rung.  Only a name that is not
    registered at all raises (that is a spelling error, not a resource
    condition).
    """
    requested = name if name is not None else default_backend_name()
    if requested == AUTO:
        requested = _resolve_auto()
    backend = get_backend(requested)
    try:
        load_backend(backend.name)
    except BackendUnavailable as exc:
        current_guard().degrade(
            "compiled_to_numpy",
            f"kernel backend {requested!r} unavailable ({exc}); "
            f"running on the numpy tier",
        )
        load_backend(DEFAULT_BACKEND)
        _note_active(DEFAULT_BACKEND)
        return DEFAULT_BACKEND
    _note_active(backend.name)
    return backend.name


def kernels_for(name: str) -> tuple[str, Any]:
    """``(resolved name, impl module)`` for a kernel call site.

    The call-time companion of :func:`resolve_backend`: arenas carry a
    backend *name* (it travels through shared memory and job specs as
    plain data), and the consuming process may lack that backend — so
    the dispatcher, not the producer, owns the degradation.
    """
    try:
        return name, load_backend(name)
    except (BackendUnavailable, ValueError) as exc:
        if name == DEFAULT_BACKEND:
            raise
        current_guard().degrade(
            "compiled_to_numpy",
            f"kernel backend {name!r} unusable at call time ({exc}); "
            f"running on the numpy tier",
        )
        return DEFAULT_BACKEND, load_backend(DEFAULT_BACKEND)


register_backend(
    KernelBackend(
        name="numpy",
        description="vectorised numpy kernels (differential ground truth)",
        module="repro.routing.backends.numpy_impl",
    )
)
register_backend(
    KernelBackend(
        name="cext",
        description="C translation unit compiled with the system cc, via ctypes",
        module="repro.routing.backends.cext_impl",
        compiled=True,
        needs_cc=True,
    )
)
register_backend(
    KernelBackend(
        name="python",
        description="pure-Python spec of the C loops (parity tests only)",
        module="repro.routing.backends._loops",
        hidden=True,
    )
)
