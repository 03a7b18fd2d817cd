"""Kernel backend registry: one namespace, two implementation tiers.

The four hot kernels — the batched tree resolver (``trees_stacked``,
which given the node weights also sums each tree's subtree weights in
the same call), the batched subtree weights on their own
(``weights_stacked``), the synchronous-Jacobi iteration that
converges a chunk of rows (``jacobi_converge``, single- and
multi-origin alike: a row without an adversary carries ``attacker =
-1``) and the structure build of a destination chunk
(``build_structures``: the three passes and the pooled rows, each
tiebreak set in tie-break order) — exist in two implementations
("backends") behind this registry:

- ``numpy``: the vectorised code in
  :mod:`repro.routing.backends.numpy_impl`, the **differential ground
  truth**: cext must produce bit-identical outputs (asserted by
  ``tests/routing/test_backends.py``, which holds both tiers to the
  scalar references in ``tests/references.py`` too).  It keeps its own
  level-major mirror of each arena's pools, and its Jacobi sweep
  re-decides every node of every row still moving.
- ``cext``: the same kernels as scalar loops in a small C translation
  unit, compiled once per source digest with the system C compiler and
  bound through ``ctypes`` (:mod:`repro.routing.backends.cext_impl`);
  the shared object is cached on disk.  It reads the arena's pools in
  place, one batch row at a time, re-decides only the nodes a Jacobi
  sweep can move, and builds structures in two kernels of its own
  (``structure_labels`` / ``structure_pools``), so a warm can label
  every chunk into the arena's rows before any pool is allocated.

Calling convention (both backends):

- outputs are written **in place**; the functions return ``None``;
- the batched kernels read the arena's pools in place
  (``repro.routing.tree.StructurePools``), all of them in one call,
  plus the batch's ``slots`` (int64, any order, repeats allowed).  Slot
  ``k``'s rows are ``order_pool[order_ptr[k]:order_ptr[k + 1]]``,
  reachable nodes by ``(path length, node)``, row 0 its destination;
  ``level_pool[level_ptr[k]:level_ptr[k + 1]]`` are its
  ``level_starts`` (where each path length starts among those rows, the
  last entry closing them); ``indptr_pool[indptr_ptr[k]:]`` is its
  tiebreak CSR, one entry per row plus a closing one, relative to
  ``cand_ptr[k]`` in ``cands_pool``.  Pools: ``*_ptr`` int64,
  ``order_pool`` / ``level_pool`` / ``indptr_pool`` / ``cands_pool``
  int32 (an ``indptr`` run counts one slot's candidates).  A row's
  candidates are in tie-break order (``repro.routing.tree.tie_order``):
  TB takes the first, SecP the first secure one.  ``weights_stacked``
  reads batch row ``b``'s tree from row ``b`` of the C-contiguous
  ``[batch, n]`` ``choice`` (int32) and adds its subtree weights into
  the same row of a ``w`` (float64) its caller zeroed, both taken flat.
  ``trees_stacked`` takes an output row per batch row, ``rows`` (int64,
  distinct): batch row ``b`` resolves slot ``slots[b]`` into row
  ``rows[b]`` of the C-contiguous ``[rows, n]`` outputs ``choice``,
  ``secure`` / ``any_secure`` (bool) and ``w``, taken flat.  It writes
  those rows whole (cleared, then resolved) and, given ``node_weights``
  (float64 ``[n]``) and ``w``, their subtree weights too; it leaves the
  other rows as they are.
  ``secure_rows`` / ``secp_rows`` are ``node_secure`` and ``node_secure
  & breaks_ties``, each ``[n]`` when the whole batch shares it (read
  with stride 0) or a flat ``[batch, n]`` with a row per batch row
  (stride ``n``: :func:`mask_stride`);
- the Jacobi iteration takes the edge table of
  ``repro.routing.fixpoint`` (``v`` int32, ``route_cls`` int8,
  ``node_ptr`` / ``rev_ptr`` / ``rev_edge`` int64, ``lp_field`` uint32,
  ``rev_seg`` int32; each segment in tie-break order), ``edge_flags``
  uint8, ``rank_shifts`` int64[3], ``attacker`` int64[chunk], ``pins``
  int64[chunk, MAX_PINS, 6], the labels int8/int32/bool as C-contiguous
  ``[chunk, n]`` matrices (updated in place), ``stats`` int64[chunk, 3]
  and the optional ``tied`` bool[chunk, edges];
- the structure build takes the ``CompiledGraph`` (its three CSRs,
  int64 ``*_indptr`` and int32 ``*_idx``) and a chunk of destinations
  (int64, any order, repeats allowed).  ``build_structures`` returns
  the chunk's 12 ``ARENA_FIELDS``, each allocated exactly once its
  size is known.

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
import weakref
from typing import Any, Callable, Hashable, Sequence

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
    "mask_stride",
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

    ``module`` is imported lazily on first use; ``compiled`` marks a
    backend built with the C compiler on PATH (checked cheaply by
    :func:`probe`, without triggering compilation).
    """

    name: str
    description: str
    module: str
    compiled: bool = False


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
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


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
    return not backend.compiled or find_compiler() is not None


def usable_backends() -> list[str]:
    """Registered backends that :func:`probe` accepts."""
    return [name for name in available_backends() if probe(name)]


def backend_status() -> dict[str, str]:
    """``{name: loaded|available|unavailable}`` for every backend."""
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
    """Import (and for the compiled tier, compile + warm) backend ``name``.

    Returns the implementation module exposing ``trees_stacked``,
    ``weights_stacked``, ``jacobi_converge`` and ``build_structures``.
    Load results are cached
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


def mask_stride(mask, batch: int, n: int) -> int:
    """Where batch row ``b``'s entries of a tree kernel's state mask
    start, over ``b``: 0 for one ``[n]`` mask the whole batch shares,
    ``n`` for a flat ``[batch, n]`` mask of its own per row.  Any other
    length raises ``ValueError`` — in the compiled tier, before C reads
    past the mask."""
    if len(mask) == batch * n:
        return n
    if len(mask) == n:
        return 0
    raise ValueError(
        f"per-row mask out of step: {len(mask)} entries for a batch of "
        f"{batch} rows of {n} nodes"
    )


class _PoolMemo:
    """What a tier derives from arrays that are never written once built
    (an arena's pools, a graph's edge table), kept for as long as every
    one of them lives.

    The same array objects mean the same derivation, so an entry keys on
    their identities (plus ``tag``, for what else it depends on), holds
    them weakly and leaves with the first of them to go: nothing derived
    outlives what it was derived from.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple[object, tuple, object]] = {}
        # reentrant: an array freed while the lock is held runs ``drop``
        self._lock = threading.RLock()

    def get(self, arrays: Sequence[Any], build: Callable[[], Any], tag: Hashable = None):
        key = (tag, *map(id, arrays))
        entry = self._entries.get(key)
        if entry is not None and all(ref() is a for ref, a in zip(entry[1], arrays)):
            return entry[2]
        value = build()
        token = object()

        def drop(_, key=key, token=token):
            with self._lock:
                if self._entries.get(key, (None,))[0] is token:
                    del self._entries[key]

        with self._lock:
            self._entries[key] = (token, tuple(weakref.ref(a, drop) for a in arrays), value)
        return value


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
    backend *name* (it travels with them as plain data), and the
    consumer may lack that backend — so the dispatcher,
    not the producer, owns the degradation.
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
    )
)
