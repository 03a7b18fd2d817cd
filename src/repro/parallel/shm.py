"""Shared-memory transport for :class:`~repro.routing.arena.RoutingArena`.

The arena serialises to one flat typed buffer (see
:meth:`~repro.routing.arena.RoutingArena.pack_into`), which makes it a
natural fit for ``multiprocessing.shared_memory``: a worker that built
the routing structures for a destination partition publishes them as a
named segment and ships only a pipe-sized :class:`ArenaHandle` back to
the parent — no routing structure is ever pickled.  In the other direction, a parent can publish its warm
arena and have workers attach zero-copy views.

Semantics:

- :func:`publish_arena` creates a segment and packs the arena into it
  (returns ``None`` on platforms or sandboxes without usable shared
  memory — callers ship the pickled arena instead and the
  ``parallel.shm.fallbacks`` counter records it);
- :func:`attach_arena` attaches **once per process** per segment name
  and refcounts further attaches, so many call sites in one process
  share a single mapping;
- :func:`release_arena` decrements the refcount and unmaps (optionally
  unlinking) at zero;
- :func:`consume_published_arena` is the one-shot parent side of the
  worker-publish flow: attach, copy out, close *and* unlink.

A subtlety worth knowing about: CPython's ``resource_tracker`` must be
started in the *parent* before any worker forks
(:func:`ensure_tracker_running`).  A worker that lazily starts its own
private tracker gets its published segments unlinked the moment it
exits — racing the parent's attach.  With one shared tracker the
bookkeeping is clean: creates and attaches register into one
deduplicating set, ``unlink()`` unregisters, and anything left over a
crash is reaped at main-process shutdown.
"""

from __future__ import annotations

import dataclasses
import logging
import threading

from repro.routing.arena import RoutingArena
from repro.telemetry.metrics import get_registry

log = logging.getLogger(__name__)

try:  # pragma: no cover - import always succeeds on CPython >= 3.8
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None  # type: ignore[assignment]

#: ``(name, dtype, shape, offset)`` per arena field — see
#: :meth:`RoutingArena.to_blocks`.
Layout = tuple[tuple[str, str, tuple[int, ...], int], ...]


@dataclasses.dataclass(frozen=True)
class ArenaHandle:
    """Pipe-sized ticket for an arena published in shared memory.

    ``policy`` and ``state_key`` carry the arena's provenance metadata across the
    process boundary so an attached arena is exactly as restricted as
    a locally-built one; ``backend`` carries the kernel-backend name so
    shm peers dispatch the batched kernels the same way (the consumer
    still degrades locally if that backend is unusable there).
    """

    name: str
    graph_n: int
    total_bytes: int
    layout: Layout
    policy: str = "security_3rd"
    state_key: str | None = None
    backend: str = "numpy"


def _note_fallback(reason: str) -> None:
    """Record one pickle-path degradation (warning + counter)."""
    log.warning("shared-memory transport unavailable (%s); falling back to pickled pools", reason)
    get_registry().counter("parallel.shm.fallbacks").inc()


def ensure_tracker_running() -> None:
    """Start the ``resource_tracker`` in THIS process before forking.

    Without this, each forked worker lazily starts its *own* tracker
    when it creates a segment — and that private tracker "cleans up"
    (unlinks) the segment the moment the worker exits, racing the
    parent's attach.  Starting the tracker in the parent first means
    every child inherits the shared one, whose cleanup only runs at
    main-process shutdown.
    """
    try:  # pragma: no branch
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except (ImportError, OSError):  # pragma: no cover - best effort only
        pass


def publish_arena(arena: RoutingArena):
    """Pack ``arena`` into a fresh shared-memory segment.

    Returns ``(handle, segment)`` — the caller keeps ``segment`` open at
    least until a consumer has attached, and is responsible for the
    eventual unlink — or ``None`` when shared memory is unavailable
    (callers then ship the pickled arena; the fallback is counted).
    """
    if _shared_memory is None:  # pragma: no cover - always present on CPython
        _note_fallback("multiprocessing.shared_memory not importable")
        return None
    total, layout = arena.to_blocks()
    try:
        segment = _shared_memory.SharedMemory(create=True, size=max(total, 1))
    except OSError as exc:
        _note_fallback(f"segment creation failed: {exc}")
        return None
    arena.pack_into(segment.buf)
    handle = ArenaHandle(
        name=segment.name,
        graph_n=arena.graph_n,
        total_bytes=total,
        layout=tuple(layout),
        policy=arena.policy,
        state_key=arena.state_key,
        backend=arena.backend,
    )
    return handle, segment


class _Attachment:
    """One process-local mapping of a published segment."""

    __slots__ = ("segment", "arena", "refs")

    def __init__(self, segment, arena: RoutingArena):
        self.segment = segment
        self.arena = arena
        self.refs = 0


_attached: dict[str, _Attachment] = {}
_attached_lock = threading.Lock()


def attach_arena(handle: ArenaHandle) -> RoutingArena:
    """Zero-copy arena over the published segment (attach-once).

    The first call in a process maps the segment and builds the arena;
    subsequent calls for the same segment return the *same* arena and
    bump a refcount.  Pair every call with :func:`release_arena`.
    """
    if _shared_memory is None:  # pragma: no cover
        raise RuntimeError("multiprocessing.shared_memory unavailable")
    with _attached_lock:
        att = _attached.get(handle.name)
        if att is None:
            segment = _shared_memory.SharedMemory(name=handle.name)
            arena = RoutingArena.from_buffer(
                handle.graph_n, segment.buf, list(handle.layout),
                policy=handle.policy, state_key=handle.state_key,
                backend=handle.backend,
            )
            att = _attached[handle.name] = _Attachment(segment, arena)
            get_registry().counter("parallel.shm.attaches").inc()
        att.refs += 1
        return att.arena


def attachment_refs(name: str) -> int:
    """Current process-local refcount for segment ``name`` (0 if unmapped)."""
    with _attached_lock:
        att = _attached.get(name)
        return att.refs if att is not None else 0


def release_arena(name: str, unlink: bool = False) -> None:
    """Drop one reference; unmap (and optionally unlink) at zero.

    Unmapping requires that no numpy views into the segment are still
    alive; live views make the close a no-op until the process exits
    (the OS reclaims the mapping then — never an error).
    """
    with _attached_lock:
        att = _attached.get(name)
        if att is None:
            return
        att.refs -= 1
        if att.refs > 0:
            return
        del _attached[name]
        segment, att.arena = att.segment, None  # drop our views first
    try:
        segment.close()
    except BufferError:  # pragma: no cover - caller still holds views
        log.debug("segment %s still has exported views; deferring unmap to exit", name)
    if unlink:
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


def discard_published_arena(handle: ArenaHandle) -> bool:
    """Unlink a published segment without consuming its contents.

    The graceful-shutdown drain path: a worker finished and published
    its partition arena, but the interrupted map will never hand the
    handle to a consumer.  Attaching + closing + unlinking here releases
    the segment immediately instead of leaving it to the resource
    tracker's at-exit sweep (which, in a long-lived daemon, may be days
    away).  Returns True when a segment was actually unlinked.
    """
    if _shared_memory is None:  # pragma: no cover
        return False
    try:
        segment = _shared_memory.SharedMemory(name=handle.name)
    except (OSError, ValueError):
        return False  # already gone (publisher crashed, or double discard)
    try:
        segment.close()
    finally:
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - racing another unlink
            pass
    get_registry().counter("parallel.shm.discards").inc()
    return True


def consume_published_arena(handle: ArenaHandle) -> RoutingArena | None:
    """Copy a worker-published arena out of shared memory and destroy it.

    The parent-side half of the warm backhaul: attach, copy the pools
    onto the parent heap (one memcpy), close the mapping and unlink the
    segment.  Returns ``None`` when the segment cannot be attached (the
    publisher died before the name reached us) — callers rebuild the
    partition themselves.
    """
    if _shared_memory is None:  # pragma: no cover
        return None
    try:
        segment = _shared_memory.SharedMemory(name=handle.name)
    except (OSError, ValueError) as exc:
        log.warning("could not attach published arena %s (%s)", handle.name, exc)
        return None
    get_registry().counter("parallel.shm.attaches").inc()
    try:
        arena = RoutingArena.from_buffer(
            handle.graph_n, segment.buf, list(handle.layout), copy=True,
            policy=handle.policy, state_key=handle.state_key,
            backend=handle.backend,
        )
    finally:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass
    return arena
