"""A warm holds the arena once: its peak is the arena plus one chunk.

``build_environment`` admits an eager warm when
``RoutingArena.estimate_bytes`` fits the memory budget, so the warm and
the assembly after it (``cache.warm()`` + ``cache.ensure_arena()``, the
two calls it makes) must not peak above that forecast.  On the tier
that sizes a chunk's pools before it fills them (cext) the dense fields
are the arena's from the first chunk on and the pools are allocated
once, so nothing but one chunk's scratch is ever
held beside the arena.  ``tracemalloc`` sees every numpy allocation and
none of the C kernels' ``malloc`` scratch (one node list).
"""

from __future__ import annotations

import tracemalloc

import pytest

import repro.routing.tree as tree_module
from repro.experiments.setup import build_environment
from repro.routing import backends as kb
from repro.routing.arena import ARENA_FIELDS, RoutingArena
from repro.routing.errors import BackendUnavailable
from repro.routing.tree import destination_chunks

_POOLS = {
    "order_pool": "order_ptr", "level_pool": "level_ptr", "indptr_pool": "indptr_ptr",
    "cands_pool": "cand_ptr",
}


def _loads(name: str) -> bool:
    try:
        kb.load_backend(name)
    except BackendUnavailable:
        return False
    return True


def _slot_bytes(arena: RoutingArena, lo: int, hi: int) -> int:
    """Bytes of slots ``lo:hi`` over every pooled field."""
    total = 0
    for name, _ in ARENA_FIELDS:
        field = getattr(arena, name)
        if name in _POOLS:
            ptr = getattr(arena, _POOLS[name])
            total += int(ptr[hi] - ptr[lo]) * field.itemsize
        elif not name.endswith("_ptr"):
            total += field[lo:hi].nbytes
    return total


@pytest.mark.parametrize(
    "backend, sample, rows",
    [
        ("cext", None, None),      # every destination, the chunks as cut
    ],
)
def test_warm_peaks_at_the_arena_plus_one_chunk(backend, sample, rows, monkeypatch):
    if not _loads(backend):
        pytest.skip(f"kernel backend {backend!r} does not load here")
    if rows is not None:
        cg = build_environment(n=500, seed=2011, warm=False).cache.compiled
        cells = cg.n + len(cg.cust_idx) + len(cg.peer_idx) + len(cg.prov_idx)
        monkeypatch.setattr(tree_module, "_CHUNK_CELLS", rows * cells)
    env = build_environment(
        n=500, seed=2011, warm=False, backend=backend, sample_destinations=sample
    )
    cache = env.cache
    chunks = list(destination_chunks(cache.compiled, cache.destinations))
    assert len(chunks) >= 6
    tracemalloc.start()
    try:
        cache.warm()
        arena = cache.ensure_arena()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    starts = [0]
    for chunk in chunks:
        starts.append(starts[-1] + len(chunk))
    chunk_bytes = max(_slot_bytes(arena, lo, hi) for lo, hi in zip(starts, starts[1:]))
    assert peak <= arena.nbytes + chunk_bytes, (peak, arena.nbytes, chunk_bytes)
    forecast = RoutingArena.estimate_bytes(
        len(cache.destinations), env.graph.n, backend=cache.backend_name
    )
    assert peak <= forecast, (peak, forecast)
