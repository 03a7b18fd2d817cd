"""The chunk-batched structure build against its per-destination twins.

The builders this module keeps as references are the bodies that ran in
``src/`` before structures were built a chunk at a time:
``_reference_labels`` / ``_reference_routing`` (the vectorised
one-destination passes and packaging of ``repro.routing.tree``),
``_reference_arrays`` (the per-destination pack of
``RoutingArena.build``) and ``_reference_assemble`` (``_assemble`` of
``repro.routing.fixpoint``), with the ``gather_neighbors`` helper only
they called, plus one step of their packaging that came later: each
tiebreak set put in tie-break order, ascending ``(tie_hash(u, v) &
~POS_MASK, v)`` by the scalar ``policy.tie_hash``, the order the pools
keep.  Everything the batched path produces must
equal them bit for bit: dtype, shape and bytes of all 12 pooled fields
— whichever way a cache came
by its pools (a warm, a resumed warm, a first ask out of order, worker
processes).  The chunk build is a kernel of every backend tier, so each
class that builds runs on numpy (its own name) and again on cext
(``...OnCext``, which skips when the tier does not load).  Nothing is
timed.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import repro.routing.tree as tree_module
from repro.routing import backends as kb
from repro.routing.arena import ARENA_FIELDS, RoutingArena
from repro.routing.cache import RoutingCache
from repro.routing.compiled import CompiledGraph, segment_index
from repro.routing.errors import BackendUnavailable, RouteTooLongError
from repro.routing.fixpoint import PIN_ROUTE, JacobiDriver, fixpoint_pools, pin_table
from repro.routing.policy import (
    POSITION_BITS,
    RouteClass,
    available_policies,
    get_policy,
    tie_hash,
)
from repro.routing.tree import (
    DestRouting,
    chunk_pools,
    compute_dest_routing,
    MAX_ROUTE_LENGTH,
    destination_chunks,
    route_labels,
)
from repro.runtime.errors import DeadlineExceeded
from repro.runtime.guard import Deadline, RuntimeGuard, use_guard
from repro.telemetry.metrics import MetricsRegistry, use_registry
from repro.topology.generator import generate_topology
from repro.topology.graph import ASGraph

from tests.references import (
    compute_dest_routing_sp_first,
    route_labels_scalar,
    tie_keys,
)
from tests.routing.test_variants import restrict_to_primary_reference
from tests.strategies import as_graphs

_UNSET = -1
_HASH_MASK = ~((1 << POSITION_BITS) - 1)
_SELF = int(RouteClass.SELF)
_CUSTOMER = int(RouteClass.CUSTOMER)
_PEER = int(RouteClass.PEER)
_PROVIDER = int(RouteClass.PROVIDER)
_UNREACHABLE = int(RouteClass.UNREACHABLE)


# -- the per-destination references --------------------------------------


def gather_neighbors(indptr: np.ndarray, idx: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Concatenate ``idx[indptr[v]:indptr[v+1]]`` for every ``v`` in ``nodes``."""
    if len(nodes) == 1:
        return idx[indptr[nodes[0]]:indptr[nodes[0] + 1]]
    starts = indptr[nodes].astype(np.int64)
    counts = indptr[nodes + 1].astype(np.int64) - starts
    if not counts.any():
        return idx[0:0]
    return idx[segment_index(starts, counts)]


def _reference_labels(cg: CompiledGraph, dest: int) -> tuple[np.ndarray, np.ndarray]:
    """One destination's passes 1-3 over the edge arrays."""
    n = cg.n
    lengths = np.full(n, _UNSET, dtype=np.int32)
    cls = np.full(n, _UNREACHABLE, dtype=np.int8)
    lengths[dest] = 0
    cls[dest] = _SELF

    frontier = np.array([dest], dtype=np.int32)
    level = 0
    while len(frontier):
        level += 1
        nbrs = gather_neighbors(cg.prov_indptr, cg.prov_idx, frontier)
        if not len(nbrs):
            break
        new = np.unique(nbrs[lengths[nbrs] == _UNSET])
        if not len(new):
            break
        lengths[new] = level
        cls[new] = _CUSTOMER
        frontier = new

    onto = (cls[cg.peer_idx] == _CUSTOMER) | (cls[cg.peer_idx] == _SELF)
    src = cg.peer_src[onto]
    cand = lengths[cg.peer_idx[onto]] + 1
    no_route = cls[src] == _UNREACHABLE
    src, cand = src[no_route], cand[no_route]
    if len(src):
        best = np.full(n, np.iinfo(np.int32).max, dtype=np.int32)
        np.minimum.at(best, src, cand)
        peer_nodes = np.unique(src)
        lengths[peer_nodes] = best[peer_nodes]
        cls[peer_nodes] = _PEER

    max_len = int(lengths.max(initial=0))
    buckets: dict[int, np.ndarray] = {}
    reached = lengths != _UNSET
    if reached.any():
        have = np.flatnonzero(reached)
        for length in np.unique(lengths[have]):
            buckets[int(length)] = have[lengths[have] == length]
    length = 0
    while length in buckets or length <= max_len:
        sources = buckets.pop(length, None)
        if sources is not None and len(sources):
            custs = gather_neighbors(cg.cust_indptr, cg.cust_idx, sources)
            new = np.unique(custs[cls[custs] == _UNREACHABLE])
            if len(new):
                lengths[new] = length + 1
                cls[new] = _PROVIDER
                existing = buckets.get(length + 1)
                buckets[length + 1] = (
                    new if existing is None else np.concatenate([existing, new])
                )
                max_len = max(max_len, length + 1)
        length += 1
        assert length <= n, "provider relaxation did not terminate"
    return cls, lengths


def _package(n, dest, cls, lengths, srcs, dsts) -> DestRouting:
    """Order, levels and the tiebreak CSR of one destination."""
    order = np.flatnonzero(cls != _UNREACHABLE).astype(np.int32)
    order = order[np.argsort(lengths[order], kind="stable")]
    row_of = np.full(n, -1, dtype=np.int32)
    row_of[order] = np.arange(len(order), dtype=np.int32)
    max_len = int(lengths[order[-1]]) if len(order) else 0
    level_starts = np.searchsorted(
        lengths[order], np.arange(max_len + 2), side="left"
    ).astype(np.int32)
    rows = row_of[srcs]
    sort = np.argsort(rows.astype(np.int64) * n + dsts, kind="stable")
    rows, cands = rows[sort], dsts[sort].astype(np.int32)
    indptr = np.zeros(len(order) + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=len(order)), out=indptr[1:])
    # each row's set in tie-break order, by the scalar hash
    for row, u in enumerate(order.tolist()):
        lo, hi = indptr[row], indptr[row + 1]
        cands[lo:hi] = sorted(
            cands[lo:hi].tolist(), key=lambda v: (tie_hash(u, v) & _HASH_MASK, v)
        )
    return DestRouting(
        dest=dest, cls=cls.astype(np.int8), lengths=lengths.astype(np.int8),
        order=order, row_of=row_of, level_starts=level_starts,
        indptr=indptr, cands=cands,
    )


def _reference_routing(cg: CompiledGraph, dest: int) -> DestRouting:
    """One destination's structure: labels, then candidates per edge class."""
    cls, lengths = _reference_labels(cg, dest)
    announces = (cls == _CUSTOMER) | (cls == _SELF)
    c_src, c_dst = cg.cust_src, cg.cust_idx
    c_mask = (
        (cls[c_src] == _CUSTOMER) & announces[c_dst]
        & (lengths[c_dst] == lengths[c_src] - 1)
    )
    p_src, p_dst = cg.peer_src, cg.peer_idx
    p_mask = (
        (cls[p_src] == _PEER) & announces[p_dst]
        & (lengths[p_dst] == lengths[p_src] - 1)
    )
    v_src, v_dst = cg.prov_src, cg.prov_idx
    v_mask = (
        (cls[v_src] == _PROVIDER) & (cls[v_dst] != _UNREACHABLE)
        & (lengths[v_dst] == lengths[v_src] - 1)
    )
    srcs = np.concatenate([c_src[c_mask], p_src[p_mask], v_src[v_mask]])
    dsts = np.concatenate([c_dst[c_mask], p_dst[p_mask], v_dst[v_mask]])
    return _package(cg.n, dest, cls, lengths, srcs, dsts)


def _reference_assemble(table, dest, cls, length, tied) -> DestRouting:
    """One destination's converged fixpoint labels as a structure."""
    keep = tied.copy()
    if table.num_edges:
        keep &= table.u != dest
    return _package(table.n, dest, cls, length, table.u[keep], table.v[keep])


def _reference_arrays(n: int, routings: list[DestRouting]) -> dict[str, np.ndarray]:
    """The 12 pooled fields, one destination at a time."""

    def pool(parts, dtype):
        flat = np.concatenate(parts).astype(dtype) if parts else np.empty(0, dtype)
        ptr = np.zeros(len(parts) + 1, dtype=np.int64)
        np.cumsum([len(p) for p in parts], out=ptr[1:])
        return flat, ptr

    order_pool, order_ptr = pool([r.order for r in routings], np.int32)
    level_pool, level_ptr = pool([r.level_starts for r in routings], np.int32)
    indptr_pool, indptr_ptr = pool([r.indptr for r in routings], np.int32)
    cands_pool, cand_ptr = pool([r.cands for r in routings], np.int32)

    def dense(name, dtype):
        out = np.empty((len(routings), n), dtype=dtype)
        for k, r in enumerate(routings):
            out[k] = getattr(r, name)
        return out

    return {
        "dest_ids": np.asarray([r.dest for r in routings], dtype=np.int32),
        "cls": dense("cls", np.int8),
        "lengths": dense("lengths", np.int8),
        "row_of": dense("row_of", np.int32),
        "order_ptr": order_ptr, "order_pool": order_pool,
        "level_ptr": level_ptr, "level_pool": level_pool,
        "indptr_ptr": indptr_ptr, "indptr_pool": indptr_pool,
        "cand_ptr": cand_ptr, "cands_pool": cands_pool,
    }


def _assert_fields_equal(got, want: dict[str, np.ndarray]) -> None:
    for name, dtype in ARENA_FIELDS:
        a, b = getattr(got, name), want[name]
        assert str(a.dtype) == str(b.dtype) == dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _pool_bytes(pools) -> dict[str, bytes]:
    return {name: getattr(pools, name).tobytes() for name, _ in ARENA_FIELDS}


def _loads(name: str) -> bool:
    try:
        kb.load_backend(name)
    except BackendUnavailable:
        return False
    return True


@pytest.fixture(scope="class", autouse=True)
def _class_tier(request):
    """Inside a class with a ``BACKEND``, every kernel resolution that
    names no backend — chunk builds, caches, the one-row entry points —
    resolves to that tier (class-scoped, so hypothesis tests share it)."""
    backend = getattr(request.cls, "BACKEND", None)
    if backend is None:
        yield
        return
    if not _loads(backend):
        pytest.skip(f"kernel backend {backend!r} does not load here")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(kb.ENV_VAR, backend)
        yield


# -- fixed shapes --------------------------------------------------------


def _graph(n: int, cp=(), peer=()) -> ASGraph:
    """ASes ``1..n``; ``cp`` holds (provider, customer) pairs."""
    g = ASGraph()
    for asn in range(1, n + 1):
        g.add_as(asn)
    for provider, customer in cp:
        g.add_customer_provider(provider=provider, customer=customer)
    for a, b in peer:
        g.add_peering(a, b)
    return g


SHAPES = {
    "provider_chain": _graph(7, cp=[(k, k + 1) for k in range(1, 7)]),
    "pure_tree": _graph(7, cp=[(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)]),
    "diamond": _graph(4, cp=[(1, 2), (1, 3), (2, 4), (3, 4)]),
    "islands": _graph(7, cp=[(1, 2), (1, 3), (4, 5)], peer=[(5, 6)]),
    "mesh": _graph(
        8,
        cp=[(1, 3), (1, 4), (2, 4), (2, 5), (3, 6), (4, 6), (4, 7), (5, 7), (5, 8), (3, 8)],
        peer=[(1, 2), (3, 4), (4, 5), (6, 7), (7, 8)],
    ),
    "no_peer_edges": _graph(6, cp=[(1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (2, 6)]),
    "no_customer_edges": _graph(5, peer=[(1, 2), (2, 3), (3, 4), (1, 4)]),
    "single_node": _graph(1),
}


def _cells_per_row(cg: CompiledGraph) -> int:
    return cg.n + len(cg.cust_idx) + len(cg.peer_idx) + len(cg.prov_idx)


def _force_rows(monkeypatch, cg: CompiledGraph, rows: int) -> None:
    """Make ``destination_chunks`` cut ``rows``-row chunks on ``cg``."""
    monkeypatch.setattr(tree_module, "_CHUNK_CELLS", rows * _cells_per_row(cg))
    assert len(next(destination_chunks(cg, list(range(10 ** 4))))) == rows


def _check_against_references(graph: ASGraph, dests: list[int]) -> None:
    cg = CompiledGraph.from_graph(graph)
    want = [_reference_routing(cg, d) for d in dests]
    parts = list(chunk_pools(cg, dests))
    at = 0
    for part in parts:   # each chunk as built
        _assert_fields_equal(part, _reference_arrays(graph.n, want[at:at + part.num_dests]))
        at += part.num_dests
    arena = RoutingArena.build(graph.n, parts)
    assert arena.dest_ids.tolist() == dests
    _assert_fields_equal(arena, _reference_arrays(graph.n, want))
    chunks = list(route_labels(cg, dests))
    assert np.concatenate([chunk for chunk, _, _ in chunks]).tolist() == dests
    labels = [row for _, cls, lengths in chunks for row in zip(cls, lengths)]
    for dest, (cls, lengths) in zip(dests, labels, strict=True):
        scalar_cls, scalar_lengths = route_labels_scalar(graph, dest)
        assert cls.tobytes() == scalar_cls.tobytes()
        assert lengths.tobytes() == scalar_lengths.tobytes()


#: the tier subclasses run the same hypothesis tests, which hypothesis
#: flags as one test called from several executors: they differ only in
#: the tier the class fixture selects, which draws nothing
_PER_TIER = [HealthCheck.differing_executors]


class TestBatchedBuildBitIdentity:
    BACKEND = "numpy"

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_fixed_shapes_at_every_chunking(self, shape, monkeypatch):
        graph = SHAPES[shape]
        dests = list(range(graph.n))
        cg = CompiledGraph.from_graph(graph)
        for rows in sorted({1, 2, max(1, len(dests) - 1), len(dests), len(dests) + 3}):
            _force_rows(monkeypatch, cg, rows)
            _check_against_references(graph, dests)

    @pytest.mark.parametrize("shape", ["mesh", "islands", "provider_chain"])
    def test_unsorted_and_repeated_destinations(self, shape, monkeypatch):
        graph = SHAPES[shape]
        cg = CompiledGraph.from_graph(graph)
        dests = [graph.n - 1, 0, 2, 2, 1, graph.n - 1, 0]
        for rows in (1, 3, len(dests)):
            _force_rows(monkeypatch, cg, rows)
            _check_against_references(graph, dests)

    @given(as_graphs(max_nodes=16))
    @settings(max_examples=40, deadline=None, suppress_health_check=_PER_TIER)
    def test_random_gr1_graphs(self, graph):
        # the chunk size the graph itself derives, then all destinations
        # reversed with one repeated
        _check_against_references(graph, list(range(graph.n)))
        _check_against_references(graph, [*range(graph.n - 1, -1, -1), 0])

    @given(as_graphs(max_nodes=12))
    @settings(max_examples=25, deadline=None, suppress_health_check=_PER_TIER)
    def test_random_gr1_graphs_two_row_chunks(self, graph):
        # (no monkeypatch fixture under @given: it is function-scoped)
        saved = tree_module._CHUNK_CELLS
        tree_module._CHUNK_CELLS = 2 * _cells_per_row(CompiledGraph.from_graph(graph))
        try:
            _check_against_references(graph, list(range(graph.n)))
        finally:
            tree_module._CHUNK_CELLS = saved

    def test_generated_topology_default_chunks(self):
        graph = generate_topology(n=150, seed=23).graph
        dests = list(range(0, graph.n, 3))
        _check_against_references(graph, dests)

    def test_one_row_entry_points(self):
        graph = SHAPES["mesh"]
        cg = CompiledGraph.from_graph(graph)
        for dest in range(graph.n):
            want = _reference_routing(cg, dest)
            # without a compiled graph, too: the public signature compiles
            for got in (compute_dest_routing(graph, dest, cg), compute_dest_routing(graph, dest)):
                for name in ("cls", "lengths", "order", "row_of", "level_starts", "indptr", "cands"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
                assert tie_keys(got).tobytes() == tie_keys(want).tobytes()
            ((chunk, cls, lengths),) = route_labels(cg, [dest])
            assert chunk.tolist() == [dest]
            assert cls[0].tobytes() == want.cls.tobytes()
            # the passes' own labels, before the arena narrows them
            assert lengths[0].tolist() == want.lengths.tolist()


class TestBatchedBuildBitIdentityOnCext(TestBatchedBuildBitIdentity):
    BACKEND = "cext"


def _chain(n: int) -> ASGraph:
    """ASes ``1..n``, each the provider of the next."""
    return _graph(n, cp=[(k, k + 1) for k in range(1, n)])


class TestRoutesPastTheInt8Lengths:
    """The arena keeps path lengths as int8: a route of
    ``MAX_ROUTE_LENGTH`` (127) hops is the longest it stores, and every
    builder fails typed before it would store a longer one — the
    compiled labels walk included, where a wrapped length would
    misorder the walk itself."""

    BACKEND = "numpy"

    @pytest.mark.parametrize("policy_name", available_policies())
    def test_a_130_as_chain_fails_typed_under_every_policy(self, policy_name):
        graph = _chain(130)
        policy = get_policy(policy_name)
        # toward the top AS every route is a provider route (pass 3),
        # toward the bottom one a customer route (pass 1)
        for dest in (0, graph.n - 1):
            with pytest.raises(RouteTooLongError, match=f"destination {dest} takes more than 127"):
                policy.build_pools(graph, [dest])
        # a chunk that holds a short-route destination too fails as a
        # whole, through a cache's warm as through a one-off build
        cache = RoutingCache(graph, destinations=[graph.n - 1, 64, 0], policy=policy_name)
        with pytest.raises(RouteTooLongError):
            cache.warm()

    def test_a_peer_hop_past_the_limit_fails_typed(self):
        # a customer route of 127 hops reaches AS 1 from AS 128; AS
        # 129, its peer, would take it at 128 (pass 2)
        graph = _graph(129, cp=[(k, k + 1) for k in range(1, 128)], peer=[(1, 129)])
        cg = CompiledGraph.from_graph(graph)
        with pytest.raises(RouteTooLongError, match="destination 127 "):
            list(chunk_pools(cg, [5, 127]))
        (pools,) = chunk_pools(cg, [0])   # toward the top AS: 127 hops at most
        assert pools.lengths.max() == MAX_ROUTE_LENGTH

    def test_a_127_hop_route_is_stored_exactly(self):
        assert MAX_ROUTE_LENGTH == 127
        graph = _chain(128)
        dests = [0, graph.n - 1, 64]
        _check_against_references(graph, dests)
        cg = CompiledGraph.from_graph(graph)
        arena = RoutingArena.build(graph.n, list(chunk_pools(cg, dests)))
        assert arena.lengths.dtype == np.int8
        assert arena.lengths[0].max() == arena.lengths[1].max() == MAX_ROUTE_LENGTH
        assert arena.level_ptr[1] - arena.level_ptr[0] == MAX_ROUTE_LENGTH + 2


class TestRoutesPastTheInt8LengthsOnCext(TestRoutesPastTheInt8Lengths):
    BACKEND = "cext"


class TestFixpointThroughTheAssembler:
    @pytest.mark.parametrize("policy_name", ["security_1st", "security_2nd"])
    def test_equals_per_destination_assemble(self, policy_name):
        graph = generate_topology(n=90, seed=31).graph
        cg = CompiledGraph.from_graph(graph)
        policy = get_policy(policy_name)
        secure = np.zeros(graph.n, dtype=bool)
        secure[::3] = True
        secure[graph.isp_indices[:6]] = True
        breaks = secure.copy()
        breaks[::2] = False
        dests = [5, 0, 17, 42, 89, 17]

        parts = fixpoint_pools(
            graph, dests, policy, cg, node_secure=secure, breaks_ties=breaks
        )

        # the same converged labels, assembled one destination at a time
        driver = JacobiDriver(cg, policy, secure, secure & breaks)
        batch = np.asarray(dests, dtype=np.int64)
        pins = pin_table(len(dests), (batch, PIN_ROUTE, _SELF, 0, secure[batch], False))
        tied = np.zeros((len(dests), driver.table.num_edges), dtype=bool)
        labels = driver.blank(len(dests))
        driver.converge(labels, pins, "reference", tied=tied)
        cls, length, _, _ = labels
        # a stub's providers offer it its own prefix back: tied edges
        # on the destination's segment, which assembly must leave out
        assert tied[2, driver.table.u == dests[2]].any()
        want = [
            _reference_assemble(driver.table, d, cls[k].copy(), length[k].copy(), tied[k])
            for k, d in enumerate(dests)
        ]
        _assert_fields_equal(
            RoutingArena.build(graph.n, parts, policy=policy.name),
            _reference_arrays(graph.n, want),
        )
        # something moved with the state, or this would test nothing
        insecure = fixpoint_pools(graph, dests, policy, cg)
        assert any(
            a.cands_pool.tobytes() != b.cands_pool.tobytes()
            for a, b in zip(parts, insecure, strict=True)
        )


@pytest.mark.parametrize("tier", ["numpy", "cext"])
def test_fixpoint_builds_past_65536_nodes(tier):
    """The fixpoint's edge table is bounded by its edge count alone: a
    star of one ISP and 69,999 stubs converges, toward the ISP and
    toward a stub."""
    if not _loads(tier):
        pytest.skip(f"kernel backend {tier!r} does not load here")
    n = 70_000
    graph = ASGraph()
    for asn in range(1, n + 1):
        graph.add_as(asn)
    for stub in range(2, n + 1):
        graph.add_customer_provider(provider=1, customer=stub)
    hub, stub = graph.index(1), graph.index(n)
    parts = fixpoint_pools(graph, [hub, stub], get_policy("security_2nd"), backend=tier)
    toward_hub, toward_stub = (view for part in parts for view in part.views())
    assert (toward_hub.lengths[np.arange(n) != hub] == 1).all()
    assert toward_stub.lengths[hub] == 1
    assert (toward_stub.lengths[np.arange(n) != hub] == 2).sum() == n - 2


class TestChunkAccounting:
    BACKEND = "numpy"

    def test_full_warm_issues_one_build_per_chunk(self):
        graph = generate_topology(n=500, seed=2011).graph
        with use_registry(MetricsRegistry()) as registry:
            cache = RoutingCache(graph)
            rows = len(next(destination_chunks(cache.compiled, cache.destinations)))
            assert 1 < rows < graph.n  # several chunks, none of one row
            cache.warm()
            cache.ensure_arena()
            snap = registry.snapshot()
        counters = snap["counters"]
        assert counters["routing.structure.chunks"] == math.ceil(graph.n / rows)
        assert counters["routing.arena.builds"] == 1
        # one observation per tree, however many a chunk holds
        assert counters["routing.tree_builds"] == graph.n
        assert snap["histograms"]["routing.tree_build_seconds"]["count"] == graph.n
        stats = cache.stats()
        assert stats.builds == graph.n
        assert stats.warm_seconds > 0

    def test_deadline_between_chunks_keeps_finished_chunks(self, small_graph, monkeypatch):
        _force_rows(monkeypatch, CompiledGraph.from_graph(small_graph), 16)
        cache = RoutingCache(small_graph)
        ticks = iter(range(10 ** 6))
        # one tick at construction, one per check: the third check expires
        guard = RuntimeGuard(deadline=Deadline(2.5, clock=lambda: next(ticks)))
        with use_guard(guard), pytest.raises(DeadlineExceeded, match="cache warm"):
            cache.warm()
        assert cache.stats().cached == 32
        assert cache.pending_runs() == [(32, small_graph.n)]
        cache.warm()  # resumes where it stopped
        assert cache.stats().builds == small_graph.n

    def test_a_destination_outside_the_list_is_answered_and_not_kept(self, small_graph):
        cache = RoutingCache(small_graph, destinations=[4, 9])
        cache.ensure_arena()
        ((pools, slots),) = cache.pools_for([7])
        outside = pools.view(int(slots[0]))
        want = compute_dest_routing(small_graph, 7, cache.compiled)
        assert outside.dest == 7 and outside.cands.tobytes() == want.cands.tobytes()
        ((again, _),) = cache.pools_for([7])
        assert again is not pools
        stats = cache.stats()
        # both answers counted as builds, neither kept
        assert (stats.cached, stats.total, stats.builds) == (2, 2, 4)


class TestChunkAccountingOnCext(TestChunkAccounting):
    BACKEND = "cext"


def _mixed_state(graph: ASGraph) -> tuple[np.ndarray, np.ndarray]:
    secure = np.zeros(graph.n, dtype=bool)
    secure[::3] = True
    secure[graph.isp_indices[:6]] = True
    breaks = secure.copy()
    breaks[::2] = False
    return secure, breaks


def _reference_for(policy_name: str, graph: ASGraph, dests: list[int]) -> dict[str, np.ndarray]:
    """The 12 fields of ``dests`` under a registered policy, one
    destination at a time (state-dependent ones under ``_mixed_state``)."""
    cg = CompiledGraph.from_graph(graph)
    policy = get_policy(policy_name)
    if policy.state_dependent:
        secure, breaks = _mixed_state(graph)
        driver = JacobiDriver(cg, policy, secure, secure & breaks, backend="numpy")
        batch = np.asarray(dests, dtype=np.int64)
        pins = pin_table(len(dests), (batch, PIN_ROUTE, _SELF, 0, secure[batch], False))
        tied = np.zeros((len(dests), driver.table.num_edges), dtype=bool)
        labels = driver.blank(len(dests))
        driver.converge(labels, pins, "reference", tied=tied)
        cls, length, _, _ = labels
        routings = [
            _reference_assemble(driver.table, d, cls[k].copy(), length[k].copy(), tied[k])
            for k, d in enumerate(dests)
        ]
    elif policy_name == "sp_first":
        routings = [compute_dest_routing_sp_first(graph, d) for d in dests]
    else:
        routings = [_reference_routing(cg, d) for d in dests]
        sticky = policy.sticky_mask(graph.n)
        if sticky is not None:
            routings = [restrict_to_primary_reference(r, sticky) for r in routings]
    return _reference_arrays(graph.n, routings)


@pytest.mark.parametrize("policy_name", available_policies())
class TestCachePoolsParity:
    """However a cache comes by its pools, the arena it concatenates
    from them is the per-destination references', byte for byte."""

    BACKEND = "numpy"
    GRAPH = generate_topology(n=90, seed=31).graph
    DESTS = list(range(0, 90, 2)) + [1, 89]  # 47 destinations, unsorted tail

    def _cache(self, policy_name, monkeypatch) -> RoutingCache:
        _force_rows(monkeypatch, CompiledGraph.from_graph(self.GRAPH), 8)
        cache = RoutingCache(self.GRAPH, destinations=self.DESTS, policy=policy_name)
        if cache.policy.state_dependent:
            cache.ensure_state(*_mixed_state(self.GRAPH))
        assert len(cache.pending_runs()) == 1 and cache.rows_per_chunk == 8
        return cache

    def _check(self, cache: RoutingCache) -> None:
        arena = cache.ensure_arena()
        assert (arena.policy, arena.state_key) == (cache.policy_name, cache.state_key)
        _assert_fields_equal(arena, _reference_for(cache.policy_name, self.GRAPH, self.DESTS))
        assert cache.stats().cached == len(self.DESTS) and not cache.pending_runs()

    def test_full_warm(self, policy_name, monkeypatch):
        cache = self._cache(policy_name, monkeypatch)
        cache.warm()
        assert cache.stats().builds == len(self.DESTS)
        self._check(cache)

    def test_warm_interrupted_by_a_deadline_and_resumed(self, policy_name, monkeypatch):
        cache = self._cache(policy_name, monkeypatch)
        ticks = iter(range(10 ** 6))
        guard = RuntimeGuard(deadline=Deadline(3.5, clock=lambda: next(ticks)))
        with use_guard(guard), pytest.raises(DeadlineExceeded):
            cache.warm()
        assert 0 < cache.stats().cached < len(self.DESTS)
        self._check(cache)
        assert cache.stats().builds == len(self.DESTS)  # nothing built twice

    def test_out_of_order_lazy_misses(self, policy_name, monkeypatch):
        """An unwarmed cache asked for destinations out of order warms
        on the first ask and hands out their slots in the order asked."""
        cache = self._cache(policy_name, monkeypatch)
        want = _reference_for(policy_name, self.GRAPH, self.DESTS)
        picks = [40, 3, 46, 17]
        ((pools, slots),) = cache.pools_for([self.DESTS[pos] for pos in picks])
        assert slots.tolist() == picks
        for pos in picks:
            _assert_slot_equal(pools.view(pos), want, pos)
        self._check(cache)
        assert cache.stats().builds == len(self.DESTS)


class TestCachePoolsParityOnCext(TestCachePoolsParity):
    BACKEND = "cext"


@pytest.mark.parametrize("policy_name", ["security_3rd", "security_2nd"])
class TestStoppedWarmHandsOutItsChunks:
    """A warm stopped by a deadline holds its chunks in the arena's
    assembly — labelled in place on cext, built whole
    everywhere else.  The arena assembled afterwards builds only the
    chunks still missing, and it is the references', byte for byte."""

    BACKEND = "numpy"
    GRAPH = TestCachePoolsParity.GRAPH
    DESTS = TestCachePoolsParity.DESTS

    def test_a_miss_on_a_warmed_chunk_builds_nothing(self, policy_name, monkeypatch):
        cache = TestCachePoolsParity._cache(self, policy_name, monkeypatch)
        ticks = iter(range(10 ** 6))
        guard = RuntimeGuard(deadline=Deadline(3.5, clock=lambda: next(ticks)))
        with use_guard(guard), pytest.raises(DeadlineExceeded):
            cache.warm()
        assert 16 <= cache.stats().cached < len(self.DESTS)
        TestCachePoolsParity._check(self, cache)
        assert cache.stats().builds == len(self.DESTS)  # each chunk built once


class TestStoppedWarmHandsOutItsChunksOnCext(TestStoppedWarmHandsOutItsChunks):
    BACKEND = "cext"


def _assert_slot_equal(view: DestRouting, want: dict[str, np.ndarray], slot: int) -> None:
    """``view`` is slot ``slot`` of the pooled fields ``want``."""
    assert view.dest == want["dest_ids"][slot]
    for name, field in (("cls", "cls"), ("lengths", "lengths"), ("row_of", "row_of")):
        assert getattr(view, name).tobytes() == want[field][slot].tobytes(), name
    for name, ptr, pool in (
        ("order", "order_ptr", "order_pool"), ("level_starts", "level_ptr", "level_pool"),
        ("indptr", "indptr_ptr", "indptr_pool"), ("cands", "cand_ptr", "cands_pool"),
    ):
        lo, hi = want[ptr][slot], want[ptr][slot + 1]
        assert getattr(view, name).tobytes() == want[pool][lo:hi].tobytes(), name


class TestViewsLeaveThePoolsAlone:
    def test_restriction_writes_no_chunk(self, small_graph):
        cg = CompiledGraph.from_graph(small_graph)
        (pools,) = chunk_pools(cg, range(24))
        before = _pool_bytes(pools)
        restricted = pools.restrict_to_primary(np.ones(small_graph.n, dtype=bool))
        assert len(restricted.cands_pool) < len(pools.cands_pool)
        assert _pool_bytes(pools) == before

        # ... and the arena that joins chunks copies them in and writes
        # none of them
        parts = (restricted, pools)
        had = [_pool_bytes(part) for part in parts]
        arena = RoutingArena.build(small_graph.n, list(parts))
        assert arena.num_dests == 48 and not np.shares_memory(arena.cls, pools.cls)
        assert arena.cands_pool.tobytes() == b"".join(h["cands_pool"] for h in had)
        for part, before in zip(parts, had):
            assert _pool_bytes(part) == before

    def test_a_pickled_view_ships_its_own_slices_only(self, small_graph):
        cg = CompiledGraph.from_graph(small_graph)
        (pools,) = chunk_pools(cg, range(40))
        alone = compute_dest_routing(small_graph, 7, cg)
        shipped = pickle.loads(pickle.dumps(pools.view(7)))
        assert len(pickle.dumps(pools.view(7))) < 2 * len(pickle.dumps(alone))
        assert shipped.cands.tobytes() == alone.cands.tobytes()
        assert tie_keys(shipped).tobytes() == tie_keys(alone).tobytes()
