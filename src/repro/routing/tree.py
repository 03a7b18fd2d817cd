"""Route classes, lengths and tiebreak sets, built a destination chunk at a time.

Observation C.1 of the paper: under the routing policies of Appendix A,
the *length* and *type* (customer / peer / provider) of every node's
selected route to a destination are independent of the deployment state
``S``.  Only the choice *within* the tiebreak set — the set of
equally-good next hops — depends on ``S`` (via the SecP step).

This module computes that state-independent structure once per
destination with the three-pass algorithm of [15] (customer-route BFS,
peer hop, provider relaxation by increasing length), stacked across a
chunk of destinations: frontiers are flat ``row * n + node`` indices
into the chunk's ``[rows, n]`` labels (:func:`_three_passes`), and one
assembler (:func:`assemble_pools`) turns labels plus candidate edges
into :class:`StructurePools` — the pooled CSR form of the routing arena,
ordered by path length for the level-synchronous routing trees of
Appendix C.2.  A :class:`DestRouting` is a zero-copy view of one slot.

A straightforward scalar implementation is kept for differential tests.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections import deque
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.routing.compiled import CompiledGraph, offsets, segment_index
from repro.routing.policy import POSITION_BITS, RouteClass, tie_hash_array
from repro.telemetry.metrics import get_registry
from repro.topology.graph import ASGraph

_UNSET = -1
_POS_MASK = np.uint64((1 << POSITION_BITS) - 1)
_HASH_MASK = ~_POS_MASK

_SELF = int(RouteClass.SELF)
_CUSTOMER = int(RouteClass.CUSTOMER)
_PEER = int(RouteClass.PEER)
_PROVIDER = int(RouteClass.PROVIDER)
_UNREACHABLE = int(RouteClass.UNREACHABLE)

#: transient cells one chunk may span: rows x (nodes + directed edges).
#: Fewer rows pay a build's ~350 numpy calls more often, more fall out
#: of cache: within 5% from 130K to 520K cells at N=500, 1000 and 8000,
#: and the low end keeps a chunk's scratch memory near 2 MiB.
_CHUNK_CELLS = 1 << 18


@dataclasses.dataclass(frozen=True)
class RouteInfo:
    """Selected-route class and length per node for one destination."""

    dest: int
    cls: np.ndarray      # int8, RouteClass values
    lengths: np.ndarray  # int32, -1 where unreachable


def destination_chunks(cg: CompiledGraph, dests: Sequence[int]) -> Iterator[Sequence[int]]:
    """Cut ``dests`` into the chunks structures are built in.

    The chunk size follows from the graph (``_CHUNK_CELLS`` over nodes
    plus directed edges), so the transient working set of a build is
    bounded whatever the graph and nobody has to tune it.
    """
    edges = len(cg.cust_idx) + len(cg.peer_idx) + len(cg.prov_idx)
    rows = max(1, _CHUNK_CELLS // (cg.n + edges))
    for start in range(0, len(dests), rows):
        yield dests[start:start + rows]


def _three_passes(
    cg: CompiledGraph, dests: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Route class and length of every node toward each of ``dests``.

    Returns ``(cls int8[rows, n], lengths int32[rows, n], src_flat,
    dst)``; ``src_flat[i] = row * n + node`` may route via ``dst[i]``,
    for every tiebreak candidate: the edges a pass relaxed onto a node
    at the level that node was settled.  Each pass is the same
    level-synchronous relaxation over one CSR of the graph, for the
    whole chunk at once:

    1. customer routes: BFS from each destination along
       customer->provider edges (every hop of a customer route must
       itself be a customer route to be exportable upward);
    2. peer routes: one peer hop off a customer route, nearest level
       of the customer cone first, for nodes pass 1 left without one;
    3. provider routes: down customer edges in order of increasing
       selected length (all hops cost 1, so Dijkstra degenerates to
       per-length buckets); a provider exports whatever it selected.
    """
    n = cg.n
    dest = np.asarray(dests, dtype=np.int64)
    cls = np.full((len(dest), n), _UNREACHABLE, dtype=np.int8)
    lengths = np.full((len(dest), n), _UNSET, dtype=np.int32)
    cls_f, len_f = cls.reshape(-1), lengths.reshape(-1)
    mark = np.empty(cls.size, dtype=np.int32)  # scratch over the flat index space
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    #: length -> the (flat, node) frontiers settled at that length
    settled: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}

    def relax(csr, sources, route_cls, length):
        """Offer a route of ``length`` across every CSR edge out of
        ``sources`` (aligned ``flat = row * n + node`` and ``node``);
        the neighbours still without a route take it and come back."""
        (indptr, idx, owner), (flat, node) = csr, sources
        starts = indptr[node]
        counts = indptr[node + 1] - starts
        entry = segment_index(starts, counts)
        tgt = np.repeat(flat - node, counts) + idx[entry]
        new = np.flatnonzero(cls_f[tgt] == _UNREACHABLE)
        tgt, entry = tgt[new], entry[new]
        cls_f[tgt] = route_cls
        len_f[tgt] = length
        srcs.append(tgt)
        dsts.append(owner[entry])  # the source node the offer came from
        ids = np.arange(len(tgt), dtype=np.int32)
        mark[tgt] = ids  # one entry per distinct target: whichever write lands
        one = np.flatnonzero(mark[tgt] == ids)
        frontier = tgt[one], idx[entry[one]]
        if len(one):
            settled.setdefault(length, []).append(frontier)
        return frontier

    origin = np.arange(len(dest), dtype=np.int64) * n + dest
    cls_f[origin] = _SELF
    len_f[origin] = 0
    cone = [(origin, dest)]  # pass 1's frontier per level
    settled[0] = [cone[0]]
    up = (cg.prov_indptr, cg.prov_idx, cg.prov_src)
    while len(cone[-1][0]):
        cone.append(relax(up, cone[-1], _CUSTOMER, len(cone)))
    for level, sources in enumerate(cone[:-1]):
        relax((cg.peer_indptr, cg.peer_idx, cg.peer_src), sources, _PEER, level + 1)
    length = 0
    while length in settled:  # no gaps: a route of length L + 1 has a next hop at L
        sources = tuple(np.concatenate(part) for part in zip(*settled[length]))
        length += 1
        relax((cg.cust_indptr, cg.cust_idx, cg.cust_src), sources, _PROVIDER, length)
    return cls, lengths, np.concatenate(srcs), np.concatenate(dsts)


def route_labels(
    cg: CompiledGraph, dests: Sequence[int]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Passes 1-3 alone, a chunk at a time: yields ``(int64[rows] chunk
    of dests, cls int8[rows, n], lengths int32[rows, n])``."""
    for chunk in destination_chunks(cg, dests):
        cls, lengths, _, _ = _three_passes(cg, chunk)
        yield np.asarray(chunk, dtype=np.int64), cls, lengths


def route_classes_and_lengths(
    graph: ASGraph, dest: int, compiled: CompiledGraph | None = None
) -> RouteInfo:
    """Each node's selected-route class and length to ``dest`` (a dense
    node index): the one-row chunk of :func:`_three_passes`."""
    cls, lengths, _, _ = _three_passes(compiled or CompiledGraph.from_graph(graph), [dest])
    return RouteInfo(dest=dest, cls=cls[0], lengths=lengths[0])


def route_classes_and_lengths_scalar(graph: ASGraph, dest: int) -> RouteInfo:
    """Scalar reference implementation of :func:`route_classes_and_lengths`."""
    n = graph.n
    dist_cust = np.full(n, _UNSET, dtype=np.int32)
    dist_peer = np.full(n, _UNSET, dtype=np.int32)
    dist_prov = np.full(n, _UNSET, dtype=np.int32)

    dist_cust[dest] = 0
    queue: deque[int] = deque([dest])
    while queue:
        u = queue.popleft()
        for p in graph.providers[u]:
            if dist_cust[p] == _UNSET:
                dist_cust[p] = dist_cust[u] + 1
                queue.append(p)

    for i in range(n):
        if i == dest:
            continue
        best = _UNSET
        for p in graph.peers[i]:
            dp = dist_cust[p]
            if dp != _UNSET and (best == _UNSET or dp + 1 < best):
                best = dp + 1
        dist_peer[i] = best

    selected_len = np.full(n, _UNSET, dtype=np.int32)
    heap: list[tuple[int, int]] = []
    for i in range(n):
        if dist_cust[i] != _UNSET:
            selected_len[i] = dist_cust[i]
        elif dist_peer[i] != _UNSET:
            selected_len[i] = dist_peer[i]
        if selected_len[i] != _UNSET:
            heapq.heappush(heap, (int(selected_len[i]), i))

    done = np.zeros(n, dtype=bool)
    while heap:
        du, u = heapq.heappop(heap)
        if done[u] or du != selected_len[u]:
            continue
        done[u] = True
        for c in graph.customers[u]:
            if dist_cust[c] != _UNSET or dist_peer[c] != _UNSET:
                continue
            cand = du + 1
            if dist_prov[c] == _UNSET or cand < dist_prov[c]:
                dist_prov[c] = cand
                selected_len[c] = cand
                heapq.heappush(heap, (cand, c))

    cls = np.full(n, _UNREACHABLE, dtype=np.int8)
    cls[dest] = _SELF
    for i in range(n):
        if i == dest:
            continue
        if dist_cust[i] != _UNSET:
            cls[i] = _CUSTOMER
        elif dist_peer[i] != _UNSET:
            cls[i] = _PEER
        elif dist_prov[i] != _UNSET:
            cls[i] = _PROVIDER
    return RouteInfo(dest=dest, cls=cls, lengths=selected_len)


@dataclasses.dataclass
class DestRouting:
    """State-independent routing structure for one destination.

    Rows of the tiebreak CSR (``indptr`` / ``cands``) are aligned with
    ``order``, which lists reachable nodes by ascending selected-route
    length (``order[0]`` is the destination).  ``level_starts[L]``
    delimits nodes of length ``L`` within ``order``.
    """

    dest: int
    cls: np.ndarray           # int8[n]
    lengths: np.ndarray       # int32[n]
    order: np.ndarray         # int32[num_reachable]
    row_of: np.ndarray        # int32[n], row in `order`, -1 if unreachable
    level_starts: np.ndarray  # int32[num_levels + 1]
    indptr: np.ndarray        # int64[num_reachable + 1]
    cands: np.ndarray         # int32[nnz], candidate next hops (node indices)
    _rev: tuple[np.ndarray, np.ndarray] | None = dataclasses.field(
        default=None, repr=False, compare=False
    )
    #: uint64[nnz] state-independent tie-break keys, aligned with
    #: ``cands``: hash high bits | within-row position low bits.  The
    #: keys do not depend on the deployment state, so they are computed
    #: once (lazily here; an arena view carries its slice) instead of on
    #: every ``compute_tree`` call.
    _tie_keys: np.ndarray | None = dataclasses.field(
        default=None, repr=False, compare=False
    )
    #: registry name of the :class:`~repro.routing.policy.RoutingPolicy`
    #: this structure was built under.  Metadata only (the arrays fully
    #: describe routing), so it never participates in equality.
    policy: str = dataclasses.field(default="security_3rd", compare=False)
    #: ``(pools, slot)`` when the arrays are views of a
    #: :class:`StructurePools`: lets :meth:`StructurePools.join` copy a
    #: run of neighbouring slots as one slice per pool.
    _pools: "tuple[StructurePools, int] | None" = dataclasses.field(
        default=None, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        # a pickled view ships its own slices, never the pools behind it
        return {**self.__dict__, "_pools": None}

    @property
    def num_reachable(self) -> int:
        """Number of nodes with a route to the destination (incl. itself)."""
        return len(self.order)

    def tiebreak_set(self, node: int) -> np.ndarray:
        """Candidate next hops of ``node`` (empty if unreachable / dest)."""
        r = self.row_of[node]
        if r < 0:
            return self.cands[0:0]
        return self.cands[self.indptr[r]:self.indptr[r + 1]]

    def tiebreak_sizes(self) -> np.ndarray:
        """Tiebreak-set size per *row* (aligned with ``order``)."""
        return np.diff(self.indptr)

    def reverse_tiebreak(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR (indptr, nodes) mapping node -> nodes that list it as a candidate.

        Indexed by dense node id; used by the incremental projection
        engine to propagate security changes upward.  Built lazily.
        """
        if self._rev is None:
            n = len(self.cls)
            srcs = np.repeat(self.order, np.diff(self.indptr))
            sort = np.argsort(self.cands, kind="stable")
            rev_nodes = srcs[sort].astype(np.int32)
            counts = np.bincount(self.cands, minlength=n)
            self._rev = (offsets(counts), rev_nodes)
        return self._rev

    def dependents_of(self, node: int) -> np.ndarray:
        """Nodes whose tiebreak set contains ``node``."""
        rev_indptr, rev_nodes = self.reverse_tiebreak()
        return rev_nodes[rev_indptr[node]:rev_indptr[node + 1]]

    def tie_keys(self) -> np.ndarray:
        """State-independent tie-break keys per CSR entry (see field doc)."""
        if self._tie_keys is None:
            self._tie_keys = compute_tie_keys(self.order, self.indptr, self.cands)
        return self._tie_keys


def compute_tie_keys(
    order: np.ndarray, indptr: np.ndarray, cands: np.ndarray
) -> np.ndarray:
    """Tie-break key per tiebreak-CSR entry: hash high bits | position.

    The ``minimum.reduceat`` in the tree kernels extracts both the
    winning candidate's hash rank and its row position from one uint64,
    so the low :data:`~repro.routing.policy.POSITION_BITS` bits carry
    the candidate's index within its row (also disambiguating hash
    collisions deterministically).
    """
    sizes = np.diff(indptr)
    rel = np.arange(len(cands)) - np.repeat(indptr[:-1], sizes)
    keys = tie_hash_array(np.repeat(order, sizes), cands)
    return (keys & _HASH_MASK) | rel.astype(np.uint64)


#: (field name, dtype) of every pooled array, in serialisation order.
#: ``*_ptr`` tables have length ``num_dests + 1``; matrices are
#: ``[num_dests, n]``; pools are flat.
ARENA_FIELDS: tuple[tuple[str, str], ...] = (
    ("dest_ids", "int32"),
    ("cls", "int8"),
    ("lengths", "int32"),
    ("row_of", "int32"),
    ("order_ptr", "int64"),
    ("order_pool", "int32"),
    ("level_ptr", "int64"),
    ("level_pool", "int32"),
    ("indptr_ptr", "int64"),
    ("indptr_pool", "int64"),
    ("cand_ptr", "int64"),
    ("cands_pool", "int32"),
    ("keys_pool", "uint64"),
)

#: each ``*_ptr`` table with the flat pool it indexes (keys follow ``cand_ptr``)
_POOL_OF_PTR = (
    ("order_ptr", "order_pool"),
    ("level_ptr", "level_pool"),
    ("indptr_ptr", "indptr_pool"),
    ("cand_ptr", "cands_pool"),
)


class StructurePools:
    """The structures of a run of destinations ("slots"), pooled.

    One array per :data:`ARENA_FIELDS` entry: a slot's ``order`` /
    ``level_starts`` / ``indptr`` / ``cands`` (and tie-break keys) are
    the ``*_ptr[k]:*_ptr[k + 1]`` slice of the matching pool, its
    ``cls`` / ``lengths`` / ``row_of`` row ``k`` of the dense matrices.
    The builder emits one per destination chunk; the routing arena is
    the join of those.  Only a joined set pools its tie-break keys
    (``keys_pool`` is None on a chunk, :meth:`tie_keys` derives them),
    so the largest field is never held twice while chunks are joined.
    Pools are never written after construction: views are handed out.
    """

    def __init__(self, arrays: dict[str, np.ndarray], policy: str = "security_3rd"):
        #: registry name of the routing policy the structures were built
        #: under (stamped on every view)
        self.policy = policy
        for name, dtype in ARENA_FIELDS:
            arr = arrays.get(name) if name == "keys_pool" else arrays[name]
            if arr is not None and arr.dtype != dtype:
                raise ValueError(f"arena field {name}: expected {dtype}, got {arr.dtype}")
            setattr(self, name, arr)

    @property
    def num_dests(self) -> int:
        return len(self.dest_ids)

    def row_sizes(self, lo: int, hi: int) -> np.ndarray:
        """Tiebreak-set size of every pooled row of slots ``lo:hi`` (a
        slot's ``indptr`` run closes with one extra entry: those go)."""
        ptr = self.indptr_ptr[lo:hi + 1]
        return np.delete(np.diff(self.indptr_pool[ptr[0]:ptr[-1]]), ptr[1:-1] - ptr[0] - 1)

    def tie_keys(self, lo: int, hi: int) -> np.ndarray:
        """Tie-break keys of every candidate of slots ``lo:hi``."""
        c_lo, c_hi = self.cand_ptr[lo], self.cand_ptr[hi]
        if self.keys_pool is not None:
            return self.keys_pool[c_lo:c_hi]
        return compute_tie_keys(
            self.order_pool[self.order_ptr[lo]:self.order_ptr[hi]],
            offsets(self.row_sizes(lo, hi)),
            self.cands_pool[c_lo:c_hi],
        )

    def view(self, slot: int) -> DestRouting:
        """Zero-copy :class:`DestRouting` for destination slot ``slot``."""
        o_lo, o_hi = self.order_ptr[slot:slot + 2].tolist()
        l_lo, l_hi = self.level_ptr[slot:slot + 2].tolist()
        i_lo, i_hi = self.indptr_ptr[slot:slot + 2].tolist()
        c_lo, c_hi = self.cand_ptr[slot:slot + 2].tolist()
        return DestRouting(
            dest=int(self.dest_ids[slot]),
            cls=self.cls[slot],
            lengths=self.lengths[slot],
            order=self.order_pool[o_lo:o_hi],
            row_of=self.row_of[slot],
            level_starts=self.level_pool[l_lo:l_hi],
            indptr=self.indptr_pool[i_lo:i_hi],
            cands=self.cands_pool[c_lo:c_hi],
            _tie_keys=None if self.keys_pool is None else self.keys_pool[c_lo:c_hi],
            policy=self.policy,
            _pools=(self, slot),
        )

    def views(self) -> list[DestRouting]:
        """Zero-copy views for every destination slot, in slot order."""
        return [self.view(k) for k in range(self.num_dests)]

    @classmethod
    def of(cls, routing: DestRouting) -> "StructurePools":
        """A free-standing :class:`DestRouting` as one-slot pools (its
        arrays are shared, not copied, when their dtypes already fit)."""
        given = {
            "dest_ids": [routing.dest], "cls": routing.cls[None],
            "lengths": routing.lengths[None], "row_of": routing.row_of[None],
            "order_pool": routing.order, "level_pool": routing.level_starts,
            "indptr_pool": routing.indptr, "cands_pool": routing.cands,
        }
        for ptr, pool in _POOL_OF_PTR:
            given[ptr] = [0, len(given[pool])]
        dtypes = dict(ARENA_FIELDS)
        return cls(
            {name: np.asarray(arr, dtype=dtypes[name]) for name, arr in given.items()},
            routing.policy,
        )

    def restrict_to_primary(self, sticky: np.ndarray) -> "StructurePools":
        """New pools in which every ``sticky`` (bool[n]) node with
        several candidates keeps only its primary: the minimum of the
        row's tie keys, what TB picks in a security-free world (§8.3).
        ``self`` is left as it was; untouched arrays are shared."""
        sizes = self.row_sizes(0, self.num_dests)
        starts = offsets(sizes)
        some = np.flatnonzero(sizes)
        collapse = (sticky[self.order_pool] & (sizes > 1))[some]
        least = np.minimum.reduceat(self.tie_keys(0, self.num_dests), starts[some])
        rows = some[collapse]
        keep = np.ones(len(self.cands_pool), dtype=bool)
        keep[segment_index(starts[rows], sizes[rows])] = False
        keep[starts[rows] + (least[collapse] & _POS_MASK).astype(np.int64)] = True
        sizes[rows] = 1
        indptr_ptr, indptr_pool, cand_ptr = _local_indptr(offsets(sizes), self.order_ptr)
        arrays = {name: getattr(self, name) for name, _ in ARENA_FIELDS[:-1]}
        arrays.update(
            indptr_ptr=indptr_ptr, indptr_pool=indptr_pool, cand_ptr=cand_ptr,
            cands_pool=self.cands_pool[keep],
        )
        return StructurePools(arrays, self.policy)

    @staticmethod
    def join(n: int, dest_ids: Sequence[int], routings: Sequence[DestRouting]) -> dict:
        """Pool ``routings`` (``routings[k]`` is slot ``k``, the
        structure for ``dest_ids[k]``) into one array per field.  Views
        of neighbouring slots of one pools object are copied as a single
        run — whole chunks, after a warm — a free-standing structure as
        a run of one."""
        if len(dest_ids) != len(routings):
            raise ValueError("dest_ids and routings must align")
        runs: list[list] = []
        for routing in routings:
            pools, slot = routing._pools or (StructurePools.of(routing), 0)
            if runs and runs[-1][0] is pools and runs[-1][2] == slot:
                runs[-1][2] = slot + 1
            else:
                runs.append([pools, slot, slot + 1])
        dtypes = dict(ARENA_FIELDS)

        def cat(name, parts, shape=(0,)):
            # the empty head fixes dtype and shape when there is no run
            return np.concatenate([np.empty(shape, dtype=dtypes[name]), *parts])

        # the keys first, a run at a time, while the rest of the arena
        # is not there yet: deriving them is what takes scratch memory
        ends = np.cumsum([0] + [int(p.cand_ptr[hi] - p.cand_ptr[lo]) for p, lo, hi in runs])
        keys = np.empty(ends[-1], dtype=np.uint64)
        for (p, lo, hi), at, end in zip(runs, ends, ends[1:]):
            keys[at:end] = p.tie_keys(lo, hi)
        arrays = {"dest_ids": np.asarray(dest_ids, dtype=np.int32), "keys_pool": keys}
        for name in ("cls", "lengths", "row_of"):
            arrays[name] = cat(
                name, [getattr(p, name)[lo:hi] for p, lo, hi in runs], (0, n)
            )
        for ptr, pool in _POOL_OF_PTR:
            spans = [getattr(p, ptr)[lo:hi + 1] for p, lo, hi in runs]
            arrays[ptr] = offsets(cat(ptr, [np.diff(span) for span in spans]))
            arrays[pool] = cat(pool, [
                getattr(p, pool)[span[0]:span[-1]] for (p, _, _), span in zip(runs, spans)
            ])
        return arrays


def _local_indptr(
    cum: np.ndarray, order_ptr: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut one CSR index over all pooled rows (``cum``) into per-slot
    ``indptr`` runs, each from 0 to its own closing entry: returns
    ``(indptr_ptr, indptr_pool, cand_ptr)``."""
    spans = np.diff(order_ptr) + 1
    cand_ptr = cum[order_ptr]
    indptr_pool = cum[segment_index(order_ptr[:-1], spans)]
    indptr_pool -= np.repeat(cand_ptr[:-1], spans)
    return order_ptr + np.arange(len(order_ptr)), indptr_pool, cand_ptr


def assemble_pools(
    dests: Sequence[int],
    cls: np.ndarray,
    lengths: np.ndarray,
    src_flat: np.ndarray,
    dst: np.ndarray,
) -> StructurePools:
    """Pool a chunk's labels and tiebreak candidates.

    ``cls`` / ``lengths`` are the ``[rows, n]`` labels of ``dests``
    (``lengths`` is -1 exactly where ``cls`` is unreachable; every
    destination reaches itself at length 0).  Candidate ``i`` says that
    in row ``src_flat[i] // n`` node ``src_flat[i] % n`` may route via
    ``dst[i]``; candidates arrive in any order, without duplicates, and
    every reachable node but the destination has at least one.  Rows
    come out by ``(length, node)``, candidates by ``(row, candidate)``
    — the order the tie-break positions are defined on.
    """
    rows, n = cls.shape
    reachable = cls != _UNREACHABLE
    counts = np.count_nonzero(reachable, axis=1)
    order_ptr = offsets(counts)
    reach = np.flatnonzero(reachable.reshape(-1))          # by (row, node)
    row = np.repeat(np.arange(rows, dtype=np.int64), counts)
    depth = int(lengths.max(initial=0)) + 2
    key = row * depth + lengths.reshape(-1)[reach]
    # stable, so ties keep node order; a narrow key gets the radix sort
    by_len = np.argsort(key.astype(np.min_scalar_type(rows * depth)), kind="stable")
    order_flat = reach[by_len]
    total = len(order_flat)
    row_of = np.full((rows, n), -1, dtype=np.int32)
    row_of.reshape(-1)[order_flat] = np.arange(total) - order_ptr[row]

    # level_starts of a row: how many of its nodes are closer than L,
    # for L up to one past its own longest route
    levels = lengths.max(axis=1, initial=0).astype(np.int64) + 2
    level_pool = np.searchsorted(
        key[by_len], segment_index(np.arange(rows, dtype=np.int64) * depth, levels)
    ) - np.repeat(order_ptr[:-1], levels)
    order_pool = (order_flat - row * n).astype(np.int32)
    del reach, row, key, by_len  # row-length scratch: peak RSS is an end-to-end metric

    # candidates: one value sort of (pooled row, candidate) packed in an int64
    pooled_row = np.empty(cls.size, dtype=np.int64)  # read at reachable nodes only
    pooled_row[order_flat] = np.arange(total)
    bits = max(int(n - 1).bit_length(), 1)
    packed = (pooled_row[src_flat] << bits) | dst
    del pooled_row, order_flat
    packed.sort()
    cands = (packed & ((1 << bits) - 1)).astype(np.int32)
    packed >>= bits
    cum = offsets(np.bincount(packed, minlength=total))
    indptr_ptr, indptr_pool, cand_ptr = _local_indptr(cum, order_ptr)

    get_registry().counter("routing.structure.chunks").inc()
    return StructurePools({
        "dest_ids": np.asarray(dests, dtype=np.int32),
        "cls": cls,
        "lengths": lengths,
        "row_of": row_of,
        "order_ptr": order_ptr,
        "order_pool": order_pool,
        "level_ptr": offsets(levels),
        "level_pool": level_pool.astype(np.int32),
        "indptr_ptr": indptr_ptr,
        "indptr_pool": indptr_pool,
        "cand_ptr": cand_ptr,
        "cands_pool": cands,
    })


def compute_dest_routings(cg: CompiledGraph, dests: Iterable[int]) -> Iterator[DestRouting]:
    """Yield the :class:`DestRouting` of every destination in ``dests``
    (dense indices, any order, repeats allowed): views of one
    :class:`StructurePools` per chunk, built as the iteration gets there.

    This is the state-independent builder for rankings with SecP last
    (``security_3rd``, the Appendix-A default); other rankings go
    through :meth:`repro.routing.policy.RoutingPolicy.build_many`.
    """
    for chunk in destination_chunks(cg, [int(d) for d in dests]):
        yield from assemble_pools(chunk, *_three_passes(cg, chunk)).views()


def compute_dest_routing(
    graph: ASGraph, dest: int, compiled: CompiledGraph | None = None
) -> DestRouting:
    """The :class:`DestRouting` for ``dest`` (dense index): the one-row
    chunk of :func:`compute_dest_routings`."""
    return next(compute_dest_routings(compiled or CompiledGraph.from_graph(graph), [dest]))
