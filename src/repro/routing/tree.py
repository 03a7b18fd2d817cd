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
Appendix C.2.  Pools are what every stage stores and passes on; a
:class:`DestRouting` is a zero-copy view of one slot, made when a
per-destination consumer asks for it.
"""

from __future__ import annotations

import dataclasses
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


def chunk_rows(cg: CompiledGraph) -> int:
    """Destinations per chunk on this graph: ``_CHUNK_CELLS`` over nodes
    plus directed edges, so the transient working set of a build is
    bounded whatever the graph and nobody has to tune it."""
    edges = len(cg.cust_idx) + len(cg.peer_idx) + len(cg.prov_idx)
    return max(1, _CHUNK_CELLS // (cg.n + edges))


def destination_chunks(cg: CompiledGraph, dests: Sequence[int]) -> Iterator[Sequence[int]]:
    """Cut ``dests`` into the chunks structures are built in."""
    rows = chunk_rows(cg)
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
    #: once (lazily here; an arena view carries its slice).
    _tie_keys: np.ndarray | None = dataclasses.field(
        default=None, repr=False, compare=False
    )
    #: registry name of the :class:`~repro.routing.policy.RoutingPolicy`
    #: this structure was built under.  Metadata only (the arrays fully
    #: describe routing), so it never participates in equality.
    policy: str = dataclasses.field(default="security_3rd", compare=False)

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
    the concatenation of those.  Only the arena pools its tie-break keys
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
        self._views: dict[int, DestRouting] = {}

    @property
    def num_dests(self) -> int:
        return len(self.dest_ids)

    def row_sizes(self, lo: int, hi: int) -> np.ndarray:
        """Tiebreak-set size of every pooled row of slots ``lo:hi`` (a
        slot's ``indptr`` run closes with one extra entry: those go)."""
        ptr = self.indptr_ptr[lo:hi + 1]
        return np.delete(np.diff(self.indptr_pool[ptr[0]:ptr[-1]]), ptr[1:-1] - ptr[0] - 1)

    def tiebreak_sizes_of(self, node: int, slots: np.ndarray) -> np.ndarray:
        """Size of ``node``'s tiebreak set toward each destination of
        ``slots`` it has a row for (0 toward itself; an unreachable
        destination has no entry)."""
        row = self.row_of[slots, node]
        at = (self.indptr_ptr[slots] + row)[row >= 0]
        return self.indptr_pool[at + 1] - self.indptr_pool[at]

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
        """Zero-copy :class:`DestRouting` of destination slot ``slot``:
        made on first request and kept, so what a per-destination
        consumer caches on it (the reverse tiebreak CSR) stays."""
        view = self._views.get(slot)
        if view is None:
            o_lo, o_hi = self.order_ptr[slot:slot + 2].tolist()
            l_lo, l_hi = self.level_ptr[slot:slot + 2].tolist()
            i_lo, i_hi = self.indptr_ptr[slot:slot + 2].tolist()
            c_lo, c_hi = self.cand_ptr[slot:slot + 2].tolist()
            view = self._views[slot] = DestRouting(
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
            )
        return view

    def views(self) -> list[DestRouting]:
        """The view of every destination slot, in slot order."""
        return [self.view(k) for k in range(self.num_dests)]

    def restrict_to_primary(self, sticky: np.ndarray) -> "StructurePools":
        """New pools in which every ``sticky`` (bool[n]) node with
        several candidates keeps only its primary: the minimum of the
        row's tie keys, what TB picks in a security-free world (§8.3),
        so the restriction never changes insecure routing — it only
        removes the competition SecP could have exploited.
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
    def concat(n: int, parts: "Sequence[StructurePools]", keys: bool = False) -> dict:
        """One array per field over the slots of ``parts``, in order
        (every part built on an ``n``-node graph).  With ``keys`` the
        tie-break keys are pooled too, derived a part at a time.  A lone
        part's arrays are shared, not copied."""
        if any(p.cls.shape[1] != n for p in parts):
            raise ValueError(f"pools were built for another graph than one of {n} nodes")
        arrays: dict[str, np.ndarray] = {}
        if keys:
            # first, while the rest is not there yet: deriving the keys
            # is what takes scratch memory
            ends = np.cumsum([0] + [len(p.cands_pool) for p in parts])
            arrays["keys_pool"] = np.empty(ends[-1], dtype=np.uint64)
            for p, at, end in zip(parts, ends, ends[1:]):
                arrays["keys_pool"][at:end] = p.tie_keys(0, p.num_dests)
        if len(parts) == 1:
            return {name: getattr(parts[0], name) for name, _ in ARENA_FIELDS[:-1]} | arrays
        dtypes = dict(ARENA_FIELDS)

        def cat(name, pieces, shape=(0,)):
            # the empty head fixes dtype and shape when there is no part
            return np.concatenate([np.empty(shape, dtype=dtypes[name]), *pieces])

        arrays["dest_ids"] = cat("dest_ids", [p.dest_ids for p in parts])
        for name in ("cls", "lengths", "row_of"):
            arrays[name] = cat(name, [getattr(p, name) for p in parts], (0, n))
        for ptr, pool in _POOL_OF_PTR:
            arrays[ptr] = offsets(cat(ptr, [np.diff(getattr(p, ptr)) for p in parts]))
            arrays[pool] = cat(pool, [getattr(p, pool) for p in parts])
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


def chunk_pools(cg: CompiledGraph, dests: Iterable[int]) -> Iterator[StructurePools]:
    """The structures of ``dests`` (dense indices, any order, repeats
    allowed), one :class:`StructurePools` per chunk, built as the
    iteration gets there.

    This is the state-independent builder for rankings with SecP last
    (``security_3rd``, the Appendix-A default); other rankings go
    through :meth:`repro.routing.policy.RoutingPolicy.build_pools`.
    """
    for chunk in destination_chunks(cg, [int(d) for d in dests]):
        yield assemble_pools(chunk, *_three_passes(cg, chunk))


def compute_dest_routing(
    graph: ASGraph, dest: int, compiled: CompiledGraph | None = None
) -> DestRouting:
    """The :class:`DestRouting` for ``dest`` (dense index): the view of
    a one-row chunk."""
    return next(chunk_pools(compiled or CompiledGraph.from_graph(graph), [dest])).view(0)
