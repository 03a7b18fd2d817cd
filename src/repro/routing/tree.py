"""Route classes, lengths and tiebreak sets, built a destination chunk at a time.

Observation C.1 of the paper: under the routing policies of Appendix A,
the *length* and *type* (customer / peer / provider) of every node's
selected route to a destination are independent of the deployment state
``S``.  Only the choice *within* the tiebreak set — the set of
equally-good next hops — depends on ``S`` (via the SecP step).

This module computes that state-independent structure once per
destination with the three-pass algorithm of [15] (customer-route BFS,
peer hop, provider relaxation by increasing length), a chunk of
destinations per kernel call (:func:`chunk_pools`, through the kernel
backends of :mod:`repro.routing.backends`).  Every chunk comes out as
:class:`StructurePools` — the pooled CSR form of the routing arena,
ordered by path length for the level-synchronous routing trees of
Appendix C.2.  The numpy tier's build, the
ground truth, lives here: the passes stacked across the chunk on flat
``row * n + node`` frontiers (:func:`_three_passes`) and one assembler
(:func:`assemble_pools`) that turns labels plus candidate edges into
pools.  Pools are what every stage passes on; a
:class:`DestRouting` is a zero-copy view of one slot, made when a
per-destination consumer asks for it.  The routing arena is a
:class:`PoolsAssembly` of a cache's chunks: arrays allocated once, at
their final size, that a compiled tier writes each chunk into and every
other builder's chunks are copied into.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.routing import backends as kernel_backends
from repro.routing.compiled import CompiledGraph, offsets, segment_index
from repro.routing.errors import RouteTooLongError
from repro.routing.policy import POSITION_BITS, RouteClass, tie_hash_array
from repro.telemetry.metrics import get_registry
from repro.topology.graph import ASGraph

_UNSET = -1

_SELF = int(RouteClass.SELF)
_CUSTOMER = int(RouteClass.CUSTOMER)
_PEER = int(RouteClass.PEER)
_PROVIDER = int(RouteClass.PROVIDER)
_UNREACHABLE = int(RouteClass.UNREACHABLE)

#: transient cells one chunk may span: rows x (nodes + directed edges).
#: Fewer rows pay a build's fixed cost (~350 numpy calls on numpy, two C
#: calls and the chunk's allocations compiled) more often, more fall out
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
    length (``order[0]`` is the destination); a row's candidates are in
    tie-break order (:func:`tie_order`), so TB picks the first and SecP
    the first secure one.  ``level_starts[L]`` delimits nodes of length
    ``L`` within ``order``.
    """

    dest: int
    cls: np.ndarray           # int8[n]
    lengths: np.ndarray       # int8[n], -1 where unreachable
    order: np.ndarray         # int32[num_reachable]
    row_of: np.ndarray        # int32[n], row in `order`, -1 if unreachable
    level_starts: np.ndarray  # int32[num_levels + 1]
    indptr: np.ndarray        # int32[num_reachable + 1]
    cands: np.ndarray         # int32[nnz], candidate next hops (node indices)
    _rev: tuple[np.ndarray, np.ndarray] | None = dataclasses.field(
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


def tie_order(
    ptr: np.ndarray, nbrs: np.ndarray, nodes: np.ndarray | None = None
) -> np.ndarray:
    """The permutation that puts each segment ``nbrs[ptr[s]:ptr[s + 1]]``
    of a CSR in tie-break order: ascending ``(tie_hash(u, v) & ~POS_MASK,
    v)`` for the segment's node ``u = nodes[s]`` (``s`` itself when
    ``nodes`` is None), the order TB prefers ``u``'s next hops in."""
    sizes = np.diff(ptr)
    seg = np.repeat(np.arange(len(sizes), dtype=np.uint64), sizes)
    owner = seg if nodes is None else np.repeat(nodes.astype(np.uint64), sizes)
    high = tie_hash_array(owner, nbrs) >> np.uint64(POSITION_BITS)
    # the segment above as many of the hash's high bits as fit: one value
    # sort, which is the order unless two of a segment's hashes agree in
    # those bits
    bits = max(int(len(sizes) - 1).bit_length(), 1)
    packed = seg << np.uint64(64 - bits)
    packed |= high >> np.uint64(max(bits - POSITION_BITS, 0))
    perm = np.argsort(packed)
    packed = packed[perm]
    if (packed[1:] == packed[:-1]).any():
        return np.lexsort((nbrs, high, seg))
    return perm


def tie_ordered(cg: CompiledGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``cg``'s customer, peer and provider ``*_idx`` arrays with every
    node's segment in tie-break order (:func:`tie_order`; the
    ``*_indptr`` tables stay ``cg``'s): a tiebreak set pulled from one of
    them in segment order is in the pools' order.  Built on first use
    and kept on ``cg``."""
    csr = cg.__dict__.get("_tie_ordered")
    if csr is None:
        # a frozen dataclass refuses setattr, not a write to its __dict__
        csr = cg.__dict__["_tie_ordered"] = tuple(
            idx[tie_order(ptr, idx)]
            for ptr, idx in (
                (cg.cust_indptr, cg.cust_idx), (cg.peer_indptr, cg.peer_idx),
                (cg.prov_indptr, cg.prov_idx),
            )
        )
    return csr


#: (field name, dtype) of every pooled array, in serialisation order.
#: ``*_ptr`` tables have length ``num_dests + 1``; matrices are
#: ``[num_dests, n]``; pools are flat.
ARENA_FIELDS: tuple[tuple[str, str], ...] = (
    ("dest_ids", "int32"),
    ("cls", "int8"),
    ("lengths", "int8"),
    ("row_of", "int32"),
    ("order_ptr", "int64"),
    ("order_pool", "int32"),
    ("level_ptr", "int64"),
    ("level_pool", "int32"),
    ("indptr_ptr", "int64"),
    ("indptr_pool", "int32"),
    ("cand_ptr", "int64"),
    ("cands_pool", "int32"),
)

#: each ``*_ptr`` table with the flat pool it indexes
_POOLS = (
    ("order_ptr", "order_pool"),
    ("level_ptr", "level_pool"),
    ("indptr_ptr", "indptr_pool"),
    ("cand_ptr", "cands_pool"),
)


class StructurePools:
    """The structures of a run of destinations ("slots"), pooled.

    One array per :data:`ARENA_FIELDS` entry: a slot's ``order`` /
    ``level_starts`` / ``indptr`` / ``cands`` are the ``*_ptr[k]:*_ptr[k
    + 1]`` slice of the matching pool, its ``cls`` / ``lengths`` /
    ``row_of`` row ``k`` of the dense matrices.  Each row's candidates
    are in tie-break order (:func:`tie_order`): TB's pick is a row's
    first candidate and SecP's its first secure one, so no field holds
    tie-break keys and no kernel hashes.
    Nothing writes the fields after construction: views are handed
    out, and the routing arena is a
    :class:`PoolsAssembly` of a cache's chunks, each written straight
    into the arena's arrays or copied there from pools like these.
    """

    def __init__(self, arrays: dict[str, np.ndarray], policy: str = "security_3rd"):
        #: registry name of the routing policy the structures were built
        #: under (stamped on every view)
        self.policy = policy
        for name, dtype in ARENA_FIELDS:
            arr = arrays[name]
            if arr.dtype != dtype:
                raise ValueError(f"arena field {name}: expected {dtype}, got {arr.dtype}")
            setattr(self, name, arr)
        self._views: dict[int, DestRouting] = {}

    @property
    def num_dests(self) -> int:
        return len(self.dest_ids)

    def arrays(self) -> dict[str, np.ndarray]:
        """The 12 fields by name: the arrays themselves, not copies."""
        return {name: getattr(self, name) for name, _ in ARENA_FIELDS}

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
        return np.subtract(self.indptr_pool[at + 1], self.indptr_pool[at], dtype=np.int64)

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
                policy=self.policy,
            )
        return view

    def views(self) -> list[DestRouting]:
        """The view of every destination slot, in slot order."""
        return [self.view(k) for k in range(self.num_dests)]

    def restrict_to_primary(self, sticky: np.ndarray) -> "StructurePools":
        """New pools in which every ``sticky`` (bool[n]) node with
        several candidates keeps only its primary: the row's first
        candidate, what TB picks in a security-free world (§8.3), so
        the restriction never changes insecure routing — it only
        removes the competition SecP could have exploited.
        ``self`` is left as it was; untouched arrays are shared."""
        sizes = self.row_sizes(0, self.num_dests)
        starts = offsets(sizes)
        rows = np.flatnonzero(sticky[self.order_pool] & (sizes > 1))
        keep = np.ones(len(self.cands_pool), dtype=bool)
        keep[segment_index(starts[rows] + 1, sizes[rows] - 1)] = False
        sizes[rows] = 1
        indptr_ptr, indptr_pool, cand_ptr = _local_indptr(offsets(sizes), self.order_ptr)
        arrays = self.arrays()
        arrays.update(
            indptr_ptr=indptr_ptr, indptr_pool=indptr_pool, cand_ptr=cand_ptr,
            cands_pool=self.cands_pool[keep],
        )
        return StructurePools(arrays, self.policy)


_DENSE = ("cls", "lengths", "row_of")
_DTYPES = dict(ARENA_FIELDS)

#: the longest route, in hops, the arena's ``lengths`` hold
MAX_ROUTE_LENGTH = int(np.iinfo(_DTYPES["lengths"]).max)


def route_too_long(dest: int) -> RouteTooLongError:
    """The error for a route toward ``dest`` (a dense index) longer
    than :data:`MAX_ROUTE_LENGTH`."""
    return RouteTooLongError(
        f"a route toward destination {dest} takes more than {MAX_ROUTE_LENGTH} "
        f"hops, the most the routing arena's int8 path lengths hold"
    )


def _ptr_tables(sizes: np.ndarray) -> dict[str, np.ndarray]:
    """Every ``*_ptr`` table from ``sizes[slot] = (reachable nodes,
    level_starts entries, candidates)``."""
    order_ptr = offsets(sizes[:, 0])
    return {
        "order_ptr": order_ptr,
        "level_ptr": offsets(sizes[:, 1]),
        # a slot's indptr run closes with one extra entry
        "indptr_ptr": order_ptr + np.arange(len(sizes) + 1),
        "cand_ptr": offsets(sizes[:, 2]),
    }


def _pool(arrays: dict[str, np.ndarray], ptr: str, pool: str) -> np.ndarray:
    """``pool`` allocated at the size its ``ptr`` table closes at."""
    return np.empty(arrays[ptr][-1], dtype=_DTYPES[pool])


def _slots_of(arrays: dict[str, np.ndarray], lo: int, hi: int) -> dict[str, np.ndarray]:
    """Slots ``lo:hi`` of ``arrays`` as a chunk's own fields: the dense
    rows and the pool slices are views, the ``*_ptr`` tables rebased to
    start at 0 (what a chunk's pools pass fills, wherever it lives)."""
    out = {name: arrays[name][lo:hi] for name in ("dest_ids", *_DENSE)}
    for ptr, pool in _POOLS:
        table = arrays[ptr][lo:hi + 1]
        out[ptr] = table - table[0]
        out[pool] = arrays[pool][table[0]:table[-1]]
    return out


class PoolsAssembly:
    """The fields of a run of destinations ("slots"), each allocated
    once at its final size and filled a destination chunk at a time.

    A chunk comes in one of two ways.  A tier that can size a chunk's
    pools before it fills them (cext: the
    ``structure_labels`` / ``structure_pools`` kernels) writes the
    chunk's labels straight into its rows of the dense ``[D, n]``
    fields and records its sizes (:meth:`label`); its pools pass waits
    for :meth:`finish`, which allocates the pools once every size is
    known and fills each chunk's slices.  Every other builder — numpy's
    passes, the fixpoint (every ranking but Appendix A's, SP-first
    included), the sticky restriction — cannot size a chunk without
    building it, so it hands over the chunk it built (:meth:`take`): its
    dense rows are copied in at once, its pools kept until
    :meth:`finish` copies them in a field at a time, releasing each
    chunk's copy of a field as soon as it is in.
    A built chunk that covers every slot is adopted, not copied.
    """

    def __init__(self, n: int, dests: Sequence[int]):
        self.n = n
        self.dest_ids = np.asarray(dests, dtype=np.int32)
        #: per slot: (reachable nodes, level_starts entries, candidates)
        self.sizes = np.zeros((len(self.dest_ids), 3), dtype=np.int64)
        self._dense: dict[str, np.ndarray] | None = None
        #: chunk start -> (its stop, what fills its pools: the kernels
        #: and graph of its pools pass, its built pools by name, or the
        #: whole built chunk when it covers every slot)
        self._chunks: dict[int, tuple[int, object]] = {}

    @classmethod
    def labelled(cls, cg: CompiledGraph, dests: np.ndarray, kernels) -> dict[str, np.ndarray]:
        """The 12 fields of the one chunk ``dests`` (int64), labelled
        and pooled by ``kernels``: a compiled tier's chunk build."""
        assembly = cls(cg.n, dests)
        assembly.label(0, dests, cg, kernels)
        return assembly.finish()

    def has(self, lo: int) -> bool:
        """Whether the chunk that starts at slot ``lo`` is in."""
        return lo in self._chunks

    def _dense_fields(self) -> dict[str, np.ndarray]:
        if self._dense is None:
            shape = (len(self.dest_ids), self.n)
            self._dense = {"dest_ids": self.dest_ids} | {
                name: np.empty(shape, dtype=_DTYPES[name]) for name in _DENSE
            }
        return self._dense

    def label(self, lo: int, dests: np.ndarray, cg: CompiledGraph, kernels) -> None:
        """Label the chunk ``dests`` (int64) into slots ``lo:`` with
        ``kernels.structure_labels``; ``kernels.structure_pools`` fills
        its pools in :meth:`finish`."""
        hi = lo + len(dests)
        dense = self._dense_fields()
        kernels.structure_labels(
            cg, dests, dense["cls"][lo:hi], dense["lengths"][lo:hi], self.sizes[lo:hi]
        )
        tie_ordered(cg)   # what the pools pass reads: derived before any pool
        self._chunks[lo] = (hi, (kernels, cg))

    def take(self, lo: int, pools: StructurePools) -> None:
        """Hand over ``pools``, built for slots ``lo:``."""
        hi = lo + pools.num_dests
        if pools.cls.shape[1] != self.n:
            raise ValueError(f"pools were built for another graph than one of {self.n} nodes")
        if pools.dest_ids.tobytes() != self.dest_ids[lo:hi].tobytes():
            raise ValueError(f"pools for slots {lo}:{hi} were built for other destinations")
        for k, ptr in enumerate(("order_ptr", "level_ptr", "cand_ptr")):
            self.sizes[lo:hi, k] = np.diff(getattr(pools, ptr))
        if hi - lo == len(self.dest_ids):
            self._chunks[lo] = (hi, pools)
            return
        dense = self._dense_fields()
        for name in _DENSE:
            dense[name][lo:hi] = getattr(pools, name)
        self._chunks[lo] = (hi, {pool: getattr(pools, pool) for _, pool in _POOLS})

    def finish(self) -> dict[str, np.ndarray]:
        """Every field of every slot.  The pools are allocated from the
        sizes a field at a time, each built chunk's share copied in and
        released before the next field; then each labelled chunk's pools
        pass fills its slices."""
        covered = sum(hi - lo for lo, (hi, _) in self._chunks.items())
        if covered != len(self.dest_ids):
            raise ValueError(f"{covered} of {len(self.dest_ids)} slots were built")
        chunks, self._chunks = self._chunks, {}
        _, whole = chunks.get(0, (0, None))
        if isinstance(whole, StructurePools):  # built for every slot
            return whole.arrays()
        arrays = self._dense_fields() | _ptr_tables(self.sizes)
        self._dense = None
        for ptr, pool in _POOLS:
            arrays[pool] = _pool(arrays, ptr, pool)
            for lo, (hi, source) in chunks.items():
                if isinstance(source, dict):
                    at = arrays[ptr][lo:hi + 1]
                    arrays[pool][at[0]:at[-1]] = source.pop(pool)
        for lo, (hi, source) in chunks.items():
            if isinstance(source, tuple):
                kernels, cg = source
                kernels.structure_pools(cg, _slots_of(arrays, lo, hi))
        return arrays


def _local_indptr(
    cum: np.ndarray, order_ptr: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut one CSR index over all pooled rows (``cum``) into per-slot
    ``indptr`` runs, each from 0 to its own closing entry: returns
    ``(indptr_ptr, indptr_pool, cand_ptr)``.  A run counts one slot's
    candidates, at most one per directed edge, so it fits int32."""
    spans = np.diff(order_ptr) + 1
    cand_ptr = cum[order_ptr]
    indptr_pool = cum[segment_index(order_ptr[:-1], spans)]
    indptr_pool -= np.repeat(cand_ptr[:-1], spans)
    return order_ptr + np.arange(len(order_ptr)), indptr_pool.astype(np.int32), cand_ptr


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
    come out by ``(length, node)``, candidates by row, each row's in
    tie-break order (:func:`tie_order`).  ``lengths``
    may come in any integer dtype and goes out int8; a length above
    :data:`MAX_ROUTE_LENGTH` raises :class:`RouteTooLongError`.
    """
    rows, n = cls.shape
    longest = lengths.max(axis=1, initial=0).astype(np.int64)
    if rows and longest.max() > MAX_ROUTE_LENGTH:
        raise route_too_long(int(dests[int(longest.argmax())]))
    reachable = cls != _UNREACHABLE
    counts = np.count_nonzero(reachable, axis=1)
    order_ptr = offsets(counts)
    reach = np.flatnonzero(reachable.reshape(-1))          # by (row, node)
    row = np.repeat(np.arange(rows, dtype=np.int64), counts)
    depth = int(longest.max(initial=0)) + 2
    key = row * depth + lengths.reshape(-1)[reach]
    # stable, so ties keep node order; a narrow key gets the radix sort
    by_len = np.argsort(key.astype(np.min_scalar_type(rows * depth)), kind="stable")
    order_flat = reach[by_len]
    total = len(order_flat)
    row_of = np.full((rows, n), -1, dtype=np.int32)
    row_of.reshape(-1)[order_flat] = np.arange(total) - order_ptr[row]

    # level_starts of a row: how many of its nodes are closer than L,
    # for L up to one past its own longest route
    levels = longest + 2
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
    sizes = np.bincount(packed, minlength=total)
    del packed
    cum = offsets(sizes)
    # then the rows with several into tie-break order
    multi = np.flatnonzero(sizes > 1)
    edges = segment_index(cum[multi], sizes[multi])
    cands[edges] = cands[edges[tie_order(offsets(sizes[multi]), cands[edges], order_pool[multi])]]
    del multi, edges
    indptr_ptr, indptr_pool, cand_ptr = _local_indptr(cum, order_ptr)

    return StructurePools({
        "dest_ids": np.asarray(dests, dtype=np.int32),
        "cls": cls,
        "lengths": lengths.astype(_DTYPES["lengths"], copy=False),
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


def chunk_pools(
    cg: CompiledGraph, dests: Iterable[int], backend: str | None = None
) -> Iterator[StructurePools]:
    """The structures of ``dests`` (dense indices, any order, repeats
    allowed), one :class:`StructurePools` per chunk, built as the
    iteration gets there: one ``build_structures`` call of the kernel
    backend ``backend`` names per chunk (:mod:`repro.routing.backends`;
    ``None`` = env var, then ``auto``), every tier's pools byte-equal
    to numpy's.  Counter ``routing.structure.chunks`` counts the calls.

    This is the state-independent builder for rankings with SecP last
    (``security_3rd``, the Appendix-A default); other rankings go
    through :meth:`repro.routing.policy.RoutingPolicy.build_pools`.
    """
    _, kernels = kernel_backends.kernels_for(kernel_backends.resolve_backend(backend))
    for chunk in destination_chunks(cg, np.asarray([int(d) for d in dests], dtype=np.int64)):
        pools = StructurePools(kernels.build_structures(cg, chunk))
        get_registry().counter("routing.structure.chunks").inc()
        yield pools


def compute_dest_routing(
    graph: ASGraph, dest: int, compiled: CompiledGraph | None = None
) -> DestRouting:
    """The :class:`DestRouting` for ``dest`` (dense index): the view of
    a one-row chunk."""
    return next(chunk_pools(compiled or CompiledGraph.from_graph(graph), [dest])).view(0)
