"""Compiled (CSR) form of the AS graph for vectorised routing.

:class:`CompiledGraph` freezes an :class:`~repro.topology.graph.ASGraph`
into flat numpy arrays so that the per-destination route computation
(three passes + tiebreak-set construction) runs as a handful of numpy
operations over edge arrays instead of Python loops.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from repro.topology.graph import ASGraph


def _csr(adjacency: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    counts = np.fromiter(map(len, adjacency), dtype=np.int64, count=len(adjacency))
    indptr = np.zeros(len(adjacency) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    idx = np.fromiter(
        itertools.chain.from_iterable(adjacency), dtype=np.int32, count=total
    )
    return indptr, idx


def _flat_src(indptr: np.ndarray) -> np.ndarray:
    """Source node per CSR entry (np.repeat over row sizes)."""
    return np.repeat(
        np.arange(len(indptr) - 1, dtype=np.int32), np.diff(indptr)
    )


@dataclasses.dataclass(frozen=True)
class CompiledGraph:
    """Immutable CSR view of an AS graph (see module docstring)."""

    n: int
    cust_indptr: np.ndarray
    cust_idx: np.ndarray
    prov_indptr: np.ndarray
    prov_idx: np.ndarray
    peer_indptr: np.ndarray
    peer_idx: np.ndarray
    cust_src: np.ndarray  # owner per customer-CSR entry
    prov_src: np.ndarray
    peer_src: np.ndarray

    @classmethod
    def from_graph(cls, graph: ASGraph) -> "CompiledGraph":
        cust_indptr, cust_idx = _csr(graph.customers)
        prov_indptr, prov_idx = _csr(graph.providers)
        peer_indptr, peer_idx = _csr(graph.peers)
        return cls(
            n=graph.n,
            cust_indptr=cust_indptr,
            cust_idx=cust_idx,
            prov_indptr=prov_indptr,
            prov_idx=prov_idx,
            peer_indptr=peer_indptr,
            peer_idx=peer_idx,
            cust_src=_flat_src(cust_indptr),
            prov_src=_flat_src(prov_indptr),
            peer_src=_flat_src(peer_indptr),
        )


def offsets(counts) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]``: the CSR index of runs of ``counts``."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def segment_index(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i] + counts[i])`` over ``i``."""
    ends = np.cumsum(counts)
    index = np.repeat(starts - (ends - counts), counts)
    index += np.arange(len(index), dtype=np.int64)
    return index
