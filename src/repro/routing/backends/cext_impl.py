"""C-extension backend: the loop bodies as one translation unit.

A line-for-line transliteration of
:mod:`repro.routing.backends._loops`, compiled at first use with the
system C compiler (``cc``/``gcc`` — no build-time Python dependency)
and bound through ``ctypes``.  The shared object is cached under
``~/.cache/sbgp-kernels`` (override with ``SBGP_KERNEL_CACHE``) keyed
by a digest of the source, so a process pays the compile exactly once
per source revision and workers share the artifact.

Import errors — no compiler, compile failure, dlopen failure — raise
:class:`~repro.routing.backends.BackendUnavailable`; the registry turns
that into a counted ``compiled_to_numpy`` degradation, never a crash.

Why ctypes and not a real extension module: the kernels take flat typed
buffers and return at most a status code, so the FFI surface is three
pointer-and-stride signatures — not worth a build system.  The
Python-side wrappers enforce dtype, contiguity and lengths *loudly* (a
silent mismatch would corrupt memory), which the parity suite
exercises.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.routing.backends import BackendUnavailable, find_compiler
from repro.routing.policy import POSITION_BITS, RouteClass
from repro.runtime.atomic import atomic_write_text

if (
    int(RouteClass.SELF),
    int(RouteClass.CUSTOMER),
    int(RouteClass.UNREACHABLE),
    POSITION_BITS,
) != (3, 2, -1, 16):  # pragma: no cover
    raise AssertionError(
        "the C kernels hardcode RouteClass/POSITION_BITS values that "
        "drifted; update _C_SOURCE together with repro.routing.policy"
    )

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

/* Constants mirrored from repro.routing: POSITION_BITS=16 (tie-key low
 * bits hold the candidate's position in its row), RouteClass
 * CUSTOMER=2 / SELF=3 / UNREACHABLE=-1. */
#define POS_MASK 0xFFFFu
#define INVALID_KEY 0xFFFFFFFFu

/* The tree kernels read the arena's pools in place.  Slot k's rows are
 * order_pool[order_ptr[k]..order_ptr[k+1]), reachable nodes sorted by
 * (path length, node), row 0 its destination; level_pool[level_ptr[k]..
 * level_ptr[k+1]) are its level_starts, where each path length starts
 * among those rows (the last entry closes them); indptr_pool from
 * indptr_ptr[k] is its tiebreak CSR, one entry per row plus a closing
 * one, relative to cand_ptr[k] in cands_pool / keys_pool.  Batch row b
 * resolves slot slots[b] (any order, repeats allowed) into row b of the
 * C-contiguous [batch, n] outputs choice / secure / any_secure / w;
 * secure_rows / secp_rows are node_secure and node_secure & breaks_ties
 * per batch row, laid out the same way. */
int sbgp_trees_stacked(
    int64_t batch, int64_t n, const int64_t *slots,
    const int64_t *order_ptr, const int32_t *order_pool,
    const int64_t *level_ptr, const int32_t *level_pool,
    const int64_t *indptr_ptr, const int64_t *indptr_pool,
    const int64_t *cand_ptr, const int32_t *cands_pool,
    const uint64_t *keys_pool,
    const uint8_t *secure_rows, const uint8_t *secp_rows,
    int32_t *choice, uint8_t *secure, uint8_t *any_secure)
{
    /* scratch: a level's multi-candidate rows, as many as the batch's
     * longest slot has rows */
    int64_t most = 1;
    for (int64_t b = 0; b < batch; b++) {
        const int64_t rows = order_ptr[slots[b] + 1] - order_ptr[slots[b]];
        if (rows > most)
            most = rows;
    }
    int32_t *multi = malloc((size_t)most * sizeof(int32_t));
    if (!multi)
        return -1;
    for (int64_t b = 0; b < batch; b++) {
        const int64_t k = slots[b];
        const int32_t *order = order_pool + order_ptr[k];
        const int32_t *starts = level_pool + level_ptr[k];
        const int64_t last = level_ptr[k + 1] - level_ptr[k] - 1;
        const int64_t *indptr = indptr_pool + indptr_ptr[k];
        const int32_t *cands = cands_pool + cand_ptr[k];
        const uint64_t *keys = keys_pool + cand_ptr[k];
        const uint8_t *sec_in = secure_rows + b * n;
        const uint8_t *secp_in = secp_rows + b * n;
        int32_t *restrict ch = choice + b * n;
        uint8_t *restrict sec = secure + b * n;
        uint8_t *restrict any = any_secure + b * n;
        /* Rows run by path length and every candidate is one level
         * shorter than its row, so a slot resolves level by level in pool
         * order, each candidate's sec[] written before it is read.  In a
         * level, every row first takes its first candidate and the rows
         * with several are listed, without a branch on the count (which
         * about a fifth of rows take: Fig 10); those are then settled,
         * before the next level reads them.  A row's end is the next
         * row's start: read once, carried over. */
        int64_t s = indptr[starts[1]];
        for (int64_t level = 1; level < last; level++) {
            const int64_t hi = starts[level + 1];
            int64_t m = 0;
            for (int64_t r = starts[level]; r < hi; r++) {
                const int64_t end = indptr[r + 1];
                if (end == s)
                    continue;  /* the builders never leave a row without one */
                const int32_t u = order[r];
                const int32_t c = cands[s];
                ch[u] = c;
                any[u] = sec[c];
                sec[u] = (uint8_t)(sec_in[u] && sec[c]);
                multi[m] = (int32_t)r;
                m += end - s > 1;
                s = end;
            }
            for (int64_t i = 0; i < m; i++) {
                const int64_t r = multi[i];
                const int64_t lo = indptr[r], end = indptr[r + 1];
                const int32_t u = order[r];
                uint64_t min_all = UINT64_MAX, min_sec = UINT64_MAX;
                int any_sec = 0;
                for (int64_t e = lo; e < end; e++) {
                    const uint64_t key = keys[e];
                    if (key < min_all)
                        min_all = key;
                    if (sec[cands[e]]) {
                        any_sec = 1;
                        if (key < min_sec)
                            min_sec = key;
                    }
                }
                const uint64_t key = (secp_in[u] && any_sec) ? min_sec : min_all;
                const int32_t c = cands[lo + (int64_t)(key & POS_MASK)];
                ch[u] = c;
                any[u] = (uint8_t)any_sec;
                sec[u] = (uint8_t)(sec_in[u] && sec[c]);
            }
        }
    }
    free(multi);
    return 0;
}

void sbgp_weights_stacked(
    int64_t batch, int64_t n, const int64_t *slots,
    const int64_t *order_ptr, const int32_t *order_pool,
    const int64_t *level_ptr, const int32_t *level_pool,
    const int32_t *choice, const double *node_weights, double *w)
{
    for (int64_t b = 0; b < batch; b++) {
        const int64_t k = slots[b];
        const int32_t *order = order_pool + order_ptr[k];
        const int32_t *starts = level_pool + level_ptr[k];
        const int32_t *ch = choice + b * n;
        double *restrict wb = w + b * n;
        /* Levels deepest first, a level's rows in pool order.  Parents
         * sit one level up, so wb[p] is only *written* here and only
         * *read* when its own level runs; with 0.0 + x == x exactly,
         * child-by-child accumulation in this order matches numpy's
         * np.add.at over the mirror's stack order bit for bit. */
        for (int64_t level = level_ptr[k + 1] - level_ptr[k] - 2; level >= 1; level--) {
            const int64_t hi = starts[level + 1];
            for (int64_t r = starts[level]; r < hi; r++) {
                const int32_t u = order[r];
                const int32_t p = ch[u];
                if (p >= 0)
                    wb[p] += wb[u] + node_weights[u];
            }
        }
    }
}

/* Bits of edge_flags for an edge u <- v (set by fixpoint.JacobiDriver). */
#define EDGE_APPLIES 1u     /* u applies SecP */
#define EDGE_NONPROVIDER 2u /* v is not u's provider: GR2 restricts */
#define EDGE_GULLIBLE 4u    /* provider edge of a stub that believes the attacker */
#define EDGE_DROPS 8u       /* u rejects routes it cannot validate */

static inline uint32_t sbgp_offer_key(
    int64_t e, int64_t att_row, int leak,
    const int32_t *v, const uint32_t *lp_field, const uint8_t *edge_flags,
    const int64_t *rank_codes, const uint32_t *rank_widths,
    const int8_t *cls_r, const int32_t *len_r, const uint8_t *sec_r,
    const uint8_t *att_r)
{
    int32_t vv = v[e];
    uint32_t flags = edge_flags[e];
    int8_t cv = cls_r[vv];
    if (cv == -1)
        return INVALID_KEY;
    /* GR2: only customer routes (2) / the origin itself (3) are
     * exported across peerings and up to providers -- with the leak
     * escape hatch: the attacker exports its selected route to every
     * neighbor.  att_row == -1 (no adversary) equals no node id. */
    if ((flags & EDGE_NONPROVIDER) &&
        !(cv == 2 || cv == 3 || (leak && vv == att_row)))
        return INVALID_KEY;
    /* end-state filtering: validators reject what cannot be validated
     * (genuine security only -- gullible belief fails ROV). */
    if ((flags & EDGE_DROPS) && !sec_r[vv])
        return INVALID_KEY;
    int32_t lv = len_r[vv];
    if (lv < 0)
        lv = 0;
    uint32_t sp = (uint32_t)(lv + 1);
    int seen = sec_r[vv] ||
        ((flags & EDGE_GULLIBLE) && vv == att_row && att_r[vv]);
    uint32_t secp = ((flags & EDGE_APPLIES) && seen) ? 0u : 1u;
    uint32_t key = 0;
    for (int i = 0; i < 3; i++) {
        uint32_t field = rank_codes[i] == 0
            ? lp_field[e]
            : (rank_codes[i] == 1 ? sp : secp);
        key = (key << rank_widths[i]) | field;
    }
    return key;
}

/* Every node takes the offer with the least selection word
 * rank_key << 32 | tie_rank; rank_edge[lo + r] is the edge of segment
 * lo.. that holds tie rank r.  tied may be NULL: only structure
 * building asks for the tie mask, the one thing that needs the keys
 * twice. */
void sbgp_jacobi_sweep(
    int64_t chunk, int64_t n, int64_t num_edges, int64_t num_segs,
    const int32_t *v, const int8_t *route_cls,
    const int64_t *seg_starts, const int64_t *seg_sizes,
    const int32_t *seg_u, const uint32_t *tie_rank,
    const int64_t *rank_edge, const uint32_t *lp_field,
    const uint8_t *edge_flags,
    const int64_t *rank_codes, const uint32_t *rank_widths,
    const int64_t *attacker, int64_t leak,
    const int8_t *cls, const int32_t *length, const uint8_t *sec,
    const uint8_t *att, const uint8_t *node_secure,
    int8_t *new_cls, int32_t *new_len, uint8_t *new_sec, uint8_t *new_att,
    uint8_t *tied)
{
    for (int64_t row = 0; row < chunk; row++) {
        const int8_t *cls_r = cls + row * n;
        const int32_t *len_r = length + row * n;
        const uint8_t *sec_r = sec + row * n;
        const uint8_t *att_r = att + row * n;
        uint8_t *tied_r = tied ? tied + row * num_edges : 0;
        int64_t att_row = attacker[row];
        for (int64_t s = 0; s < num_segs; s++) {
            int64_t lo = seg_starts[s];
            int64_t m = seg_sizes[s];
            int64_t uu = seg_u[s];
            uint64_t best = UINT64_MAX;
            for (int64_t e = lo; e < lo + m; e++) {
                uint32_t k = sbgp_offer_key(
                    e, att_row, (int)leak, v, lp_field, edge_flags,
                    rank_codes, rank_widths, cls_r, len_r, sec_r, att_r);
                if (k != INVALID_KEY) {
                    uint64_t word = ((uint64_t)k << 32) | tie_rank[e];
                    if (word < best)
                        best = word;
                }
            }
            if (tied_r) {
                for (int64_t e = lo; e < lo + m; e++) {
                    uint32_t k = sbgp_offer_key(
                        e, att_row, (int)leak, v, lp_field, edge_flags,
                        rank_codes, rank_widths, cls_r, len_r, sec_r, att_r);
                    tied_r[e] = (uint8_t)(
                        k != INVALID_KEY && (uint64_t)k == best >> 32);
                }
            }
            if (best == UINT64_MAX) {
                new_cls[row * n + uu] = -1;
                new_len[row * n + uu] = -1;
                new_sec[row * n + uu] = 0;
                new_att[row * n + uu] = 0;
                continue;
            }
            int64_t eidx = rank_edge[lo + (int64_t)(best & 0xFFFFFFFFu)];
            int32_t vv = v[eidx];
            int seen = sec_r[vv] ||
                ((edge_flags[eidx] & EDGE_GULLIBLE) && vv == att_row &&
                 att_r[vv]);
            new_cls[row * n + uu] = route_cls[eidx];
            new_len[row * n + uu] = len_r[vv] + 1;
            new_sec[row * n + uu] = (uint8_t)(node_secure[uu] && seen);
            new_att[row * n + uu] = att_r[vv];
        }
    }
}
"""


def _cache_dir() -> Path:
    override = os.environ.get("SBGP_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "sbgp-kernels"


def _build_shared_object() -> Path:
    """Compile (or reuse) the kernels; returns the cached ``.so`` path."""
    digest = hashlib.blake2b(_C_SOURCE.encode(), digest_size=12).hexdigest()
    cache_dir = _cache_dir()
    so_path = cache_dir / f"sbgp_kernels_{digest}.so"
    if so_path.exists():
        return so_path
    cc = find_compiler()
    if cc is None:
        raise BackendUnavailable("no C compiler (cc/gcc/clang) on PATH")
    cache_dir.mkdir(parents=True, exist_ok=True)
    # Build in a scratch dir *inside* the cache dir so the final rename
    # stays on one filesystem (atomic; concurrent builders race benignly
    # to an identical artifact).
    with tempfile.TemporaryDirectory(dir=cache_dir) as scratch:
        src = Path(scratch) / "sbgp_kernels.c"
        atomic_write_text(src, _C_SOURCE)
        out = Path(scratch) / "sbgp_kernels.so"
        cmd = [cc, "-O3", "-shared", "-fPIC", "-std=c99",
               "-o", str(out), str(src)]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=300, check=False
        )
        if proc.returncode != 0:
            raise BackendUnavailable(
                f"C kernel compile failed ({' '.join(cmd[:1])} exit "
                f"{proc.returncode}): {proc.stderr.strip()[:500]}"
            )
        os.replace(out, so_path)
    return so_path


def _load_library() -> ctypes.CDLL:
    try:
        lib = ctypes.CDLL(str(_build_shared_object()))
    except OSError as exc:  # dlopen failure
        raise BackendUnavailable(f"cannot load compiled kernels: {exc}") from exc
    # (batch, n) then pointers: the slots, the pools, the per-row arrays
    lib.sbgp_trees_stacked.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 15
    lib.sbgp_trees_stacked.restype = ctypes.c_int   # -1: no scratch memory
    lib.sbgp_weights_stacked.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 8
    lib.sbgp_weights_stacked.restype = None
    lib.sbgp_jacobi_sweep.restype = None
    return lib


_LIB = _load_library()

_I64 = ctypes.c_int64


def _ptr(array: np.ndarray, dtype: type) -> ctypes.c_void_p:
    """Checked pointer: exact dtype + C-contiguity, or a loud error."""
    if array.dtype != np.dtype(dtype) or not array.flags.c_contiguous:
        raise TypeError(
            f"cext kernel expects C-contiguous {np.dtype(dtype)}, got "
            f"{array.dtype} (contiguous={array.flags.c_contiguous})"
        )
    return ctypes.c_void_p(array.ctypes.data)


def _check_pools(slots: np.ndarray, n: int, ptrs: tuple, pools: tuple,
                 *per_row: np.ndarray) -> None:
    """Every offset table must be ``num_dests + 1`` long and close where
    its pool ends, the batch must name slots of the arena, and every
    per-``(batch row, node)`` array must hold ``len(slots) * n``
    entries."""
    num_dests = len(ptrs[0]) - 1
    if num_dests < 0 or any(
        len(ptr) != num_dests + 1 or ptr[-1] != len(pool)
        for ptr, pool in zip(ptrs, pools)
    ) or any(len(a) != len(slots) * n for a in per_row):
        raise ValueError("cext kernel: pools out of step")
    if len(slots) and (slots.min() < 0 or slots.max() >= num_dests):
        raise ValueError("cext kernel: slot outside the arena")


def trees_stacked(slots, n, order_ptr, order_pool, level_ptr, level_pool,
                  indptr_ptr, indptr_pool, cand_ptr, cands_pool, keys_pool,
                  secure_rows, secp_rows, choice, secure, any_secure):
    """Resolve each batch row's tree over its slot's pools, in place."""
    _check_pools(
        slots, n,
        (order_ptr, level_ptr, indptr_ptr, cand_ptr, cand_ptr),
        (order_pool, level_pool, indptr_pool, cands_pool, keys_pool),
        secure_rows, secp_rows, choice, secure, any_secure,
    )
    status = _LIB.sbgp_trees_stacked(
        _I64(len(slots)), _I64(n), _ptr(slots, np.int64),
        _ptr(order_ptr, np.int64), _ptr(order_pool, np.int32),
        _ptr(level_ptr, np.int64), _ptr(level_pool, np.int32),
        _ptr(indptr_ptr, np.int64), _ptr(indptr_pool, np.int64),
        _ptr(cand_ptr, np.int64), _ptr(cands_pool, np.int32),
        _ptr(keys_pool, np.uint64),
        _ptr(secure_rows, np.bool_), _ptr(secp_rows, np.bool_),
        _ptr(choice, np.int32), _ptr(secure, np.bool_),
        _ptr(any_secure, np.bool_),
    )
    if status:
        raise MemoryError(f"cext kernel: no scratch for a level of {n} rows")


def weights_stacked(slots, n, order_ptr, order_pool, level_ptr, level_pool,
                    choice, node_weights, w):
    """Push subtree weights up to the chosen parents, deepest level first."""
    _check_pools(
        slots, n, (order_ptr, level_ptr), (order_pool, level_pool), choice, w
    )
    if len(node_weights) != n:
        raise ValueError("cext kernel: pools out of step")
    _LIB.sbgp_weights_stacked(
        _I64(len(slots)), _I64(n), _ptr(slots, np.int64),
        _ptr(order_ptr, np.int64), _ptr(order_pool, np.int32),
        _ptr(level_ptr, np.int64), _ptr(level_pool, np.int32),
        _ptr(choice, np.int32), _ptr(node_weights, np.float64),
        _ptr(w, np.float64),
    )


def jacobi_sweep(v, route_cls, seg_starts, seg_sizes, seg_u, tie_rank,
                 rank_edge, lp_field, edge_flags, rank_codes, rank_widths,
                 attacker, leak, cls, length, sec, att, node_secure,
                 new_cls, new_len, new_sec, new_att, tied=None):
    """One synchronous best-response step over the segment-sorted edges."""
    _LIB.sbgp_jacobi_sweep(
        _I64(cls.shape[0]), _I64(cls.shape[1]),
        _I64(len(v)), _I64(len(seg_starts)),
        _ptr(v, np.int32), _ptr(route_cls, np.int8),
        _ptr(seg_starts, np.int64), _ptr(seg_sizes, np.int64),
        _ptr(seg_u, np.int32), _ptr(tie_rank, np.uint32),
        _ptr(rank_edge, np.int64), _ptr(lp_field, np.uint32),
        _ptr(edge_flags, np.uint8),
        _ptr(rank_codes, np.int64), _ptr(rank_widths, np.uint32),
        _ptr(attacker, np.int64), _I64(int(leak)),
        _ptr(cls, np.int8), _ptr(length, np.int32), _ptr(sec, np.bool_),
        _ptr(att, np.bool_), _ptr(node_secure, np.bool_),
        _ptr(new_cls, np.int8), _ptr(new_len, np.int32),
        _ptr(new_sec, np.bool_), _ptr(new_att, np.bool_),
        None if tied is None else _ptr(tied, np.bool_),
    )
