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

from repro.routing import fixpoint
from repro.routing.backends import BackendUnavailable, find_compiler
from repro.routing.policy import POSITION_BITS, RouteClass
from repro.runtime.atomic import atomic_write_text

#: What the C code shares with the other tiers, formatted from where it
#: is defined: no value is mirrored by hand.
_DEFINES = {
    "POS_MASK": f"{(1 << POSITION_BITS) - 1}u",   # a tie key's position bits
    "CLS_UNREACHABLE": int(RouteClass.UNREACHABLE),
    "CLS_CUSTOMER": int(RouteClass.CUSTOMER),
    "CLS_SELF": int(RouteClass.SELF),
    **{
        name: getattr(fixpoint, name)
        for name in (
            "EDGE_APPLIES", "EDGE_NONPROVIDER", "EDGE_GULLIBLE", "EDGE_DROPS",
            "PIN_CLS", "PIN_LEN", "PIN_SEC", "PIN_ATT", "MAX_PINS",
            "ROW_CONVERGED", "ROW_REVISITS", "ROW_MOVING",
        )
    },
}

_C_SOURCE = "#include <stdint.h>\n#include <stdlib.h>\n\n" + "".join(
    f"#define {name} ({value})\n" for name, value in _DEFINES.items()
) + r"""
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

typedef struct {
    const int32_t *v;
    const uint32_t *lp_field;
    const uint8_t *edge_flags;
    uint32_t lp_shift, sp_shift, secp_shift;
    int64_t att_row;   /* -1 (no adversary) equals no node id */
    int leak;
    const int8_t *cls;  /* the row's labels */
    const int32_t *len;
    const uint8_t *sec;
    const uint8_t *att;
} sbgp_offers;

static inline uint32_t sbgp_offer_key(const sbgp_offers *o, int64_t e)
{
    const int32_t vv = o->v[e];
    const uint32_t flags = o->edge_flags[e];
    const int8_t cv = o->cls[vv];
    if (cv == CLS_UNREACHABLE)
        return INVALID_KEY;
    /* GR2: only customer routes / the origin itself are exported across
     * peerings and up to providers -- with the leak escape hatch: the
     * attacker exports its selected route to every neighbor. */
    if ((flags & EDGE_NONPROVIDER) &&
        !(cv == CLS_CUSTOMER || cv == CLS_SELF || (o->leak && vv == o->att_row)))
        return INVALID_KEY;
    /* end-state filtering: validators reject what cannot be validated
     * (genuine security only -- gullible belief fails ROV). */
    if ((flags & EDGE_DROPS) && !o->sec[vv])
        return INVALID_KEY;
    int32_t lv = o->len[vv];
    if (lv < 0)
        lv = 0;
    const int seen = o->sec[vv] ||
        ((flags & EDGE_GULLIBLE) && vv == o->att_row && o->att[vv]);
    const uint32_t secp = ((flags & EDGE_APPLIES) && seen) ? 0u : 1u;
    return (o->lp_field[e] << o->lp_shift) |
        ((uint32_t)(lv + 1) << o->sp_shift) | (secp << o->secp_shift);
}

/* Labels (c, l, s, a) with the fields pin holds put in. */
static inline void sbgp_pinned(const int64_t *pin, int8_t *c, int32_t *l,
                               uint8_t *s, uint8_t *a)
{
    const int64_t fields = pin[1];
    if (fields & PIN_CLS)
        *c = (int8_t)pin[2];
    if (fields & PIN_LEN)
        *l = (int32_t)pin[3];
    if (fields & PIN_SEC)
        *s = pin[4] != 0;
    if (fields & PIN_ATT)
        *a = pin[5] != 0;
}

/* The Jacobi iteration of a chunk, a row at a time, in place: see
 * _loops.jacobi_converge, which this transliterates.  Every node takes
 * the offer with the least selection word rank_key << 32 | tie_rank;
 * rank_edge[node_ptr[u] + r] is the edge of u's segment that holds tie
 * rank r.  Sweep 1 decides every node, a later sweep only the readers
 * (rev_seg) of the nodes the sweep before changed.  tied may be NULL:
 * only structure building asks for the tie mask, the one thing that
 * needs the keys twice.  stats[row] = (status, sweeps, decisions).
 * Returns -1 when there is no scratch memory. */
int sbgp_jacobi_converge(
    int64_t chunk, int64_t n,
    const int32_t *v, const int8_t *route_cls, const int64_t *node_ptr,
    const uint32_t *tie_rank, const int64_t *rank_edge,
    const uint32_t *lp_field, const int64_t *rev_ptr, const int32_t *rev_seg,
    const uint8_t *edge_flags, const int64_t *rank_shifts,
    const uint8_t *node_secure, const int64_t *attacker, int64_t leak,
    const int64_t *pins, int64_t cap,
    int8_t *cls, int32_t *len, uint8_t *sec, uint8_t *att,
    int64_t *stats, uint8_t *tied)
{
    const int64_t num_edges = node_ptr[n];
    /* scratch, n entries each: the frontier, the nodes a sweep changed,
     * the stamps of each node's last change and last frontier, then the
     * staged labels (by frontier place) and each node's labels before
     * its last change */
    const size_t m = n > 0 ? (size_t)n : 1;
    char *block = calloc(m, 4 * sizeof(int64_t) + 2 * (sizeof(int8_t) +
                         sizeof(int32_t) + 2 * sizeof(uint8_t)));
    if (!block)
        return -1;
    int64_t *front = (int64_t *)block, *moved = front + m;
    int64_t *last = moved + m, *mark = last + m;
    int32_t *new_len = (int32_t *)(mark + m), *old_len = new_len + m;
    int8_t *new_cls = (int8_t *)(old_len + m), *old_cls = new_cls + m;
    uint8_t *new_sec = (uint8_t *)(old_cls + m), *new_att = new_sec + m;
    uint8_t *old_sec = new_att + m, *old_att = old_sec + m;
    int64_t stamp = 0, limit = cap;
    for (int64_t row = 0; row < chunk; row++) {
        int8_t *c = cls + row * n;
        int32_t *l = len + row * n;
        uint8_t *s = sec + row * n, *a = att + row * n;
        uint8_t *t = tied ? tied + row * num_edges : 0;
        const int64_t *rp = pins + row * MAX_PINS * 6;
        const sbgp_offers o = {
            v, lp_field, edge_flags, (uint32_t)rank_shifts[0],
            (uint32_t)rank_shifts[1], (uint32_t)rank_shifts[2],
            attacker[row], (int)leak, c, l, s, a};
        for (int64_t k = 0; k < MAX_PINS; k++) {
            const int64_t u = rp[k * 6];
            if (u >= 0)
                sbgp_pinned(rp + k * 6, c + u, l + u, s + u, a + u);
        }
        for (int64_t i = 0; i < n; i++)
            front[i] = i;
        int64_t nf = n, prev_changed = -1, status = ROW_MOVING;
        int64_t sweep = 0, decisions = 0;
        while (sweep < limit) {
            sweep++;
            stamp++;
            for (int64_t i = 0; i < nf; i++) {
                const int64_t u = front[i];
                const int64_t lo = node_ptr[u], hi = node_ptr[u + 1];
                uint64_t best = UINT64_MAX;
                for (int64_t e = lo; e < hi; e++) {
                    const uint32_t k = sbgp_offer_key(&o, e);
                    if (k != INVALID_KEY) {
                        const uint64_t word = ((uint64_t)k << 32) | tie_rank[e];
                        if (word < best)
                            best = word;
                    }
                }
                if (t) {
                    for (int64_t e = lo; e < hi; e++) {
                        const uint32_t k = sbgp_offer_key(&o, e);
                        t[e] = (uint8_t)(k != INVALID_KEY && (uint64_t)k == best >> 32);
                    }
                }
                if (best == UINT64_MAX) {
                    new_cls[i] = CLS_UNREACHABLE;
                    new_len[i] = -1;
                    new_sec[i] = 0;
                    new_att[i] = 0;
                } else {
                    const int64_t eidx = rank_edge[lo + (int64_t)(best & 0xFFFFFFFFu)];
                    const int32_t vv = v[eidx];
                    const int seen = s[vv] ||
                        ((edge_flags[eidx] & EDGE_GULLIBLE) && vv == o.att_row && a[vv]);
                    new_cls[i] = route_cls[eidx];
                    new_len[i] = l[vv] + 1;
                    new_sec[i] = (uint8_t)(node_secure[u] && seen);
                    new_att[i] = a[vv];
                }
                for (int64_t k = 0; k < MAX_PINS; k++)
                    if (rp[k * 6] == u)
                        sbgp_pinned(rp + k * 6, new_cls + i, new_len + i,
                                    new_sec + i, new_att + i);
            }
            decisions += nf;
            int64_t changed = 0, back = 0;
            for (int64_t i = 0; i < nf; i++) {
                const int64_t u = front[i];
                if (new_cls[i] == c[u] && new_len[i] == l[u] &&
                    new_sec[i] == s[u] && new_att[i] == a[u])
                    continue;
                back += last[u] == stamp - 1 && new_cls[i] == old_cls[u] &&
                    new_len[i] == old_len[u] && new_sec[i] == old_sec[u] &&
                    new_att[i] == old_att[u];
                old_cls[u] = c[u];
                old_len[u] = l[u];
                old_sec[u] = s[u];
                old_att[u] = a[u];
                last[u] = stamp;
                c[u] = new_cls[i];
                l[u] = new_len[i];
                s[u] = new_sec[i];
                a[u] = new_att[i];
                moved[changed++] = u;
            }
            if (changed == 0) {
                status = ROW_CONVERGED;
                break;
            }
            if (changed == prev_changed && back == changed) {
                status = ROW_REVISITS;
                limit = sweep - 1;
                break;
            }
            prev_changed = changed;
            /* the next frontier: every reader of a changed node, once */
            nf = 0;
            for (int64_t i = 0; i < changed; i++) {
                const int64_t x = moved[i];
                for (int64_t j = rev_ptr[x]; j < rev_ptr[x + 1]; j++) {
                    const int32_t u = rev_seg[j];
                    if (mark[u] != stamp) {
                        mark[u] = stamp;
                        front[nf++] = u;
                    }
                }
            }
        }
        stats[row * 3] = status;
        stats[row * 3 + 1] = sweep;
        stats[row * 3 + 2] = decisions;
    }
    free(block);
    return 0;
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
    # (chunk, n), the edge table ... attacker, leak, pins, cap, the
    # labels, stats and tied
    lib.sbgp_jacobi_converge.argtypes = (
        [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 12
        + [ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64] + [ctypes.c_void_p] * 6
    )
    lib.sbgp_jacobi_converge.restype = ctypes.c_int   # -1: no scratch memory
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


def jacobi_converge(v, route_cls, node_ptr, tie_rank, rank_edge, lp_field,
                    rev_ptr, rev_seg, edge_flags, rank_shifts, node_secure,
                    attacker, leak, pins, cap, cls, length, sec, att, stats,
                    tied=None):
    """Converge every row of the chunk in place, each in one pass of C
    over its frontier sweeps (``_loops.jacobi_converge`` is the spec)."""
    num_edges = len(v)
    n = len(node_ptr) - 1
    chunk = len(attacker)
    per_edge = (route_cls, tie_rank, rank_edge, lp_field, rev_seg, edge_flags)
    if (
        n < 0 or len(rev_ptr) != n + 1
        or node_ptr[-1] != num_edges or rev_ptr[-1] != num_edges
        or any(len(a) != num_edges for a in per_edge)
        or len(node_secure) != n or len(rank_shifts) != 3
    ):
        raise ValueError("cext kernel: edge table out of step")
    rows = [(x, (chunk, n)) for x in (cls, length, sec, att)]
    rows += [(stats, (chunk, 3)), (pins, (chunk, fixpoint.MAX_PINS, 6))]
    if tied is not None:
        rows.append((tied, (chunk, num_edges)))
    if any(x.shape != shape for x, shape in rows):
        raise ValueError("cext kernel: per-row arrays are not [chunk, ...]")
    nodes = pins[..., 0]
    if nodes.size and (nodes.min() < -1 or nodes.max() >= n):
        raise ValueError("cext kernel: pin outside the graph")
    status = _LIB.sbgp_jacobi_converge(
        chunk, n,
        _ptr(v, np.int32), _ptr(route_cls, np.int8), _ptr(node_ptr, np.int64),
        _ptr(tie_rank, np.uint32), _ptr(rank_edge, np.int64),
        _ptr(lp_field, np.uint32), _ptr(rev_ptr, np.int64),
        _ptr(rev_seg, np.int32), _ptr(edge_flags, np.uint8),
        _ptr(rank_shifts, np.int64), _ptr(node_secure, np.bool_),
        _ptr(attacker, np.int64), int(leak), _ptr(pins, np.int64), int(cap),
        _ptr(cls, np.int8), _ptr(length, np.int32), _ptr(sec, np.bool_),
        _ptr(att, np.bool_), _ptr(stats, np.int64),
        None if tied is None else _ptr(tied, np.bool_),
    )
    if status:
        raise MemoryError(f"cext kernel: no scratch for a sweep over {n} nodes")
