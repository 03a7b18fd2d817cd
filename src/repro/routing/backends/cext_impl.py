"""C-extension backend: the loop bodies as one translation unit.

The four kernels as scalar loops over the calling convention of
:mod:`repro.routing.backends`, compiled at first use with the
system C compiler (``cc``/``gcc`` — no build-time Python dependency)
and bound through ``ctypes``.  The shared object is cached under
``~/.cache/sbgp-kernels`` (override with ``SBGP_KERNEL_CACHE``) keyed
by a digest of the source and the compile flags, so a process pays the
compile exactly once per revision and workers share the artifact.

Every kernel is a per-row body — a batch row's tree, a chunk row's
Jacobi iteration, a destination's labels or pools — run by one shared
driver, ``sbgp_run``, on up to as many POSIX threads as the process may
use CPUs (``os.sched_getaffinity``, read once at import).  Rows write
disjoint outputs, so every byte is the one-thread call's.  A call
starts one thread beyond the caller's per whole ``_ROW_FLOOR`` entries
of work: rows times what a row reads at least once -- its ``n`` nodes
for the tree kernels, the graph's directed edges for the Jacobi sweep
and the structure build.  Starting and joining a thread costs ~35 µs
on a 2-vCPU KVM guest, and a full N=1000 tree call with weights split
over two threads breaks even at about 32 rows (0.152 ms on one thread,
0.153 on two; 0.31 against 0.25 ms at 64 rows, 5.3 against 2.7 ms at
1000).  The tree rows are the cheapest per entry, so every other
kernel clears the floor with room to spare: the 110 Jacobi calls of an
``attack_matrix`` run (chunks of 16 rows over ~5,400 directed edges,
N=1000) took 118 ms on one thread and 70-87 ms on two.  The caller
allocates every thread's scratch and joins every thread before the
call returns, so no thread outlives a call (a fork between calls
copies no running kernel).  Two things couple rows, and keep their
one-thread meaning:
a Jacobi row that revisits a state lowers the sweep limit of the whole
chunk, as an atomic minimum; the structure labels report the lowest
too-long row.

Import errors — no compiler, compile failure, dlopen failure — raise
:class:`~repro.routing.backends.BackendUnavailable`; the registry turns
that into a counted ``compiled_to_numpy`` degradation, never a crash.

Why ctypes and not a real extension module: the kernels take flat typed
buffers and return at most a status code, so the FFI surface is five
pointer-and-stride signatures — not worth a build system (the structure
build is two of them: one sizes the chunk's pools, so Python allocates
each exactly, and one fills them).  The tree kernel is the round's one
call per batch: per batch row it clears the row's outputs, resolves the
tree and, when it gets node weights and ``w`` (NULL-able: trees only),
sums the subtree weights, all before the next row; a state mask comes
with a stride, 0 for one ``[n]`` state the batch shares, so it is never
tiled per row.  Its selection takes no data-dependent branch on a
candidate's security.  The Python-side wrappers enforce dtype,
contiguity and lengths *loudly* (a silent mismatch would corrupt
memory), which the parity suite exercises.

Bit-identity with numpy, the ground truth, is structural:

- trees: a row takes its first secure candidate where SecP applies and
  there are any, else its first — positions in the same pools on both
  tiers — and every candidate sits one level below its row, so walking
  a slot level by level in pool order (a level's several-candidate rows
  settled after the others took their first candidate, which no row of
  the same level reads) sees the state numpy's whole-level gather sees;
- subtree weights: a parent receives contributions only while its
  children's level runs and ``0.0 + x == x`` exactly, so adding child
  by child, levels deepest first and rows in pool order, is
  ``np.add.at``'s sequential sum over the mirror's stack order (batch
  rows write disjoint rows of ``w``, so their order does not matter);
- the Jacobi iteration takes the minimum of ``rank_key << 32 | e`` over
  a segment, the word numpy gathers per edge, and minima are
  order-independent.  Which nodes a sweep re-decides changes no label: a
  node off the frontier would decide from the same neighbours' labels
  and pins as last time, so it would decide the same, tie mask
  included; on a row that starts blank, a node that neither is pinned
  nor reads a pin sees only unreachable neighbours from sweep 1 on;
- the structure build settles a destination's nodes pass by pass in
  order of route length, the order the numpy passes relax whole levels,
  so every node takes the same class and length, and its tiebreak set
  is every neighbour on the CSR its class allows that may export it a
  route one hop shorter.  Rows are placed by ``(length, node)`` and
  each row's candidates pulled in segment order from CSRs in tie-break
  order (``repro.routing.tree.tie_ordered``): the orders the numpy
  assembler sorts into.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.routing import fixpoint
from repro.routing.backends import BackendUnavailable, _PoolMemo, find_compiler, mask_stride
from repro.routing.policy import RouteClass
from repro.routing.tree import MAX_ROUTE_LENGTH, PoolsAssembly, route_too_long, tie_ordered
from repro.runtime.atomic import atomic_write_text

#: What the C code shares with the other tiers, formatted from where it
#: is defined: no value is mirrored by hand.
_DEFINES = {
    "MAX_ROUTE_LENGTH": MAX_ROUTE_LENGTH,          # what int8 lengths hold
    "CLS_UNREACHABLE": int(RouteClass.UNREACHABLE),
    "CLS_PROVIDER": int(RouteClass.PROVIDER),
    "CLS_PEER": int(RouteClass.PEER),
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

_C_SOURCE = (
    "#define _POSIX_C_SOURCE 200809L\n#include <pthread.h>\n#include <stdint.h>\n"
    "#include <stdlib.h>\n#include <string.h>\n\n"
) + "".join(
    f"#define {name} ({value})\n" for name, value in _DEFINES.items()
) + r"""
#define INVALID_KEY 0xFFFFFFFFu
#define SBGP_MAX_THREADS 64

/* The row driver every kernel runs on.  A kernel's rows are
 * independent: each writes only its own outputs and its thread's
 * scratch, so which thread runs a row changes no byte.  sbgp_run runs
 * them on `threads` threads, the caller one of them.  A thread claims a
 * run of rows through an atomic counter -- its share of what is left
 * (1 / (2 * threads) of it, at least one row) -- so runs shrink as the
 * call ends and a descheduled thread holds up one run, not a fixed part
 * of the call.  Runs, not single rows: threads writing neighbouring
 * rows fight over the cache lines where the rows meet (a full N=1000
 * tree call: 5.2 ms on one thread; 4.5 ms on two claiming a row at a
 * time, 2.7 ms claiming shares).  The caller allocates every thread's
 * scratch (zeroed, on lines of its own), so no thread ever allocates,
 * and joins every thread it started before it returns: no thread
 * outlives a call.
 *
 * A row's body returns nonzero when the row fails.  Claims only ever
 * move forward, so rows past the lowest failed one are not started and
 * every row below it runs: the call returns 1 + that row, the row a
 * serial loop would have stopped at.  Returns -1 when there is no
 * scratch memory, else 0. */
typedef int (*sbgp_row_body)(void *args, char *scratch, int64_t row);

typedef struct {
    sbgp_row_body body;
    void *args;
    int64_t rows;
    int64_t share;    /* a claim takes 1 / share of the rows left */
    int64_t next;     /* the first unclaimed row (atomic) */
    int64_t failed;   /* the lowest failed row, rows if none (atomic) */
} sbgp_rows;

typedef struct {
    sbgp_rows *job;
    char *scratch;
} sbgp_worker;

/* *at = min(*at, value), atomically */
static inline void sbgp_lower(int64_t *at, int64_t value)
{
    int64_t seen = __atomic_load_n(at, __ATOMIC_RELAXED);
    while (value < seen && !__atomic_compare_exchange_n(
               at, &seen, value, 0, __ATOMIC_RELAXED, __ATOMIC_RELAXED))
        ;
}

static void sbgp_work(sbgp_rows *job, char *scratch)
{
    int64_t lo = __atomic_load_n(&job->next, __ATOMIC_RELAXED), take;
    for (;;) {
        do {
            if (lo >= job->rows)
                return;
            take = (job->rows - lo) / job->share;
            take = take > 1 ? take : 1;
        } while (!__atomic_compare_exchange_n(&job->next, &lo, lo + take, 1,
                                              __ATOMIC_RELAXED, __ATOMIC_RELAXED));
        for (int64_t row = lo; row < lo + take; row++) {
            if (row > __atomic_load_n(&job->failed, __ATOMIC_RELAXED))
                return;
            if (job->body(job->args, scratch, row))
                sbgp_lower(&job->failed, row);
        }
        lo = __atomic_load_n(&job->next, __ATOMIC_RELAXED);
    }
}

static void *sbgp_thread(void *arg)
{
    const sbgp_worker *w = arg;
    sbgp_work(w->job, w->scratch);
    return NULL;
}

static int sbgp_run(sbgp_row_body body, const void *args, size_t args_size,
                    int64_t rows, size_t scratch, int64_t threads)
{
    threads = threads < rows ? threads : rows;
    threads = threads < SBGP_MAX_THREADS ? threads : SBGP_MAX_THREADS;
    threads = threads > 1 ? threads : 1;
    /* one block, cut on cache-line bounds: the job and a copy of the
     * kernel's arguments, then each thread's scratch, two lines apart.
     * Nothing the threads share stays on the caller's stack, whose lines
     * its own rows write all the time (left there, they made two threads
     * slower than one on the structure labels). */
    const size_t head = (sizeof(sbgp_rows) + args_size) / 64 * 64 + 128;
    const size_t size = scratch / 64 * 64 + 128;
    char *mem = calloc(1, 64 + head + (size_t)threads * size);
    if (!mem)
        return -1;
    char *base = mem + (64 - (uintptr_t)mem % 64);
    sbgp_rows *job = (sbgp_rows *)base;
    memcpy(job + 1, args, args_size);
    *job = (sbgp_rows){body, job + 1, rows, 2 * threads, 0, rows};
    char *block = base + head;
    pthread_t tid[SBGP_MAX_THREADS];
    sbgp_worker work[SBGP_MAX_THREADS];
    int64_t started = 0;
    for (int64_t t = 1; t < threads; t++) {
        work[started] = (sbgp_worker){job, block + (size_t)t * size};
        if (pthread_create(&tid[started], NULL, sbgp_thread, &work[started]))
            break;   /* the threads already running take the rest */
        started++;
    }
    sbgp_work(job, block);
    for (int64_t t = 0; t < started; t++)
        pthread_join(tid[t], NULL);
    const int64_t failed = job->failed;
    free(mem);
    return failed < rows ? (int)(failed + 1) : 0;
}

/* One batch row's subtree weights: levels deepest first, a level's rows
 * in pool order.  Parents sit one level up, so wb[p] is only *written*
 * here and only *read* when its own level runs; with 0.0 + x == x
 * exactly, child-by-child accumulation in this order matches numpy's
 * np.add.at over the mirror's stack order bit for bit. */
static inline void sbgp_weigh_row(
    const int32_t *order, const int32_t *starts, int64_t last,
    const int32_t *ch, const double *node_weights, double *restrict wb)
{
    for (int64_t level = last - 1; level >= 1; level--) {
        const int64_t hi = starts[level + 1];
        for (int64_t r = starts[level]; r < hi; r++) {
            const int32_t u = order[r];
            const int32_t p = ch[u];
            if (p >= 0)
                wb[p] += wb[u] + node_weights[u];
        }
    }
}

/* The tree kernels read the arena's pools in place.  Slot k's rows are
 * order_pool[order_ptr[k]..order_ptr[k+1]), reachable nodes sorted by
 * (path length, node), row 0 its destination; level_pool[level_ptr[k]..
 * level_ptr[k+1]) are its level_starts, where each path length starts
 * among those rows (the last entry closes them); indptr_pool from
 * indptr_ptr[k] is its tiebreak CSR, one entry per row plus a closing
 * one, relative to cand_ptr[k] in cands_pool.  Batch row b
 * resolves slot slots[b] (any order, repeats allowed) into row rows[b]
 * of the C-contiguous [rows, n] outputs choice / secure / any_secure / w
 * (distinct rows; the others are left as they are);
 * secure_rows / secp_rows are node_secure and node_secure & breaks_ties,
 * batch row b's starting b * sec_stride / b * secp_stride entries in:
 * stride 0 when the batch shares one [n] state, n for a row each.  A
 * row's candidates are in tie-break order (tree.tie_order): TB takes the
 * first, SecP the first secure one. */
typedef struct {
    int64_t n;
    const int64_t *slots;
    const int64_t *order_ptr;
    const int32_t *order_pool;
    const int64_t *level_ptr;
    const int32_t *level_pool;
    const int64_t *indptr_ptr;
    const int32_t *indptr_pool;
    const int64_t *cand_ptr;
    const int32_t *cands_pool;
    const uint8_t *secure_rows;
    int64_t sec_stride;
    const uint8_t *secp_rows;
    int64_t secp_stride;
    const int64_t *rows;
    int32_t *choice;
    uint8_t *secure, *any_secure;
    const double *node_weights;
    double *w;
} sbgp_trees;

/* Batch row b, written whole, start to end: cleared, its destination's
 * security seeded, resolved, and -- when node_weights and w are not
 * NULL -- its subtree weights pushed up, while its ~14 bytes a node are
 * still in cache.  The scratch holds a level's multi-candidate rows. */
static int sbgp_tree_row(void *args, char *scratch, int64_t b)
{
    const sbgp_trees *t = args;
    const int64_t n = t->n, k = t->slots[b];
    int32_t *multi = (int32_t *)scratch;
    const int32_t *order = t->order_pool + t->order_ptr[k];
    const int32_t *starts = t->level_pool + t->level_ptr[k];
    const int64_t last = t->level_ptr[k + 1] - t->level_ptr[k] - 1;
    const int32_t *indptr = t->indptr_pool + t->indptr_ptr[k];
    const int32_t *cands = t->cands_pool + t->cand_ptr[k];
    const uint8_t *sec_in = t->secure_rows + b * t->sec_stride;
    const uint8_t *secp_in = t->secp_rows + b * t->secp_stride;
    const int64_t out = t->rows[b] * n;
    int32_t *restrict ch = t->choice + out;
    uint8_t *restrict sec = t->secure + out;
    uint8_t *restrict any = t->any_secure + out;
    memset(ch, 0xFF, (size_t)n * sizeof(int32_t));   /* -1: no next hop */
    memset(sec, 0, (size_t)n);
    memset(any, 0, (size_t)n);
    sec[order[0]] = sec_in[order[0]];
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
            sec[u] = sec_in[u] & sec[c];
            multi[m] = (int32_t)r;
            m += end - s > 1;
            s = end;
        }
        /* Those rows already took TB's pick, their first candidate;
         * SecP's is the first secure one, found walking the row back
         * to front without a branch on a candidate's security
         * (about a third of nodes are secure, at random). */
        for (int64_t i = 0; i < m; i++) {
            const int64_t r = multi[i];
            const int64_t lo = indptr[r], end = indptr[r + 1];
            const int32_t u = order[r];
            int64_t first = end;
            for (int64_t e = end - 1; e >= lo; e--)
                first = sec[cands[e]] ? e : first;
            const uint8_t any_sec = first < end;
            const int32_t c = cands[secp_in[u] & any_sec ? first : lo];
            ch[u] = c;
            any[u] = any_sec;
            sec[u] = sec_in[u] & sec[c];
        }
    }
    if (t->w) {
        double *restrict wb = t->w + out;
        memset(wb, 0, (size_t)n * sizeof(double));   /* 0.0 */
        sbgp_weigh_row(order, starts, last, ch, t->node_weights, wb);
    }
    return 0;
}

int sbgp_trees_stacked(
    int64_t threads, int64_t batch, int64_t n, const int64_t *slots,
    const int64_t *order_ptr, const int32_t *order_pool,
    const int64_t *level_ptr, const int32_t *level_pool,
    const int64_t *indptr_ptr, const int32_t *indptr_pool,
    const int64_t *cand_ptr, const int32_t *cands_pool,
    const uint8_t *secure_rows, int64_t sec_stride,
    const uint8_t *secp_rows, int64_t secp_stride, const int64_t *rows,
    int32_t *choice, uint8_t *secure, uint8_t *any_secure,
    const double *node_weights, double *w)
{
    /* scratch: a level's multi-candidate rows, as many as the batch's
     * longest slot has rows */
    int64_t most = 1;
    for (int64_t b = 0; b < batch; b++) {
        const int64_t rows = order_ptr[slots[b] + 1] - order_ptr[slots[b]];
        if (rows > most)
            most = rows;
    }
    const sbgp_trees t = {
        n, slots, order_ptr, order_pool, level_ptr, level_pool, indptr_ptr,
        indptr_pool, cand_ptr, cands_pool, secure_rows, sec_stride, secp_rows,
        secp_stride, rows, choice, secure, any_secure, node_weights, w};
    return sbgp_run(sbgp_tree_row, &t, sizeof t, batch, (size_t)most * sizeof(int32_t), threads);
}

/* Subtree weights alone, batch row b's tree in row b of choice, into a
 * w the caller zeroed. */
typedef struct {
    int64_t n;
    const int64_t *slots;
    const int64_t *order_ptr;
    const int32_t *order_pool;
    const int64_t *level_ptr;
    const int32_t *level_pool;
    const int32_t *choice;
    const double *node_weights;
    double *w;
} sbgp_weights;

static int sbgp_weights_row(void *args, char *scratch, int64_t b)
{
    const sbgp_weights *t = args;
    const int64_t k = t->slots[b];
    (void)scratch;
    sbgp_weigh_row(t->order_pool + t->order_ptr[k], t->level_pool + t->level_ptr[k],
                   t->level_ptr[k + 1] - t->level_ptr[k] - 1, t->choice + b * t->n,
                   t->node_weights, t->w + b * t->n);
    return 0;
}

int sbgp_weights_stacked(
    int64_t threads, int64_t batch, int64_t n, const int64_t *slots,
    const int64_t *order_ptr, const int32_t *order_pool,
    const int64_t *level_ptr, const int32_t *level_pool,
    const int32_t *choice, const double *node_weights, double *w)
{
    const sbgp_weights t = {n, slots, order_ptr, order_pool, level_ptr, level_pool,
                      choice, node_weights, w};
    return sbgp_run(sbgp_weights_row, &t, sizeof t, batch, 0, threads);
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

/* The selection word of offer e, rank key << 32 | e: all ones when the
 * offer is barred. */
static inline uint64_t sbgp_offer_word(const sbgp_offers *o, int64_t e)
{
    const uint32_t k = sbgp_offer_key(o, e);
    return k == INVALID_KEY ? UINT64_MAX : ((uint64_t)k << 32) | (uint64_t)e;
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

/* The Jacobi iteration of a chunk, a row at a time, in place, to the
 * contract of numpy_impl.jacobi_converge (its labels and tied; decisions
 * counts only the frontier's nodes).  Every node takes
 * the offer with the least selection word rank_key << 32 | e (each
 * segment is in tie-break order, so the low half both breaks ties and
 * names the edge) and keeps that word, best[u].  Sweep 1 scans the
 * segment of every node -- of only the pins and their readers when the
 * row starts blank.  After a sweep each changed node x is pushed along
 * its reverse slots (rev_seg, rev_edge): a reader u is queued when x's
 * new word undercuts cand[u] -- best[u], or the least word pushed to u
 * since -- or when x is the source of u's best edge, the edge best[u]'s
 * low half names.  u's decision is a function of its least word and of
 * that word's source labels, so no other node can move.  A queued
 * node scans its segment again only when its best source's word got
 * worse or barred; else its least word is cand[u].  tied may be NULL:
 * only structure building asks for the tie mask, written from best[]
 * over the whole row after its last sweep.  stats[row] = (status,
 * sweeps, decisions).
 *
 * Rows share one thing: a row that revisits the state of two sweeps
 * before at sweep S lowers the sweeps every row may take (limit) to
 * S - 1, atomically, whichever thread runs it.  The chunk fails then
 * whatever the other rows do; a row whose own first revisit comes
 * earlier still finds it, so the least revisit sweep reported is
 * the chunk's earliest, in any order the rows run.  Returns -1 when
 * there is no scratch memory. */
typedef struct {
    int64_t n;
    const int32_t *v;
    const int8_t *route_cls;
    const int64_t *node_ptr;
    const uint32_t *lp_field;
    const int64_t *rev_ptr;
    const int32_t *rev_seg;
    const int64_t *rev_edge;
    const uint8_t *edge_flags;
    const int64_t *rank_shifts;
    const uint8_t *node_secure;
    const int64_t *attacker;
    int64_t leak;
    const int64_t *pins;
    int8_t *cls;
    int32_t *len;
    uint8_t *sec, *att;
    int64_t *stats;
    uint8_t *tied;
    int64_t limit;   /* the sweeps a row may take (atomic) */
} sbgp_jacobi;

/* scratch, n entries each after a stamp: the frontier, the nodes a
 * sweep changed, the stamps of each node's last change and last
 * frontier, each node's least word and the least word pushed to it,
 * the staged labels (by frontier place), each node's labels before its
 * last change, and whether its next decision must scan its segment */
static size_t sbgp_jacobi_scratch(int64_t n)
{
    const size_t m = n > 0 ? (size_t)n : 1;
    return sizeof(int64_t) + m * (6 * sizeof(int64_t) + 2 * (sizeof(int8_t) +
        sizeof(int32_t) + 2 * sizeof(uint8_t)) + sizeof(uint8_t));
}

static int sbgp_jacobi_row(void *args, char *scratch, int64_t row)
{
    sbgp_jacobi *j = args;
    const int64_t n = j->n;
    const int32_t *v = j->v;
    const int64_t *node_ptr = j->node_ptr, *rev_ptr = j->rev_ptr;
    const int32_t *rev_seg = j->rev_seg;
    const int64_t *rev_edge = j->rev_edge;
    const uint8_t *edge_flags = j->edge_flags;
    const size_t m = n > 0 ? (size_t)n : 1;
    int64_t *stamp = (int64_t *)scratch;
    int64_t *front = stamp + 1, *moved = front + m;
    int64_t *last = moved + m, *mark = last + m;
    uint64_t *best = (uint64_t *)(mark + m), *cand = best + m;
    int32_t *new_len = (int32_t *)(cand + m), *old_len = new_len + m;
    int8_t *new_cls = (int8_t *)(old_len + m), *old_cls = new_cls + m;
    uint8_t *new_sec = (uint8_t *)(old_cls + m), *new_att = new_sec + m;
    uint8_t *old_sec = new_att + m, *old_att = old_sec + m;
    uint8_t *scan = old_att + m;
    int8_t *c = j->cls + row * n;
    int32_t *l = j->len + row * n;
    uint8_t *s = j->sec + row * n, *a = j->att + row * n;
    const int64_t *rp = j->pins + row * MAX_PINS * 6;
    const sbgp_offers o = {
        v, j->lp_field, edge_flags, (uint32_t)j->rank_shifts[0],
        (uint32_t)j->rank_shifts[1], (uint32_t)j->rank_shifts[2],
        j->attacker[row], (int)j->leak, c, l, s, a};
    int blank = 1;
    for (int64_t i = 0; i < n && blank; i++)
        blank = c[i] == CLS_UNREACHABLE && l[i] == -1 && !s[i] && !a[i];
    for (int64_t k = 0; k < MAX_PINS; k++) {
        const int64_t u = rp[k * 6];
        if (u >= 0)
            sbgp_pinned(rp + k * 6, c + u, l + u, s + u, a + u);
    }
    /* a node sweep 1 leaves out is offered nothing: its least word
     * is all ones */
    for (int64_t i = 0; i < n; i++) {
        best[i] = cand[i] = UINT64_MAX;
        scan[i] = 0;
    }
    int64_t nf = 0;
    if (blank) {
        /* every node but the pins and their readers reads only
         * unreachable neighbours, which offer it nothing: it would
         * decide the blank labels it holds, with no tie */
        ++*stamp;
        for (int64_t k = 0; k < MAX_PINS; k++) {
            const int64_t x = rp[k * 6];
            if (x < 0)
                continue;
            if (mark[x] != *stamp) {
                mark[x] = *stamp;
                front[nf++] = x;
            }
            for (int64_t jj = rev_ptr[x]; jj < rev_ptr[x + 1]; jj++) {
                const int32_t u = rev_seg[jj];
                if (mark[u] != *stamp) {
                    mark[u] = *stamp;
                    front[nf++] = u;
                }
            }
        }
    } else {
        for (int64_t i = 0; i < n; i++)
            front[i] = i;
        nf = n;
    }
    for (int64_t i = 0; i < nf; i++)
        scan[front[i]] = 1;   /* sweep 1 scans its whole frontier */
    int64_t prev_changed = -1, status = ROW_MOVING;
    int64_t sweep = 0, decisions = 0;
    while (sweep < __atomic_load_n(&j->limit, __ATOMIC_RELAXED)) {
        sweep++;
        const int64_t now = ++*stamp;
        for (int64_t i = 0; i < nf; i++) {
            const int64_t u = front[i];
            uint64_t word = cand[u];
            if (scan[u]) {
                word = UINT64_MAX;
                for (int64_t e = node_ptr[u]; e < node_ptr[u + 1]; e++) {
                    const uint64_t w = sbgp_offer_word(&o, e);
                    word = w < word ? w : word;
                }
                scan[u] = 0;
            }
            best[u] = cand[u] = word;
            if (word == UINT64_MAX) {
                new_cls[i] = CLS_UNREACHABLE;
                new_len[i] = -1;
                new_sec[i] = 0;
                new_att[i] = 0;
            } else {
                const int64_t eidx = (int64_t)(word & 0xFFFFFFFFu);
                const int32_t vv = v[eidx];
                const int seen = s[vv] ||
                    ((edge_flags[eidx] & EDGE_GULLIBLE) && vv == o.att_row && a[vv]);
                new_cls[i] = j->route_cls[eidx];
                new_len[i] = l[vv] + 1;
                new_sec[i] = (uint8_t)(j->node_secure[u] && seen);
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
            back += last[u] == now - 1 && new_cls[i] == old_cls[u] &&
                new_len[i] == old_len[u] && new_sec[i] == old_sec[u] &&
                new_att[i] == old_att[u];
            old_cls[u] = c[u];
            old_len[u] = l[u];
            old_sec[u] = s[u];
            old_att[u] = a[u];
            last[u] = now;
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
            sbgp_lower(&j->limit, sweep - 1);
            break;
        }
        prev_changed = changed;
        /* the next frontier: push each changed node's new offers to
         * its readers, and queue those they can move, once */
        nf = 0;
        for (int64_t i = 0; i < changed; i++) {
            const int64_t x = moved[i];
            for (int64_t jj = rev_ptr[x]; jj < rev_ptr[x + 1]; jj++) {
                const int32_t u = rev_seg[jj];
                const int64_t e = rev_edge[jj];
                const uint64_t word = sbgp_offer_word(&o, e);
                if ((uint32_t)best[u] == (uint32_t)e)
                    scan[u] |= word > best[u];   /* its best source: scan if worse */
                else if (word >= cand[u])
                    continue;
                cand[u] = word < cand[u] ? word : cand[u];
                if (mark[u] != now) {
                    mark[u] = now;
                    front[nf++] = u;
                }
            }
        }
    }
    if (j->tied) {
        uint8_t *t = j->tied + row * node_ptr[n];
        for (int64_t u = 0; u < n; u++)
            for (int64_t e = node_ptr[u]; e < node_ptr[u + 1]; e++) {
                const uint32_t k = sbgp_offer_key(&o, e);
                t[e] = (uint8_t)(k != INVALID_KEY && (uint64_t)k == best[u] >> 32);
            }
    }
    j->stats[row * 3] = status;
    j->stats[row * 3 + 1] = sweep;
    j->stats[row * 3 + 2] = decisions;
    return 0;
}

int sbgp_jacobi_converge(
    int64_t threads, int64_t chunk, int64_t n,
    const int32_t *v, const int8_t *route_cls, const int64_t *node_ptr,
    const uint32_t *lp_field, const int64_t *rev_ptr, const int32_t *rev_seg,
    const int64_t *rev_edge, const uint8_t *edge_flags,
    const int64_t *rank_shifts, const uint8_t *node_secure,
    const int64_t *attacker, int64_t leak, const int64_t *pins, int64_t cap,
    int8_t *cls, int32_t *len, uint8_t *sec, uint8_t *att,
    int64_t *stats, uint8_t *tied)
{
    const sbgp_jacobi j = {
        n, v, route_cls, node_ptr, lp_field, rev_ptr, rev_seg, rev_edge,
        edge_flags, rank_shifts, node_secure, attacker, leak, pins,
        cls, len, sec, att, stats, tied, cap};
    return sbgp_run(sbgp_jacobi_row, &j, sizeof j, chunk, sbgp_jacobi_scratch(n), threads);
}

/* Offer u a route of class rc and length at: a node without a route
 * takes it (returns 1: u is settled), a node holding exactly that route
 * ties with it.  Either way it is one more tiebreak candidate.  A route
 * longer than the int8 lengths hold settles nothing and returns -1: a
 * wrapped length would misorder the walk before any later check. */
static inline int sbgp_offer(int32_t u, int8_t rc, int32_t at, int8_t *c,
                             int8_t *l, int64_t *cands)
{
    if (c[u] == CLS_UNREACHABLE) {
        if (at > MAX_ROUTE_LENGTH)
            return -1;
        c[u] = rc;
        l[u] = (int8_t)at;
        ++*cands;
        return 1;
    }
    *cands += c[u] == rc && l[u] == at;
    return 0;
}

/* Passes 1-3 of a destination chunk into its C-contiguous [rows, n]
 * labels, each node taking the class and length of its route toward
 * dests[row] (unreachable: -1 and -1), settled in length order.  seq
 * lists the nodes as they are settled -- the customer cone breadth
 * first, then the peer routes, then the provider routes, each run in
 * length order -- so pass 3 merges the three runs (the last one
 * growing) to take every node by increasing length.  sizes[row] =
 * (reachable nodes, level_starts entries, tiebreak candidates): what the
 * row's slot of the pools holds.  Returns -1 when there is no scratch
 * memory, and 1 + row when a route toward dests[row] is longer than
 * MAX_ROUTE_LENGTH hops (the lowest such row; its labels are not
 * whole). */
typedef struct {
    int64_t n;
    const int64_t *dests;
    const int64_t *cust_ptr;
    const int32_t *cust_idx;
    const int64_t *peer_ptr;
    const int32_t *peer_idx;
    const int64_t *prov_ptr;
    const int32_t *prov_idx;
    int8_t *cls, *len;
    int64_t *sizes;
} sbgp_labels;

static int sbgp_labels_row(void *args, char *scratch, int64_t row)
{
    const sbgp_labels *g = args;
    const int64_t n = g->n;
    const int64_t *cust_ptr = g->cust_ptr, *peer_ptr = g->peer_ptr, *prov_ptr = g->prov_ptr;
    const int32_t *cust_idx = g->cust_idx, *peer_idx = g->peer_idx, *prov_idx = g->prov_idx;
    int32_t *seq = (int32_t *)scratch;
    int8_t *c = g->cls + row * n;
    int8_t *l = g->len + row * n;
    int64_t cands = 0;
    int got, over = 0;
    for (int64_t u = 0; u < n; u++) {
        c[u] = CLS_UNREACHABLE;
        l[u] = -1;
    }
    const int32_t dest = (int32_t)g->dests[row];
    c[dest] = CLS_SELF;
    l[dest] = 0;
    seq[0] = dest;
    int64_t end = 1;
    /* pass 1: customer routes, breadth first up provider edges */
    for (int64_t i = 0; i < end; i++) {
        const int32_t v = seq[i];
        for (int64_t e = prov_ptr[v]; e < prov_ptr[v + 1]; e++) {
            if ((got = sbgp_offer(prov_idx[e], CLS_CUSTOMER, l[v] + 1, c, l, &cands)) > 0)
                seq[end++] = prov_idx[e];
            over |= got < 0;
        }
    }
    const int64_t cone = end;
    /* pass 2: one peer hop off the cone, nearest level first */
    for (int64_t i = 0; i < cone; i++) {
        const int32_t v = seq[i];
        for (int64_t e = peer_ptr[v]; e < peer_ptr[v + 1]; e++) {
            if ((got = sbgp_offer(peer_idx[e], CLS_PEER, l[v] + 1, c, l, &cands)) > 0)
                seq[end++] = peer_idx[e];
            over |= got < 0;
        }
    }
    const int64_t peers = end;
    /* pass 3: provider routes down customer edges, by increasing
     * length */
    int64_t a = 0, b = cone, p = peers;
    int32_t deepest = 0;
    while (a < cone || b < peers || p < end) {
        const int32_t la = a < cone ? l[seq[a]] : -1;
        const int32_t lb = b < peers ? l[seq[b]] : -1;
        const int32_t lp = p < end ? l[seq[p]] : -1;
        int32_t v;
        if (la >= 0 && (lb < 0 || la <= lb) && (lp < 0 || la <= lp))
            v = seq[a++];
        else if (lb >= 0 && (lp < 0 || lb <= lp))
            v = seq[b++];
        else
            v = seq[p++];
        deepest = l[v];
        for (int64_t e = cust_ptr[v]; e < cust_ptr[v + 1]; e++) {
            if ((got = sbgp_offer(cust_idx[e], CLS_PROVIDER, deepest + 1, c, l, &cands)) > 0)
                seq[end++] = cust_idx[e];
            over |= got < 0;
        }
    }
    if (over)
        return 1;
    g->sizes[row * 3] = end;
    g->sizes[row * 3 + 1] = deepest + 2;
    g->sizes[row * 3 + 2] = cands;
    return 0;
}

int sbgp_structure_labels(
    int64_t threads, int64_t rows, int64_t n, const int64_t *dests,
    const int64_t *cust_ptr, const int32_t *cust_idx,
    const int64_t *peer_ptr, const int32_t *peer_idx,
    const int64_t *prov_ptr, const int32_t *prov_idx,
    int8_t *cls, int8_t *len, int64_t *sizes)
{
    const sbgp_labels g = {n, dests, cust_ptr, cust_idx, peer_ptr, peer_idx,
                     prov_ptr, prov_idx, cls, len, sizes};
    return sbgp_run(sbgp_labels_row, &g, sizeof g, rows, (size_t)n * sizeof(int32_t), threads);
}

/* The pools of a destination chunk, from its labels, into pools sized
 * exactly by sbgp_structure_labels (order_ptr / level_ptr / cand_ptr are
 * the offsets of its sizes; row k's indptr run starts at order_ptr[k] +
 * k).  Per row: its rows by (length, node) -- counted by length, placed
 * in node order, which leaves each level_starts entry where the next
 * length starts, then shifted back -- and each row's tiebreak set,
 * pulled in segment order from the one CSR its class allows: the
 * graph's CSRs with every segment in tie-break order (tree.tie_ordered),
 * so each set comes out in it. */
typedef struct {
    int64_t n;
    const int64_t *cust_ptr;
    const int32_t *cust_idx;
    const int64_t *peer_ptr;
    const int32_t *peer_idx;
    const int64_t *prov_ptr;
    const int32_t *prov_idx;
    const int8_t *cls, *len;
    const int64_t *order_ptr, *level_ptr, *cand_ptr;
    int32_t *row_of, *order_pool, *level_pool, *indptr_pool, *cands_pool;
} sbgp_pools;

static int sbgp_pools_row(void *args, char *scratch, int64_t row)
{
    const sbgp_pools *g = args;
    const int64_t n = g->n;
    const int64_t *cust_ptr = g->cust_ptr, *peer_ptr = g->peer_ptr, *prov_ptr = g->prov_ptr;
    const int32_t *cust_idx = g->cust_idx, *peer_idx = g->peer_idx, *prov_idx = g->prov_idx;
    (void)scratch;
    const int8_t *c = g->cls + row * n;
    const int8_t *l = g->len + row * n;
    int32_t *ro = g->row_of + row * n;
    int32_t *order = g->order_pool + g->order_ptr[row];
    const int64_t reach = g->order_ptr[row + 1] - g->order_ptr[row];
    int32_t *starts = g->level_pool + g->level_ptr[row];
    const int64_t levels = g->level_ptr[row + 1] - g->level_ptr[row];
    int32_t *indptr = g->indptr_pool + g->order_ptr[row] + row;
    int32_t *cands = g->cands_pool + g->cand_ptr[row];
    for (int64_t i = 0; i < levels; i++)
        starts[i] = 0;
    for (int64_t u = 0; u < n; u++)
        if (l[u] >= 0)
            starts[l[u] + 1]++;
    for (int64_t i = 1; i < levels; i++)
        starts[i] += starts[i - 1];
    for (int64_t u = 0; u < n; u++) {
        if (l[u] < 0) {
            ro[u] = -1;
        } else {
            const int32_t r = starts[l[u]]++;
            order[r] = (int32_t)u;
            ro[u] = r;
        }
    }
    for (int64_t i = levels - 1; i > 0; i--)
        starts[i] = starts[i - 1];
    starts[0] = 0;
    /* customers or peers whose route they export to u (a customer
     * route, or the destination's own), providers with any route --
     * one hop shorter all */
    int64_t pos = 0;
    indptr[0] = 0;
    for (int64_t r = 0; r < reach; r++) {
        const int32_t u = order[r];
        const int8_t cu = c[u];
        if (cu != CLS_SELF) {
            const int64_t *ptr = cu == CLS_CUSTOMER ? cust_ptr
                : cu == CLS_PEER ? peer_ptr : prov_ptr;
            const int32_t *idx = cu == CLS_CUSTOMER ? cust_idx
                : cu == CLS_PEER ? peer_idx : prov_idx;
            const int32_t want = l[u] - 1;
            for (int64_t e = ptr[u]; e < ptr[u + 1]; e++) {
                const int32_t v = idx[e];
                if (l[v] == want && (cu == CLS_PROVIDER ||
                                     c[v] == CLS_CUSTOMER || c[v] == CLS_SELF))
                    cands[pos++] = v;
            }
        }
        indptr[r + 1] = (int32_t)pos;
    }
    return 0;
}

int sbgp_structure_pools(
    int64_t threads, int64_t rows, int64_t n,
    const int64_t *cust_ptr, const int32_t *cust_idx,
    const int64_t *peer_ptr, const int32_t *peer_idx,
    const int64_t *prov_ptr, const int32_t *prov_idx,
    const int8_t *cls, const int8_t *len,
    const int64_t *order_ptr, const int64_t *level_ptr, const int64_t *cand_ptr,
    int32_t *row_of, int32_t *order_pool, int32_t *level_pool,
    int32_t *indptr_pool, int32_t *cands_pool)
{
    const sbgp_pools g = {n, cust_ptr, cust_idx, peer_ptr, peer_idx, prov_ptr, prov_idx,
                    cls, len, order_ptr, level_ptr, cand_ptr,
                    row_of, order_pool, level_pool, indptr_pool, cands_pool};
    return sbgp_run(sbgp_pools_row, &g, sizeof g, rows, 0, threads);
}
"""


def _cache_dir() -> Path:
    override = os.environ.get("SBGP_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "sbgp-kernels"


#: The compile command less the compiler and the file names.  It is
#: digested with the source: an artifact built with other flags (say,
#: without ``-pthread``) is never reused.
_CFLAGS = ("-O3", "-shared", "-fPIC", "-std=c99", "-pthread")


def _build_shared_object() -> Path:
    """Compile (or reuse) the kernels; returns the cached ``.so`` path."""
    command = "\0".join(_CFLAGS)
    digest = hashlib.blake2b(
        f"{command}\0\0{_C_SOURCE}".encode(), digest_size=12
    ).hexdigest()
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
        cmd = [cc, *_CFLAGS, "-o", str(out), str(src)]
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
    # Each kernel takes the threads it may run first, then (rows, n).
    # (batch, n) then pointers: the slots, the pools, each state mask
    # with its stride, the output rows, the outputs, the node weights and
    # w (NULL-able)
    lib.sbgp_trees_stacked.argtypes = (
        [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 9
        + [ctypes.c_void_p, ctypes.c_int64] * 2 + [ctypes.c_void_p] * 6
    )
    lib.sbgp_weights_stacked.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 8
    # (chunk, n), the edge table ... attacker, leak, pins, cap, the
    # labels, stats and tied
    lib.sbgp_jacobi_converge.argtypes = (
        [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 11
        + [ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64] + [ctypes.c_void_p] * 6
    )
    # (rows, n), the destinations, the three CSRs, the labels and sizes
    lib.sbgp_structure_labels.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 10
    # (rows, n), the three CSRs, the labels, the offset tables, the pools
    lib.sbgp_structure_pools.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 16
    # -1: no scratch memory; structure_labels' 1 + row: a route toward
    # that row's destination is too long for the int8 lengths
    for kernel in (lib.sbgp_trees_stacked, lib.sbgp_weights_stacked,
                   lib.sbgp_jacobi_converge, lib.sbgp_structure_labels,
                   lib.sbgp_structure_pools):
        kernel.restype = ctypes.c_int
    return lib


_LIB = _load_library()

_I64 = ctypes.c_int64

#: The CPUs this process may run on, read once: no call runs more
#: threads than these.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

#: Entries of work (rows x what a row reads at least once) that pay for
#: one thread beyond the caller's: a call starts one more per whole
#: floor, up to ``_CPUS``.  Measured on the tree call with weights, the
#: cheapest kernel per entry (module docstring).
_ROW_FLOOR = 32_768


def _threads(rows: int, width: int) -> _I64:
    """The threads a call over ``rows`` rows of ``width`` entries each
    runs on."""
    return _I64(min(_CPUS, 1 + rows * width // _ROW_FLOOR))


def _ptr(array: np.ndarray, dtype: type) -> ctypes.c_void_p:
    """Checked pointer: exact dtype + C-contiguity, or a loud error."""
    if array.dtype != np.dtype(dtype) or not array.flags.c_contiguous:
        raise TypeError(
            f"cext kernel expects C-contiguous {np.dtype(dtype)}, got "
            f"{array.dtype} (contiguous={array.flags.c_contiguous})"
        )
    return ctypes.c_void_p(array.ctypes.data)


def _check_pools(ptrs: tuple, pools: tuple) -> int:
    """Every offset table must be ``num_dests + 1`` long and close where
    its pool ends; returns ``num_dests``."""
    num_dests = len(ptrs[0]) - 1
    if num_dests < 0 or any(
        len(ptr) != num_dests + 1 or ptr[-1] != len(pool)
        for ptr, pool in zip(ptrs, pools)
    ):
        raise ValueError("cext kernel: pools out of step")
    return num_dests


#: Checked pointers into what is never written once built — an arena's
#: pools, a graph's edge table — bound on first use and kept while those
#: arrays live: a call then checks and binds only its own arguments.
_BOUND = _PoolMemo()


def _bound_pools(ptrs: tuple, pools: tuple) -> tuple[int, list[ctypes.c_void_p]]:
    """``(num_dests, pointers)`` of an arena's offset tables (int64) and
    pools (int32), checked once per arena; the pointers interleave them,
    ``ptrs[0], pools[0], ptrs[1], ...``, as the kernels take them."""
    def bind():
        num_dests = _check_pools(ptrs, pools)
        return num_dests, [
            p for ptr, pool in zip(ptrs, pools)
            for p in (_ptr(ptr, np.int64), _ptr(pool, np.int32))
        ]

    return _BOUND.get((*ptrs, *pools), bind, "pools")


def _check_batch(slots: np.ndarray, n: int, num_dests: int, *per_row: np.ndarray) -> None:
    """The batch must name slots of the arena, and every per-``(batch
    row, node)`` array must hold ``len(slots) * n`` entries."""
    if any(len(a) != len(slots) * n for a in per_row):
        raise ValueError("cext kernel: pools out of step")
    if len(slots) and (slots.min() < 0 or slots.max() >= num_dests):
        raise ValueError("cext kernel: slot outside the arena")


def _check_rows(slots: np.ndarray, rows: np.ndarray, n: int, *outputs: np.ndarray) -> None:
    """One output row per batch row, inside the ``[rows, n]`` outputs,
    which must all be that long."""
    size = len(outputs[0])
    if len(rows) != len(slots) or (n and size % n) or any(len(a) != size for a in outputs):
        raise ValueError("cext kernel: output rows out of step")
    if len(rows) and (rows.min() < 0 or (rows.max() + 1) * n > size):
        raise ValueError("cext kernel: output row outside the outputs")


def trees_stacked(slots, n, order_ptr, order_pool, level_ptr, level_pool,
                  indptr_ptr, indptr_pool, cand_ptr, cands_pool,
                  secure_rows, secp_rows, rows, choice, secure, any_secure,
                  node_weights=None, w=None):
    """Resolve each batch row's tree over its slot's pools into its output
    row, in place, and with ``node_weights`` and ``w`` its subtree
    weights, in one C call."""
    num_dests, pools = _bound_pools(
        (order_ptr, level_ptr, indptr_ptr, cand_ptr),
        (order_pool, level_pool, indptr_pool, cands_pool),
    )
    _check_batch(slots, n, num_dests)
    _check_rows(slots, rows, n, choice, secure, any_secure)
    strides = [mask_stride(mask, len(slots), n) for mask in (secure_rows, secp_rows)]
    if (node_weights is None) != (w is None):
        raise ValueError("cext kernel: node_weights and w come together")
    weights = (None, None)
    if w is not None:
        if len(w) != len(choice) or len(node_weights) != n:
            raise ValueError("cext kernel: weights out of step")
        weights = (_ptr(node_weights, np.float64), _ptr(w, np.float64))
    status = _LIB.sbgp_trees_stacked(
        _threads(len(slots), n), _I64(len(slots)), _I64(n), _ptr(slots, np.int64), *pools,
        _ptr(secure_rows, np.bool_), _I64(strides[0]),
        _ptr(secp_rows, np.bool_), _I64(strides[1]), _ptr(rows, np.int64),
        _ptr(choice, np.int32), _ptr(secure, np.bool_),
        _ptr(any_secure, np.bool_), *weights,
    )
    if status:
        raise MemoryError(f"cext kernel: no scratch for a level of {n} rows")


def weights_stacked(slots, n, order_ptr, order_pool, level_ptr, level_pool,
                    choice, node_weights, w):
    """Push subtree weights up to the chosen parents, deepest level first."""
    num_dests, pools = _bound_pools((order_ptr, level_ptr), (order_pool, level_pool))
    _check_batch(slots, n, num_dests, choice, w)
    if len(node_weights) != n:
        raise ValueError("cext kernel: pools out of step")
    status = _LIB.sbgp_weights_stacked(
        _threads(len(slots), n), _I64(len(slots)), _I64(n),
        _ptr(slots, np.int64), *pools, _ptr(choice, np.int32),
        _ptr(node_weights, np.float64), _ptr(w, np.float64),
    )
    if status:
        raise MemoryError("cext kernel: no scratch for the row threads")


def _bound_table(v, route_cls, node_ptr, lp_field, rev_ptr, rev_seg, rev_edge):
    """``(n, num_edges, pointers)`` of a graph's edge table, checked once
    per table: its offsets must close where its per-edge arrays end, and
    ``rev_edge`` must name its edges — the C code indexes with it, so an
    edge outside the table reads (and a reverse slot queues) memory it
    does not own."""
    def bind():
        num_edges = len(v)
        n = len(node_ptr) - 1
        if (
            n < 0 or len(rev_ptr) != n + 1
            or node_ptr[-1] != num_edges or rev_ptr[-1] != num_edges
            or any(len(a) != num_edges for a in (route_cls, lp_field, rev_seg, rev_edge))
        ):
            raise ValueError("cext kernel: edge table out of step")
        if num_edges and (rev_edge.min() < 0 or rev_edge.max() >= num_edges):
            raise ValueError("cext kernel: reverse edge outside the table")
        return n, num_edges, (
            _ptr(v, np.int32), _ptr(route_cls, np.int8), _ptr(node_ptr, np.int64),
            _ptr(lp_field, np.uint32), _ptr(rev_ptr, np.int64),
            _ptr(rev_seg, np.int32), _ptr(rev_edge, np.int64),
        )

    table = (v, route_cls, node_ptr, lp_field, rev_ptr, rev_seg, rev_edge)
    return _BOUND.get(table, bind, "edges")


def jacobi_converge(v, route_cls, node_ptr, lp_field, rev_ptr, rev_seg,
                    rev_edge, edge_flags, rank_shifts, node_secure, attacker,
                    leak, pins, cap, cls, length, sec, att, stats, tied=None):
    """Converge every row of the chunk in place, each in one pass of C
    over its frontier sweeps, to the contract of
    ``numpy_impl.jacobi_converge``: the same labels and ``tied`` and, on
    a chunk that converges, the same sweeps per row.  ``decisions``
    counts the nodes the frontier re-decided: after the first sweep,
    only the readers of a node the sweep before changed (on a blank
    row's first sweep, its pins and their readers)."""
    n, num_edges, table = _bound_table(
        v, route_cls, node_ptr, lp_field, rev_ptr, rev_seg, rev_edge
    )
    chunk = len(attacker)
    if len(edge_flags) != num_edges or len(node_secure) != n or len(rank_shifts) != 3:
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
        _threads(chunk, num_edges), chunk, n, *table, _ptr(edge_flags, np.uint8),
        _ptr(rank_shifts, np.int64), _ptr(node_secure, np.bool_),
        _ptr(attacker, np.int64), int(leak), _ptr(pins, np.int64), int(cap),
        _ptr(cls, np.int8), _ptr(length, np.int32), _ptr(sec, np.bool_),
        _ptr(att, np.bool_), _ptr(stats, np.int64),
        None if tied is None else _ptr(tied, np.bool_),
    )
    if status:
        raise MemoryError(f"cext kernel: no scratch for a sweep over {n} nodes")


def _csr_ptrs(cg, idx=None) -> list[ctypes.c_void_p]:
    """The graph's three CSRs as pointers, checked against each other:
    its ``*_indptr`` tables over its own index arrays or over ``idx``
    (customer, peer, provider)."""
    n = cg.n
    csr = tuple(zip(
        (cg.cust_indptr, cg.peer_indptr, cg.prov_indptr),
        idx or (cg.cust_idx, cg.peer_idx, cg.prov_idx),
    ))
    ptrs = [p for indptr, idx in csr for p in (_ptr(indptr, np.int64), _ptr(idx, np.int32))]
    if any(len(indptr) != n + 1 or indptr[0] != 0 or indptr[-1] != len(idx)
           for indptr, idx in csr):
        raise ValueError("cext kernel: CSR out of step with the graph")
    return ptrs


def _edge_count(cg) -> int:
    """The graph's directed edges: what a structure row reads at least
    once."""
    return len(cg.cust_idx) + len(cg.peer_idx) + len(cg.prov_idx)


def structure_labels(cg, dests, cls, length, sizes):
    """Passes 1-3 of the chunk ``dests`` into its ``[rows, n]`` labels
    (int8 ``cls`` and ``lengths``: a route past ``MAX_ROUTE_LENGTH`` hops
    raises ``RouteTooLongError``), in place, and each row's pool sizes
    into ``sizes`` (reachable nodes, level_starts entries, candidates),
    in one C call."""
    n = cg.n
    graph = _csr_ptrs(cg)
    chunk = _ptr(dests, np.int64)
    if dests.ndim != 1 or len(dests) and (dests.min() < 0 or dests.max() >= n):
        raise ValueError("cext kernel: destination outside the graph")
    rows = len(dests)
    if cls.shape != (rows, n) or length.shape != (rows, n) or sizes.shape != (rows, 3):
        raise ValueError("cext kernel: labels are not [rows, n]")
    status = _LIB.sbgp_structure_labels(
        _threads(rows, _edge_count(cg)), _I64(rows), _I64(n), chunk, *graph,
        _ptr(cls, np.int8), _ptr(length, np.int8), _ptr(sizes, np.int64),
    )
    if status > 0:
        raise route_too_long(int(dests[status - 1]))
    if status:
        raise MemoryError(f"cext kernel: no scratch for a walk over {n} nodes")


def structure_pools(cg, arrays):
    """A chunk's pools from its labels, into ``arrays`` (its 12 fields,
    the offset tables its own, starting at 0: its own arrays, or its
    slices of the arena's), in one C call over the graph's tie-ordered
    CSRs."""
    n = cg.n
    graph = _csr_ptrs(cg, tie_ordered(cg))
    order_ptr = arrays["order_ptr"]
    rows = len(order_ptr) - 1
    if rows < 0 or any(arrays[name].shape != (rows, n) for name in ("cls", "lengths", "row_of")):
        raise ValueError("cext kernel: labels are not [rows, n]")
    _check_pools(
        (order_ptr, arrays["level_ptr"], arrays["cand_ptr"]),
        (arrays["order_pool"], arrays["level_pool"], arrays["cands_pool"]),
    )
    if len(arrays["indptr_pool"]) != order_ptr[-1] + rows:
        raise ValueError("cext kernel: pools out of step")
    status = _LIB.sbgp_structure_pools(
        _threads(rows, _edge_count(cg)), _I64(rows), _I64(n), *graph,
        _ptr(arrays["cls"], np.int8), _ptr(arrays["lengths"], np.int8),
        *(_ptr(arrays[name], np.int64) for name in ("order_ptr", "level_ptr", "cand_ptr")),
        _ptr(arrays["row_of"], np.int32), _ptr(arrays["order_pool"], np.int32),
        _ptr(arrays["level_pool"], np.int32), _ptr(arrays["indptr_pool"], np.int32),
        _ptr(arrays["cands_pool"], np.int32),
    )
    if status:
        raise MemoryError("cext kernel: no scratch for the row threads")


def build_structures(cg, dests):
    """The 12 pooled fields of the chunk ``dests``, in two C calls: the
    labels, which size every pool, then the pools — byte for byte those
    of ``numpy_impl.build_structures``."""
    return PoolsAssembly.labelled(cg, dests, sys.modules[__name__])
