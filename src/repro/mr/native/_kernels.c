/* Native kernel tier for the Δ-growing hot paths and CL-DIAM's final
 * quotient-diameter step.
 *
 * Compiled on demand by repro.mr.native.build (cc -O3 -fPIC -shared) and
 * loaded through ctypes; every entry point is a plain C function over
 * int64 / float64 / uint8 buffers so the Python wrappers can hand numpy
 * array pointers straight through (ctypes releases the GIL for the
 * duration of each call, which is what lets the threaded emit path run
 * chunks concurrently from a ThreadPoolExecutor).
 *
 * Parity contract: each kernel computes bit-for-bit what its NumPy
 * counterpart computes — same IEEE double arithmetic (one add per
 * candidate), same strict-less lexicographic tie-breaks, same output
 * ordering (ascending ids from a qsort over the touched list; push
 * candidates in source-major CSR order; pull candidates in arc order).
 * The pure tier stays the oracle: tests/mr/test_native_kernels.py pits
 * every function here against it.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef uint8_t u8;

/* The pull kernels stream arcs sequentially but gather per-source
 * state through indices[a] — a dependent random access that stalls the
 * whole loop.  indices itself streams, so the gather address is known
 * well ahead: prefetching it ~64 arcs out overlaps the misses. */
#if defined(__GNUC__) || defined(__clang__)
#define RK_PREFETCH(p) __builtin_prefetch((p), 0, 1)
#define RK_PREFETCH_W(p) __builtin_prefetch((p), 1, 1)
#else
#define RK_PREFETCH(p) ((void)0)
#define RK_PREFETCH_W(p) ((void)0)
#endif
#define RK_PF_DIST 64

static int cmp_i64(const void *pa, const void *pb)
{
    i64 a = *(const i64 *)pa, b = *(const i64 *)pb;
    return (a > b) - (a < b);
}

/* Winner row per distinct id under the (c0, c1, c2, arrival) tie-break.
 *
 * Single pass with generation-stamped dense buffers: `stamp[id] == gen`
 * marks ids seen this call, so the domain-sized scratch never needs a
 * reset.  Columns are strided (element strides s0/s1/s2) so 2-D column
 * views pass through without a copy.  Writes the distinct ids
 * (ascending) into out_ids and their winner rows into out_rows; returns
 * the distinct count.  Matches kernels.scatter_min_rows: the strict
 * "less" comparison keeps the earliest row among full ties.
 */
i64 rk_scatter_min_rows(
    const i64 *ids, i64 n,
    const double *c0, i64 s0,
    const double *c1, i64 s1,
    const double *c2, i64 s2,
    i64 ncols,
    double *b0, double *b1, double *b2,
    i64 *brow, i64 *stamp, i64 gen,
    i64 *out_ids, i64 *out_rows)
{
    i64 t = 0;
    for (i64 i = 0; i < n; ++i) {
        if (i + RK_PF_DIST < n)
            RK_PREFETCH_W(&stamp[ids[i + RK_PF_DIST]]);
        i64 id = ids[i];
        if (stamp[id] != gen) {
            stamp[id] = gen;
            out_ids[t++] = id;
            if (ncols > 0) b0[id] = c0[i * s0];
            if (ncols > 1) b1[id] = c1[i * s1];
            if (ncols > 2) b2[id] = c2[i * s2];
            brow[id] = i;
            continue;
        }
        if (ncols > 0) {
            double v = c0[i * s0];
            if (v > b0[id]) continue;
            if (v < b0[id]) goto take;
        }
        if (ncols > 1) {
            double v = c1[i * s1];
            if (v > b1[id]) continue;
            if (v < b1[id]) goto take;
        }
        if (ncols > 2) {
            double v = c2[i * s2];
            if (v > b2[id]) continue;
            if (v < b2[id]) goto take;
        }
        continue; /* full tie: the earlier arrival stays */
    take:
        if (ncols > 0) b0[id] = c0[i * s0];
        if (ncols > 1) b1[id] = c1[i * s1];
        if (ncols > 2) b2[id] = c2[i * s2];
        brow[id] = i;
    }
    qsort(out_ids, (size_t)t, sizeof(i64), cmp_i64);
    for (i64 j = 0; j < t; ++j)
        out_rows[j] = brow[out_ids[j]];
    return t;
}

/* Counting shuffle: histogram bounded keys into `hist` (all-zero on
 * entry, restored to all-zero on exit), emitting the distinct keys
 * ascending plus their counts.  Returns the distinct count. */
i64 rk_count_keys(
    const i64 *keys, i64 n, i64 *hist, i64 *out_keys, i64 *out_counts)
{
    i64 t = 0;
    for (i64 i = 0; i < n; ++i) {
        if (i + RK_PF_DIST < n)
            RK_PREFETCH_W(&hist[keys[i + RK_PF_DIST]]);
        i64 k = keys[i];
        if (hist[k]++ == 0)
            out_keys[t++] = k;
    }
    qsort(out_keys, (size_t)t, sizeof(i64), cmp_i64);
    for (i64 j = 0; j < t; ++j) {
        out_counts[j] = hist[out_keys[j]];
        hist[out_keys[j]] = 0;
    }
    return t;
}

/* Plain bincount accumulation (hist is NOT reset). */
void rk_bincount(const i64 *keys, i64 n, i64 *hist)
{
    for (i64 i = 0; i < n; ++i) {
        if (i + RK_PF_DIST < n)
            RK_PREFETCH_W(&hist[keys[i + RK_PF_DIST]]);
        hist[keys[i]] += 1;
    }
}

/* Fused push expansion + light/Δ filter (EmitScratch._emit_push).
 * Expands src_ids (any contiguous chunk) through their CSR rows,
 * keeping arcs with w <= delta and eff + w <= delta.  Output order is
 * source-major, arcs in CSR order — the legacy arrival order.  Output
 * pointers may be pre-offset for disjoint per-chunk regions; returns
 * the rows written. */
i64 rk_emit_push(
    const i64 *indptr, const i64 *indices, const double *weights,
    const i64 *src_ids, const double *eff, i64 nsrc, double delta,
    i64 *out_keys, double *out_nd, i64 *out_src, i64 *out_aidx)
{
    i64 t = 0;
    for (i64 s = 0; s < nsrc; ++s) {
        i64 u = src_ids[s];
        double e = eff[s];
        i64 hi = indptr[u + 1];
        for (i64 a = indptr[u]; a < hi; ++a) {
            double w = weights[a];
            if (w > delta)
                continue;
            double nd = e + w;
            if (nd > delta)
                continue;
            out_keys[t] = indices[a];
            out_nd[t] = nd;
            out_src[t] = u;
            out_aidx[t] = a;
            ++t;
        }
    }
    return t;
}

/* Fused pull expansion over the arc range [lo, hi) of the reverse CSR
 * (EmitScratch._emit_pull's local-target block): keep arcs whose source
 * is marked in the dense mask, with the same light/Δ filter.  Arc-major
 * order == target-major with ascending sources per target. */
i64 rk_emit_pull(
    const i64 *arc_rows, const i64 *indices, const double *weights,
    i64 lo, i64 hi,
    const u8 *mask, const double *eff, double delta, i64 base,
    i64 *out_keys, double *out_nd, i64 *out_src, i64 *out_aidx)
{
    i64 t = 0;
    for (i64 a = lo; a < hi; ++a) {
        if (a + RK_PF_DIST < hi)
            RK_PREFETCH(&mask[indices[a + RK_PF_DIST]]);
        i64 s = indices[a];
        if (!mask[s])
            continue;
        double w = weights[a];
        if (w > delta)
            continue;
        double nd = eff[s] + w;
        if (nd > delta)
            continue;
        out_keys[t] = arc_rows[a] + base;
        out_nd[t] = nd;
        out_src[t] = s - base;
        out_aidx[t] = a;
        ++t;
    }
    return t;
}

/* Order-preserving compaction of the threaded emit's disjoint chunk
 * regions: chunk c wrote counts[c] rows starting at bases[c] (bases
 * ascend and regions never overlap their final position from the
 * left), so a forward memmove per column packs the candidate block
 * contiguously while keeping chunk order — the result is bit-identical
 * to a single-threaded pass.  Returns the total row count. */
i64 rk_compact(
    i64 *keys, double *nd, i64 *src, i64 *aidx,
    const i64 *bases, const i64 *counts, i64 nchunks)
{
    i64 pos = counts[0];
    for (i64 c = 1; c < nchunks; ++c) {
        i64 b = bases[c], n = counts[c];
        if (n && b != pos) {
            memmove(keys + pos, keys + b, (size_t)n * sizeof(i64));
            memmove(nd + pos, nd + b, (size_t)n * sizeof(double));
            memmove(src + pos, src + b, (size_t)n * sizeof(i64));
            memmove(aidx + pos, aidx + b, (size_t)n * sizeof(i64));
        }
        pos += n;
    }
    return pos;
}

/* The improvement pre-filter + column materialization of
 * EmitScratch._finish: keep rows whose target is open and strictly
 * improved, gathering w (from the arc index), the source's center and
 * the float source column in the same pass. */
i64 rk_filter_improve(
    const i64 *keys, const double *nd, const i64 *src, const i64 *aidx,
    i64 n,
    const double *dist, const u8 *frozen,
    const double *weights, const i64 *center,
    i64 *f_keys, double *f_nd, i64 *f_src,
    double *f_w, double *f_ctr, double *f_srcf)
{
    i64 t = 0;
    for (i64 i = 0; i < n; ++i) {
        if (i + RK_PF_DIST < n) {
            RK_PREFETCH(&frozen[keys[i + RK_PF_DIST]]);
            RK_PREFETCH(&dist[keys[i + RK_PF_DIST]]);
        }
        i64 k = keys[i];
        if (frozen[k])
            continue;
        double d = nd[i];
        if (!(d < dist[k]))
            continue;
        i64 s = src[i];
        f_keys[t] = k;
        f_nd[t] = d;
        f_src[t] = s;
        f_w[t] = weights[aidx[i]];
        f_ctr[t] = (double)center[s];
        f_srcf[t] = (double)s;
        ++t;
    }
    return t;
}

/* Fused batch finish (EmitScratch._finish): one stream over the
 * unfiltered candidate columns doing BOTH the accounting histogram
 * (stamped distinct-key collection, ascending like rk_count_keys, hist
 * restored to zero) and the improvement filter + materialization of
 * rk_filter_improve.  Replaces two full passes with one; do_acct == 0
 * skips the histogram half (ngroups untouched).  Returns the kept
 * count and writes the distinct-group count through ngroups. */
i64 rk_finish_batch(
    const i64 *keys, const double *nd, const i64 *src, const i64 *aidx,
    i64 n,
    const double *dist, const u8 *frozen,
    const double *weights, const i64 *center,
    i64 *hist, i64 *gk, i64 *gc, i64 do_acct, i64 *ngroups,
    i64 *f_keys, double *f_nd, i64 *f_src,
    double *f_w, double *f_ctr, double *f_srcf)
{
    i64 g = 0, t = 0;
    for (i64 i = 0; i < n; ++i) {
        if (i + RK_PF_DIST < n) {
            RK_PREFETCH(&frozen[keys[i + RK_PF_DIST]]);
            RK_PREFETCH(&dist[keys[i + RK_PF_DIST]]);
            if (do_acct)
                RK_PREFETCH_W(&hist[keys[i + RK_PF_DIST]]);
        }
        i64 k = keys[i];
        if (do_acct) {
            if (hist[k]++ == 0)
                gk[g++] = k;
        }
        double d = nd[i];
        if (frozen[k] || !(d < dist[k]))
            continue;
        i64 s = src[i];
        f_keys[t] = k;
        f_nd[t] = d;
        f_src[t] = s;
        f_w[t] = weights[aidx[i]];
        f_ctr[t] = (double)center[s];
        f_srcf[t] = (double)s;
        ++t;
    }
    if (do_acct) {
        qsort(gk, (size_t)g, sizeof(i64), cmp_i64);
        for (i64 j = 0; j < g; ++j) {
            gc[j] = hist[gk[j]];
            hist[gk[j]] = 0;
        }
        *ngroups = g;
    }
    return t;
}

/* Per-stage state reset (ArrayGrowingState.begin_stage): one pass over
 * the live (non-frozen) rows resets all five state columns, replacing
 * five masked copyto sweeps.  NO_CENTER == -1. */
void rk_begin_stage(
    const u8 *frozen, i64 n,
    i64 *center, double *dist, double *dacc, u8 *changed,
    i64 *frozen_iter)
{
    const double inf = 1.0 / 0.0;
    for (i64 i = 0; i < n; ++i) {
        if (frozen[i])
            continue;
        center[i] = -1;
        dist[i] = inf;
        dacc[i] = inf;
        changed[i] = 0;
        frozen_iter[i] = 0;
    }
}

/* Freeze sweep (ArrayGrowingState.freeze_assigned): freeze every
 * assigned live row in one pass; returns the freshly-frozen count. */
i64 rk_freeze_assigned(
    const i64 *center, i64 n, i64 iteration,
    u8 *frozen, u8 *changed, i64 *frozen_iter)
{
    i64 cnt = 0;
    for (i64 i = 0; i < n; ++i) {
        if (center[i] == -1 || frozen[i])
            continue;
        frozen[i] = 1;
        changed[i] = 0;
        frozen_iter[i] = iteration;
        ++cnt;
    }
    return cnt;
}

/* Forced-round emitting sets (EmitScratch._forced_sets, rescale == 0):
 * mask = assigned && eff < delta, eff = frozen ? 0 : dist, plus the
 * emitting frontier's degree sum — one pass instead of five masked
 * array sweeps.  degs is the per-row degree column. */
i64 rk_forced_sets(
    const i64 *center, const double *dist, const u8 *frozen,
    const i64 *degs, i64 n, double delta,
    u8 *mask, double *eff)
{
    i64 degree_sum = 0;
    for (i64 i = 0; i < n; ++i) {
        double e = frozen[i] ? 0.0 : dist[i];
        eff[i] = e;
        u8 m = (center[i] != -1) && (e < delta);
        mask[i] = m;
        if (m)
            degree_sum += degs[i];
    }
    return degree_sum;
}

/* Frozen-emission cache append (EmitScratch._cache_update step 1):
 * filter freshly-frozen emissions to locally-owned targets, add their
 * histogram mass, and append them at position pos of the preallocated
 * cache columns.  Returns the appended count (rows outside [lo, hi)
 * are the caller's inert count). */
i64 rk_cache_append(
    const i64 *k, const i64 *s, const i64 *a, i64 n,
    i64 lo, i64 hi, i64 *hist,
    i64 *ck, i64 *cs, i64 *ca, i64 pos)
{
    i64 t = pos;
    for (i64 i = 0; i < n; ++i) {
        i64 key = k[i];
        if (key < lo || key >= hi)
            continue;
        hist[key - lo] += 1;
        ck[t] = key;
        cs[t] = s[i];
        ca[t] = a[i];
        ++t;
    }
    return t - pos;
}

/* Fused frozen-source expansion straight into the cache columns: a
 * frozen source emits at effective distance 0, so nd == w and the
 * light and Δ tests coincide.  Owned targets ([lo, hi)) append at
 * `pos` and count into `hist`; returns the appended count, with
 * *total_out the full emitted multiset size (for inert accounting). */
i64 rk_cache_emit(
    const i64 *indptr, const i64 *indices, const double *weights,
    const i64 *src_ids, i64 nsrc, double delta, i64 lo, i64 hi,
    i64 *hist, i64 *ck, i64 *cs, i64 *ca, i64 pos, i64 *total_out)
{
    i64 t = pos;
    i64 total = 0;
    for (i64 s = 0; s < nsrc; ++s) {
        i64 u = src_ids[s];
        i64 end = indptr[u + 1];
        for (i64 a = indptr[u]; a < end; ++a) {
            if (weights[a] > delta)
                continue;
            ++total;
            i64 key = indices[a];
            if (key < lo || key >= hi)
                continue;
            hist[key - lo] += 1;
            ck[t] = key;
            cs[t] = u;
            ca[t] = a;
            ++t;
        }
    }
    *total_out = total;
    return t - pos;
}

/* Critical-path accounting (MREngine.account_batch_round): hash-route
 * every group key to its simulated worker (the exact Fibonacci mix of
 * repro.mr.partitioner.hash_partition_array) and accumulate the
 * weighted load, returning the maximum.  `loads` is an all-zero
 * nworkers scratch, restored to all-zero on exit. */
i64 rk_partition_loads(
    const i64 *keys, i64 n, const i64 *w, i64 nworkers, i64 *loads)
{
    for (i64 i = 0; i < n; ++i) {
        uint64_t h = (uint64_t)keys[i];
        h ^= h >> 16;
        uint64_t p = ((h * 2654435761ULL) & 0xFFFFFFFFULL)
                     % (uint64_t)nworkers;
        loads[p] += w[i];
    }
    i64 mx = 0;
    for (i64 p = 0; p < nworkers; ++p) {
        if (loads[p] > mx)
            mx = loads[p];
        loads[p] = 0;
    }
    return mx;
}

/* Frozen-emission cache retire (step 2): drop rows whose target froze,
 * compacting the cache columns in place (order preserved).  Returns
 * the surviving length; the histogram keeps the retired rows' mass (it
 * accounts every cached row, inert included). */
i64 rk_cache_retire(
    i64 *ck, i64 *cs, i64 *ca, i64 n, const u8 *frozen, i64 lo)
{
    i64 t = 0;
    for (i64 i = 0; i < n; ++i) {
        if (i + RK_PF_DIST < n)
            RK_PREFETCH(&frozen[ck[i + RK_PF_DIST] - lo]);
        i64 key = ck[i];
        if (frozen[key - lo])
            continue;
        if (t != i) {
            ck[t] = key;
            cs[t] = cs[i];
            ca[t] = ca[i];
        }
        ++t;
    }
    return t;
}

/* Cache replay improvement filter (EmitScratch._emit_forced_cached):
 * a cached frozen emission's candidate distance is its arc weight;
 * keep rows that strictly improve their (open, by the retire pass)
 * target. */
i64 rk_cache_replay(
    const i64 *ck, const i64 *cs, const i64 *ca, i64 n,
    const double *weights, const double *dist,
    i64 *fk, double *fnd, i64 *fs, i64 *fa)
{
    i64 t = 0;
    for (i64 i = 0; i < n; ++i) {
        if (i + RK_PF_DIST < n) {
            RK_PREFETCH(&weights[ca[i + RK_PF_DIST]]);
            RK_PREFETCH(&dist[ck[i + RK_PF_DIST]]);
        }
        double w = weights[ca[i]];
        if (!(w < dist[ck[i]]))
            continue;
        fk[t] = ck[i];
        fnd[t] = w;
        fs[t] = cs[i];
        fa[t] = ca[i];
        ++t;
    }
    return t;
}

/* Gather the trailing candidate columns (w from the arc index, the
 * source's center, the float source) for already-filtered rows. */
void rk_materialize(
    const i64 *src, const i64 *aidx, i64 n,
    const double *weights, const i64 *center,
    double *w, double *ctr, double *srcf)
{
    for (i64 i = 0; i < n; ++i) {
        w[i] = weights[aidx[i]];
        ctr[i] = (double)center[src[i]];
        srcf[i] = (double)src[i];
    }
}

/* Serial-core push expansion (core.growing.delta_growing_step): the
 * core's filter semantics differ from EmitScratch — messages count
 * light arcs into open targets (Δ and improvement tests excluded),
 * candidates additionally need nd <= delta and nd < dist[target]. */
i64 rk_core_emit_push(
    const i64 *indptr, const i64 *indices, const double *weights,
    const i64 *srcs, const double *eff, i64 nsrc, double delta,
    const u8 *frozen, const double *dist,
    i64 *messages,
    i64 *cand_t, double *cand_d, i64 *cand_s, double *cand_w)
{
    i64 t = 0, msg = 0;
    for (i64 s = 0; s < nsrc; ++s) {
        i64 u = srcs[s];
        double e = eff[s];
        i64 hi = indptr[u + 1];
        for (i64 a = indptr[u]; a < hi; ++a) {
            double w = weights[a];
            if (w > delta)
                continue;
            i64 v = indices[a];
            if (frozen[v])
                continue;
            ++msg;
            double nd = e + w;
            if (nd > delta)
                continue;
            if (!(nd < dist[v]))
                continue;
            cand_t[t] = v;
            cand_d[t] = nd;
            cand_s[t] = u;
            cand_w[t] = w;
            ++t;
        }
    }
    *messages = msg;
    return t;
}

/* Serial-core pull expansion: stream every arc target-major through the
 * reverse CSR, testing the arc's source against the dense emitting
 * mask; same message/candidate semantics as rk_core_emit_push. */
i64 rk_core_emit_pull(
    const i64 *arc_rows, const i64 *indices, const double *weights,
    i64 narcs,
    const u8 *emitting, const double *effd, double delta,
    const u8 *frozen, const double *dist,
    i64 *messages,
    i64 *cand_t, double *cand_d, i64 *cand_s, double *cand_w)
{
    i64 t = 0, msg = 0;
    for (i64 a = 0; a < narcs; ++a) {
        if (a + RK_PF_DIST < narcs)
            RK_PREFETCH(&emitting[indices[a + RK_PF_DIST]]);
        i64 s = indices[a];
        if (!emitting[s])
            continue;
        double w = weights[a];
        if (w > delta)
            continue;
        i64 r = arc_rows[a];
        if (frozen[r])
            continue;
        ++msg;
        double nd = effd[s] + w;
        if (nd > delta)
            continue;
        if (!(nd < dist[r]))
            continue;
        cand_t[t] = r;
        cand_d[t] = nd;
        cand_s[t] = s;
        cand_w[t] = w;
        ++t;
    }
    *messages = msg;
    return t;
}

/* Quotient eccentricity (core.diameter.quotient_diameter): one
 * lazy-deletion binary-heap Dijkstra per source over an undirected CSR,
 * returning the largest finite distance any of them settles.
 *
 * Parity with scipy's csgraph Dijkstra: with positive weights every
 * correct label-setting SSSP reaches the same fixed point
 * dist[v] = min_u fl(dist[u] + w) (fl(x + w) is monotone in x and never
 * below x), so the distances — and their maximum — are bit-identical
 * whatever the heap's tie order.
 *
 * dist must be all +inf on entry.  With skip_reached set (the sweep),
 * sources already reached by an earlier source are skipped and nothing
 * is reset: each run covers exactly its own component, so walking the
 * nodes in (degree desc, index asc) order runs one Dijkstra per
 * component, from its highest-degree node.  Without it (exact mode)
 * only the nodes a source touched are reset to +inf before the next.
 * heap_d / heap_v need room for narcs + 1 entries (a push needs a
 * strict improvement, so each node is settled once and each arc pushes
 * at most once); touched needs n. */
double rk_quotient_ecc(
    const i64 *indptr, const i64 *indices, const double *weights,
    const i64 *sources, i64 nsources, i64 skip_reached,
    double *dist, i64 *touched, double *heap_d, i64 *heap_v)
{
    double best = 0.0;
    for (i64 s = 0; s < nsources; ++s) {
        i64 src = sources[s];
        if (skip_reached && dist[src] < INFINITY)
            continue;
        i64 ntouched = 1, size = 1;
        dist[src] = 0.0;
        touched[0] = src;
        heap_d[0] = 0.0;
        heap_v[0] = src;
        while (size > 0) {
            double d = heap_d[0];
            i64 u = heap_v[0];
            /* pop: move the last entry to the root and sift it down */
            --size;
            if (size > 0) {
                double ld = heap_d[size];
                i64 lv = heap_v[size];
                i64 i = 0;
                for (;;) {
                    i64 c = 2 * i + 1;
                    if (c >= size)
                        break;
                    if (c + 1 < size && heap_d[c + 1] < heap_d[c])
                        ++c;
                    if (!(heap_d[c] < ld))
                        break;
                    heap_d[i] = heap_d[c];
                    heap_v[i] = heap_v[c];
                    i = c;
                }
                heap_d[i] = ld;
                heap_v[i] = lv;
            }
            if (d > dist[u])
                continue; /* stale entry */
            if (d > best)
                best = d;
            i64 hi = indptr[u + 1];
            for (i64 a = indptr[u]; a < hi; ++a) {
                i64 v = indices[a];
                double nd = d + weights[a];
                if (!(nd < dist[v]))
                    continue;
                if (dist[v] == INFINITY)
                    touched[ntouched++] = v;
                dist[v] = nd;
                /* push: sift the new entry up from the end */
                i64 i = size++;
                while (i > 0) {
                    i64 p = (i - 1) / 2;
                    if (!(nd < heap_d[p]))
                        break;
                    heap_d[i] = heap_d[p];
                    heap_v[i] = heap_v[p];
                    i = p;
                }
                heap_d[i] = nd;
                heap_v[i] = v;
            }
        }
        if (!skip_reached)
            for (i64 t = 0; t < ntouched; ++t)
                dist[touched[t]] = INFINITY;
    }
    return best;
}
