/* Native kernel tier for the Δ-growing hot paths, CL-DIAM's final
 * quotient-diameter step and the lp partitioner's label propagation.
 *
 * Compiled on demand by repro.mr.native.build (cc -O3 -fPIC -shared) and
 * loaded through ctypes; every entry point is a plain C function over
 * int64 / float64 / uint8 buffers (plus the int32 lp partition sidecars)
 * so the Python wrappers can hand numpy
 * array pointers straight through (ctypes releases the GIL for the
 * duration of each call, which is what lets the threaded emit path run
 * chunks concurrently from a ThreadPoolExecutor).
 *
 * Parity contract: each kernel computes bit-for-bit what its NumPy
 * counterpart computes — same IEEE double arithmetic (one add per
 * candidate), same strict-less lexicographic tie-breaks, same output
 * ordering (ascending ids from an LSD radix sort of the touched list;
 * push candidates in source-major CSR order).
 * The pure tier stays the oracle: tests/mr/test_native_kernels.py pits
 * every function here against it.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef int32_t i32;
typedef uint8_t u8;

/* The candidate-stream kernels read their columns sequentially but
 * gather per-target state through keys[i] — a dependent random access
 * that stalls the whole loop.  The keys themselves stream, so the
 * gather address is known well ahead: prefetching it ~64 rows out
 * overlaps the misses. */
#if defined(__GNUC__) || defined(__clang__)
#define RK_PREFETCH(p) __builtin_prefetch((p), 0, 1)
#define RK_PREFETCH_W(p) __builtin_prefetch((p), 1, 1)
#else
#define RK_PREFETCH(p) ((void)0)
#define RK_PREFETCH_W(p) ((void)0)
#endif
#define RK_PF_DIST 64

/* +inf as a constant expression; <math.h> (INFINITY) is the costliest
 * header to parse, and the build is part of every cold start. */
#define RK_INF (1.0 / 0.0)

/* The simulated worker of a reducer key: the Fibonacci mix of
 * repro.mr.partitioner.hash_partition_array, bit for bit, so every
 * accounting kernel routes a key where the NumPy tier does. */
static inline i64 rk_worker_of(i64 key, i64 nworkers)
{
    uint64_t h = (uint64_t)key;
    h ^= h >> 16;
    return (i64)(((h * 2654435761ULL) & 0xFFFFFFFFULL) % (uint64_t)nworkers);
}

static int cmp_i64(const void *pa, const void *pb)
{
    i64 a = *(const i64 *)pa, b = *(const i64 *)pb;
    return (a > b) - (a < b);
}

/* LSD radix sort of n non-negative ids, all <= maxid, in
 * RK_RADIX_BITS-bit digits: one counting pass per digit of maxid, so
 * the cost is O(n) per pass and a batch of small ids sorts in one pass.
 * tmp (n entries) is the ping-pong space; returns whichever of a / tmp
 * holds the ascending result. */
#define RK_RADIX_BITS 11
#define RK_RADIX (1 << RK_RADIX_BITS)

static i64 *rk_radix_sort(i64 *a, i64 *tmp, i64 n, i64 maxid)
{
    i64 count[RK_RADIX];
    for (int shift = 0; shift < 64 && (maxid >> shift) > 0;
         shift += RK_RADIX_BITS) {
        memset(count, 0, sizeof count);
        for (i64 i = 0; i < n; ++i)
            count[(a[i] >> shift) & (RK_RADIX - 1)] += 1;
        i64 sum = 0;
        for (int d = 0; d < RK_RADIX; ++d) {
            i64 c = count[d];
            count[d] = sum;
            sum += c;
        }
        for (i64 i = 0; i < n; ++i)
            tmp[count[(a[i] >> shift) & (RK_RADIX - 1)]++] = a[i];
        i64 *swap = a;
        a = tmp;
        tmp = swap;
    }
    return a;
}

/* Winner row per distinct id under the (c0, c1, c2, arrival) tie-break.
 *
 * Single pass over one interleaved per-id table: tab[2 * id] is a
 * generation stamp (== gen marks ids seen this call, so the
 * domain-sized table never needs a reset) and tab[2 * id + 1] the
 * current winner row, whose own columns the incoming row is compared
 * against — one cache line per id instead of five dense arrays.
 * Columns are strided (element strides s0/s1/s2) so 2-D column views
 * pass through without a copy.  Writes the distinct ids (ascending)
 * into out_ids and their winner rows into out_rows, which doubles as
 * the radix sort's ping-pong space; returns the distinct count.
 * Matches kernels.scatter_min_rows: the strict "less" comparison keeps
 * the earliest row among full ties.
 */
i64 rk_scatter_min_rows(
    const i64 *ids, i64 n,
    const double *c0, i64 s0,
    const double *c1, i64 s1,
    const double *c2, i64 s2,
    i64 ncols, i64 *tab, i64 gen,
    i64 *out_ids, i64 *out_rows)
{
    i64 t = 0, maxid = 0;
    for (i64 i = 0; i < n; ++i) {
        if (i + RK_PF_DIST < n)
            RK_PREFETCH_W(&tab[2 * ids[i + RK_PF_DIST]]);
        i64 id = ids[i];
        i64 *e = tab + 2 * id;
        if (e[0] != gen) {
            e[0] = gen;
            e[1] = i;
            out_ids[t++] = id;
            if (id > maxid)
                maxid = id;
            continue;
        }
        i64 w = e[1];
        if (ncols > 0) {
            double v = c0[i * s0], b = c0[w * s0];
            if (v > b) continue;
            if (v < b) goto take;
        }
        if (ncols > 1) {
            double v = c1[i * s1], b = c1[w * s1];
            if (v > b) continue;
            if (v < b) goto take;
        }
        if (ncols > 2) {
            double v = c2[i * s2], b = c2[w * s2];
            if (v > b) continue;
            if (v < b) goto take;
        }
        continue; /* full tie: the earlier arrival stays */
    take:
        e[1] = i;
    }
    if (rk_radix_sort(out_ids, out_rows, t, maxid) == out_rows)
        memcpy(out_ids, out_rows, (size_t)t * sizeof(i64));
    for (i64 j = 0; j < t; ++j)
        out_rows[j] = tab[2 * out_ids[j] + 1];
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

/* Fused push expansion (EmitScratch._emit_push): expands src_ids (any
 * contiguous chunk) through their CSR rows, keeping the round's
 * messages — arcs with w <= delta and eff + w <= delta whose target is
 * open.  Output order is source-major, arcs in CSR order — the legacy
 * arrival order.  Output pointers may be pre-offset for disjoint
 * per-chunk regions; returns the rows written.
 *
 * The open test reads `frozen`, indexed by local row.  With `owners`
 * NULL the slice is the whole graph and a key is its own row.
 * Otherwise (a shard's mapped layout) `owners`/`localidx` are the
 * partition sidecars indexed by global id: a key this shard owns is
 * tested at localidx[key]; a key owned elsewhere is kept only from a
 * live source, since the receiver regenerates a frozen source's rows
 * from its replica.  The tests are loop-invariant, so the compiler
 * unswitches them. */
i64 rk_emit_push(
    const i64 *indptr, const i64 *indices, const double *weights,
    const i64 *src_ids, const double *eff, i64 nsrc, double delta,
    const u8 *frozen, const i32 *owners, const i32 *localidx, i64 shard,
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
            i64 key = indices[a];
            if (!owners) {
                if (frozen[key])
                    continue;
            } else if (owners[key] == shard) {
                if (frozen[localidx[key]])
                    continue;
            } else if (frozen[u]) {
                continue;
            }
            out_keys[t] = key;
            out_nd[t] = nd;
            out_src[t] = u;
            out_aidx[t] = a;
            ++t;
        }
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

/* Fused batch finish (EmitScratch._finish): one stream over the
 * round's messages (rk_emit_push's rows, every target open) doing the
 * accounting (stamped distinct-key collection into gk, hist restored
 * to zero) and the improvement filter: keep rows that strictly improve
 * their target, gathering w (from the arc index), the source's center
 * and the float source column in the same pass.
 *
 * The accounting is the round's group summary: each distinct key adds
 * its count plus one output row to its worker's load (`loads`, an
 * all-zero nworkers scratch, zeroed again on exit); summ[0..1] receive
 * the largest group and the smallest key reaching it (summ enters as
 * {0, -1}) and summ[2] the largest load.
 * A NULL hist skips the accounting (gk, loads and summ are then
 * unused).  Returns the kept count. */
i64 rk_finish_batch(
    const i64 *keys, const double *nd, const i64 *src, const i64 *aidx,
    i64 n,
    const double *dist, const double *weights, const i64 *center,
    i64 *hist, i64 *gk, i64 nworkers, i64 *loads, i64 *summ,
    i64 *f_keys, double *f_nd, i64 *f_src,
    double *f_w, double *f_ctr, double *f_srcf)
{
    i64 g = 0, t = 0;
    for (i64 i = 0; i < n; ++i) {
        if (i + RK_PF_DIST < n) {
            RK_PREFETCH(&dist[keys[i + RK_PF_DIST]]);
            if (hist)
                RK_PREFETCH_W(&hist[keys[i + RK_PF_DIST]]);
        }
        i64 k = keys[i];
        if (hist && hist[k]++ == 0)
            gk[g++] = k;
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
    if (!hist)
        return t;
    for (i64 j = 0; j < g; ++j) {
        i64 k = gk[j];
        i64 c = hist[k];
        hist[k] = 0;
        loads[rk_worker_of(k, nworkers)] += c + 1;
        if (c > summ[0] || (c == summ[0] && k < summ[1])) {
            summ[0] = c;
            summ[1] = k;
        }
    }
    i64 mx = 0;
    for (i64 p = 0; p < nworkers; ++p) {
        if (loads[p] > mx)
            mx = loads[p];
        loads[p] = 0;
    }
    summ[2] = mx;
    return t;
}

/* The apply half of the merge (ArrayGrowingState._apply): clear
 * `changed` on the last frontier, then adopt each per-target winner
 * whose target is open and strictly improved.  The winner of keys[j]
 * is candidate row rows[j] of the nd / ctr / dv columns.  With src
 * NULL, dv is the winner's accumulated distance; otherwise dv is the
 * arc weight and the accumulated distance is dacc[src[row]] + w —
 * read in a first pass, before any row is written, because a winner's
 * source may itself be adopted by this merge.  The second pass writes
 * center/dist/dacc/changed.  tmp needs g doubles; out (g entries)
 * receives the adopted keys in ascending order (keys ascend).  Returns
 * the adopted count and writes how many of them had no center
 * (NO_CENTER == -1) through newly. */
i64 rk_apply(
    const i64 *keys, i64 g, const i64 *rows,
    const double *nd, const double *ctr, const double *dv,
    const i64 *src, const i64 *last, i64 nlast,
    const u8 *frozen, i64 *center, double *dist, double *dacc,
    u8 *changed, double *tmp, i64 *out, i64 *newly)
{
    for (i64 j = 0; j < nlast; ++j)
        changed[last[j]] = 0;
    i64 t = 0;
    for (i64 j = 0; j < g; ++j) {
        i64 k = keys[j], r = rows[j];
        if (frozen[k] || !(nd[r] < dist[k]))
            continue;
        tmp[t] = src ? dacc[src[r]] + dv[r] : dv[r];
        out[t++] = j;
    }
    i64 fresh = 0;
    for (i64 a = 0; a < t; ++a) {
        i64 j = out[a], k = keys[j], r = rows[j];
        fresh += center[k] == -1;
        center[k] = (i64)ctr[r];
        dist[k] = nd[r];
        dacc[k] = tmp[a];
        changed[k] = 1;
        out[a] = k;
    }
    *newly = fresh;
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
    for (i64 i = 0; i < n; ++i) {
        if (frozen[i])
            continue;
        center[i] = -1;
        dist[i] = RK_INF;
        dacc[i] = RK_INF;
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

/* Forced-round scan (EmitScratch._forced_round, rescale == 0): one
 * pass over the rows.  A frozen row emits at effective distance 0, a
 * live one at its distance; a row emits when it is assigned and its
 * effective distance is below delta.  ids/eff receive the emitting
 * rows and cum their inclusive degree prefix sums, which size the
 * push's banks and split it across threads.  Returns the ids count.
 *
 * `dead` (one byte per row) marks frozen rows with no arc into an open
 * target (see rk_emit_push for the layouts): the scan looks for such
 * an arc once per frozen row and marks the row when there is none.
 * The frozen set only grows between resets, so a marked row stays
 * silent and later scans skip it without reading its arcs. */
i64 rk_forced_scan(
    const i64 *center, const double *dist, const u8 *frozen, i64 n,
    double delta, const i64 *indptr, const i64 *indices,
    const i32 *owners, const i32 *localidx, i64 shard, u8 *dead,
    i64 *ids, double *eff, i64 *cum)
{
    i64 t = 0, degsum = 0;
    for (i64 i = 0; i < n; ++i) {
        if (center[i] == -1)
            continue;
        double e = 0.0;
        if (frozen[i]) {
            if (dead[i] || !(e < delta))
                continue;
            i64 a = indptr[i], hi = indptr[i + 1];
            for (; a < hi; ++a) {
                i64 key = indices[a];
                if (!owners) {
                    if (!frozen[key])
                        break;
                } else if (owners[key] == shard && !frozen[localidx[key]]) {
                    break;
                }
            }
            if (a == hi) {
                dead[i] = 1;
                continue;
            }
        } else {
            e = dist[i];
            if (!(e < delta))
                continue;
        }
        degsum += indptr[i + 1] - indptr[i];
        ids[t] = i;
        eff[t] = e;
        cum[t++] = degsum;
    }
    return t;
}

/* Critical-path accounting (MREngine.round_batch): hash-route every
 * group key to its simulated worker (rk_worker_of) and accumulate the
 * weighted load, returning the maximum.  `loads` is an all-zero
 * nworkers scratch, restored to all-zero on exit. */
i64 rk_partition_loads(
    const i64 *keys, i64 n, const i64 *w, i64 nworkers, i64 *loads)
{
    for (i64 i = 0; i < n; ++i)
        loads[rk_worker_of(keys[i], nworkers)] += w[i];
    i64 mx = 0;
    for (i64 p = 0; p < nworkers; ++p) {
        if (loads[p] > mx)
            mx = loads[p];
        loads[p] = 0;
    }
    return mx;
}

/* Serial-core push expansion (core.growing.delta_growing_step):
 * messages count what rk_emit_push emits — light arcs into open
 * targets that pass the Δ test — and candidates additionally need
 * nd < dist[target]. */
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
            double nd = e + w;
            if (nd > delta)
                continue;
            i64 v = indices[a];
            if (frozen[v])
                continue;
            ++msg;
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
        if (skip_reached && dist[src] < RK_INF)
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
                if (dist[v] == RK_INF)
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
                dist[touched[t]] = RK_INF;
    }
    return best;
}

/* Quotient map side (core.quotient.crossing_edges): one pass over the
 * CSR arcs u -> v with u < v whose clusters differ, in CSR order.
 * Each writes the packed cluster pair min(cu, cv) * nc + max(cu, cv)
 * into keys and the value (w + d[u]) + d[v] into vals — the NumPy
 * tier's addition order.  keys/vals need room for every arc; returns
 * the crossing-edge count. */
i64 rk_crossing_edges(
    const i64 *indptr, const i64 *indices, const double *weights, i64 n,
    const i64 *cid, const double *d, i64 nc, i64 *keys, double *vals)
{
    i64 t = 0;
    for (i64 u = 0; u < n; ++u) {
        i64 cu = cid[u];
        i64 hi = indptr[u + 1];
        for (i64 a = indptr[u]; a < hi; ++a) {
            i64 v = indices[a];
            if (v <= u)
                continue;
            i64 cv = cid[v];
            if (cu == cv)
                continue;
            keys[t] = cu < cv ? cu * nc + cv : cv * nc + cu;
            vals[t] = (weights[a] + d[u]) + d[v];
            ++t;
        }
    }
    return t;
}

/* Label-propagation row scans for repro.mr.partitioner (the lp shard
 * partitioner).  Each replaces a sort- or bincount-based NumPy pass
 * over all arcs with one pass over the CSR rows, accumulating into a
 * dense scratch (acc, all-zero on entry and exit) with a mark/touched
 * list.  Sums are added in arc order starting from 0.0, which is the
 * order np.bincount adds them in, so the results are bit-identical. */

/* Per row u: the neighbour label with the largest incident weight (ties
 * to the larger label, as the NumPy lexsort picks it; -1 and 0.0 for an
 * arc-less row), and the weight toward u's own label (0.0 if none).
 * arc_w NULL means unit weights.  acc/mark need the label domain n;
 * touched needs n. */
void rk_lp_best_label(
    const i64 *indptr, const i64 *indices, const double *arc_w,
    const i64 *label, i64 n,
    double *acc, u8 *mark, i64 *touched,
    i64 *best_lab, double *best_w, double *own_w)
{
    for (i64 u = 0; u < n; ++u) {
        i64 t = 0;
        i64 hi = indptr[u + 1];
        for (i64 a = indptr[u]; a < hi; ++a) {
            i64 l = label[indices[a]];
            if (!mark[l]) {
                mark[l] = 1;
                touched[t++] = l;
            }
            acc[l] += arc_w ? arc_w[a] : 1.0;
        }
        i64 bl = -1;
        double bw = 0.0;
        for (i64 j = 0; j < t; ++j) {
            i64 l = touched[j];
            double w = acc[l];
            if (bl < 0 || w > bw || (w == bw && l > bl)) {
                bl = l;
                bw = w;
            }
        }
        own_w[u] = acc[label[u]]; /* 0.0 unless touched */
        best_lab[u] = bl;
        best_w[u] = bw;
        for (i64 j = 0; j < t; ++j) {
            acc[touched[j]] = 0.0;
            mark[touched[j]] = 0;
        }
    }
}

/* The (n, K) affinity matrix of the balanced refinement: aff[u*K + k]
 * is the weight of u's arcs into shard k.  aff must be all-zero. */
void rk_lp_affinity(
    const i64 *indptr, const i64 *indices, const double *arc_w,
    const i64 *owner, i64 n, i64 nshards, double *aff)
{
    for (i64 u = 0; u < n; ++u) {
        double *row = aff + u * nshards;
        i64 hi = indptr[u + 1];
        for (i64 a = indptr[u]; a < hi; ++a) {
            if (a + RK_PF_DIST < hi)
                RK_PREFETCH(&owner[indices[a + RK_PF_DIST]]);
            row[owner[indices[a]]] += arc_w ? arc_w[a] : 1.0;
        }
    }
}

/* Contract clusters into super-nodes: cluster c's targets are the
 * distinct cid of its members' arcs (self-arcs dropped), written in
 * ascending order with their summed weights — the CSR np.unique over
 * (c, d) pair codes produces.  Members are visited in ascending row
 * order (a stable counting sort by cid), so each pair's weights add in
 * global arc order.  Scratch: members (n), mstart (nc + 1, all-zero),
 * acc (nc, all-zero), mark (nc, all-zero), touched (nc).  cd/uw need
 * room for every arc.  Returns the pair count. */
i64 rk_lp_contract(
    const i64 *indptr, const i64 *indices, const double *arc_w,
    const i64 *cid, i64 n, i64 nc,
    i64 *members, i64 *mstart, double *acc, u8 *mark, i64 *touched,
    i64 *cindptr, i64 *cd, double *uw)
{
    for (i64 u = 0; u < n; ++u)
        mstart[cid[u] + 1] += 1;
    for (i64 c = 0; c < nc; ++c)
        mstart[c + 1] += mstart[c];
    /* cindptr doubles as the fill cursor until the pairs overwrite it */
    memcpy(cindptr, mstart, (size_t)nc * sizeof(i64));
    for (i64 u = 0; u < n; ++u)
        members[cindptr[cid[u]]++] = u;
    i64 t = 0;
    cindptr[0] = 0;
    for (i64 c = 0; c < nc; ++c) {
        i64 nt = 0;
        for (i64 m = mstart[c]; m < mstart[c + 1]; ++m) {
            i64 u = members[m];
            i64 hi = indptr[u + 1];
            for (i64 a = indptr[u]; a < hi; ++a) {
                i64 d = cid[indices[a]];
                if (d == c)
                    continue;
                if (!mark[d]) {
                    mark[d] = 1;
                    touched[nt++] = d;
                }
                acc[d] += arc_w ? arc_w[a] : 1.0;
            }
        }
        qsort(touched, (size_t)nt, sizeof(i64), cmp_i64);
        for (i64 j = 0; j < nt; ++j) {
            i64 d = touched[j];
            cd[t] = d;
            uw[t] = acc[d];
            ++t;
            acc[d] = 0.0;
            mark[d] = 0;
        }
        cindptr[c + 1] = t;
    }
    return t;
}
