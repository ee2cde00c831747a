"""Fused zero-allocation emit pipeline for the Δ-growing step's push expansion.

The scatter-min merge (:mod:`repro.mr.kernels`) makes the *reduce* side
of a Δ-growing step frontier-proportional; the *map* side — per round
candidate generation plus the shuffle that re-materializes those rows —
then dominates every batch backend.  A plain expansion (gather the
frontier's CSR rows, build a ``(C, 3)`` candidate matrix) has three
structural costs:

1. **allocation churn** — a fresh ``(C, 3)`` float64 matrix plus
   several index temporaries every round;
2. **full forced-round re-expansion** — a forced round (stage start,
   Δ change) re-expands *every* assigned node through ``indptr``
   gathers, even though late-stage forced rounds are almost entirely
   frozen nodes re-emitting contributions that cannot win;
3. **eager materialization** — all C candidate rows (center and
   accumulated-distance columns included) travelled through the shuffle,
   although the merge discards every candidate that does not improve
   its target.

This module fixes all three while keeping every observable — the
clustering, ``rounds``/``messages``/``updates`` counters, and (on the
engine-managed backends) the memory-model checks and simulated critical
path — bit-identical to the plain expansion.  The sharded backend's
self-defined resident-merge accounting instead measures the batch its
workers *actually* merge, which the improvement pre-filter shrinks —
see :class:`repro.mr.sharded.ShardedGrowingState` for that contract.

* :class:`EmitScratch` owns preallocated, monotonically grown buffers
  (dense per-row scratch, arc-domain scratch bounded by the graph's
  maximum frontier degree-sum — its arc count — and candidate banks),
  so a non-forced round performs **zero O(n) or O(m) allocations**:
  candidate columns are written straight into the banks and handed to
  :func:`~repro.mr.kernels.scatter_min_rows` with no intermediate copy,
  key materialization, or sort.

* **Push expansion** is the only direction: each round gathers the
  emitting frontier's CSR rows — one fused C pass on the native tier,
  a buffered ``indptr`` gather cascade on the NumPy tier — so a round
  costs O(frontier arcs) and emits candidates source-major, sources
  ascending.

* **Improvement pre-filter**: candidates that cannot be adopted —
  target frozen, or candidate distance not below the target's current
  distance — are dropped *before* their center/``dacc`` columns are
  materialized.  This is winner-preserving by the min-distance
  argument: the per-target winner minimizes ``(nd, center, arrival)``
  and the leading key is the distance, so if the winner does not
  improve its target then *no* candidate for that target does, and if
  it does improve then the whole minimal-distance tie set survives the
  filter unchanged.  Accounting still sees the full multiset:
  ``emitted`` (the round's ``messages``) and the group summary behind
  the memory-model check and the simulated critical path are computed
  from the unfiltered candidate set.

* **Frozen-emission cache**: under Contract semantics (``rescale ==
  0``) a frozen node's forced-round contribution — ``(target, w,
  center, dacc + w)`` per light arc — is immutable for a fixed Δ.  The
  scratch caches these rows the first forced round after each node
  freezes and replays them afterwards, partitioned into
  *inert* rows (target itself frozen: can never be adopted, contributes
  only to counters and accounting) and *active* rows (target still
  open).  One scan of the node state (a single C pass on the native
  tier) finds the live frontier and the newly frozen rows; past it, a
  late forced round costs O(newly-frozen arcs + open boundary rows +
  live-frontier arcs) instead of O(m).  The cache is replay, not
  approximation: the replayed multiset equals what push would emit,
  and the cache keeps its per-target histogram and its group summary
  (:class:`~repro.mr.engine.GroupSummary`: per-worker loads and the
  worst group) up to date as rows are appended, so a replay folds only
  the live rows into the accounting and stays exact.  Cache replay
  reorders rows (frozen block first), which only an order-free merge
  may consume — every merge (the whole-graph scatter and the sharded
  workers) breaks ties by ``(nd, center, source)``, provably equal to
  arrival order for deduplicated edges.  Contract2 rescaling uses the
  plain push path.

The plain expansion survives as the ``emit_frontier`` oracle of
``tests/mr/test_emit.py``, which also checks shard-slice layouts
against it; ``tests/mr/test_emit_parity.py`` pits every executor and
kernel tier against the test suite's per-key reference.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.mr import native as _native
from repro.mr.engine import GroupSummary, max_worker_load

__all__ = [
    "CACHE_LIVE_FRACTION",
    "EmitBatch",
    "EmitScratch",
]

NO_CENTER = -1

#: A forced round is answered from the frozen-emission cache only when
#: its live (unfrozen) emitting rows span at most this fraction of the
#: arcs: those rows still expand push-style next to the replay, and a
#: larger live frontier gains little from replaying the frozen rest.
CACHE_LIVE_FRACTION = 0.25

_EMPTY_I8 = np.empty(0, dtype=np.int64)
_EMPTY_F8 = np.empty(0, dtype=np.float64)


class EmitBatch:
    """One round's emitted candidates: filtered columns plus accounting.

    The filtered columns (:attr:`keys`, :attr:`nd`, :attr:`ctr`,
    :attr:`srcf`, :attr:`src`, :attr:`w`, all of length :attr:`count`)
    may be views into the owning scratch's banks and stay valid until
    that scratch's next emit.  Accounting fields describe the
    **unfiltered** multiset: :attr:`emitted` is the round's ``messages``
    count and :attr:`summary` the :class:`~repro.mr.engine.GroupSummary`
    of its per-target groups (hash-routed over ``num_workers`` simulated
    workers, one output row per group) that the memory-model check and
    the critical-path model consume.  Cache-replayed rows are not in
    arrival order, so consumers merge by ``(nd, center, source)``.
    """

    __slots__ = (
        "emitted",
        "count",
        "keys",
        "nd",
        "ctr",
        "srcf",
        "src",
        "w",
        "summary",
    )

    def __init__(self):
        self.emitted = 0
        self.count = 0
        self.keys = _EMPTY_I8
        self.nd = _EMPTY_F8
        self.ctr = _EMPTY_F8
        self.srcf = _EMPTY_F8
        self.src = _EMPTY_I8
        self.w = _EMPTY_F8
        self.summary = GroupSummary()


class _Bank:
    """Named 1-D scratch buffers of one dtype, grown monotonically."""

    __slots__ = ("_bufs", "_dtype")

    def __init__(self, dtype):
        self._bufs = {}
        self._dtype = dtype

    def get(self, name: str, size: int) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is None or len(buf) < size:
            # Geometric growth: candidate counts creep upward round by
            # round, and an exact-fit buffer would reallocate on every
            # new high-water mark.
            grown = max(size, 1024)
            if buf is not None:
                grown = max(grown, len(buf) + (len(buf) >> 2))
            buf = np.empty(grown, dtype=self._dtype)
            self._bufs[name] = buf
        return buf[:size]


def _compress(cond: np.ndarray, arr: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``arr[cond]`` written into a preallocated buffer slice."""
    np.compress(cond, arr, out=out)
    return out


class EmitScratch:
    """Reusable candidate-generation state for one growing state.

    Bound to one CSR slice: local rows ``[0, num_rows)`` whose
    ``indices`` may carry global neighbour ids (shard slices do).  Two
    layouts: the whole graph (row ``r`` is node ``r``) and the mapped
    layout below.  All buffers are allocated lazily and grown
    monotonically; :meth:`reset` clears the
    frozen-emission cache but keeps every buffer, so CLUSTER2's second
    phase (and the sharded workers' ``reset`` command) re-run on warm
    scratch.

    **Mapped layout** (shard slices): when ``row_gids`` is given, local
    row ``r`` is global node ``row_gids[r]`` and ``localidx`` /
    ``owners`` (the partition sidecars, indexed by global id) and
    ``shard_id`` supply the reverse maps.  Push expansion needs none of
    them (its keys come straight from ``indices``); the frozen-emission
    cache uses the sidecars as its ownership map.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        *,
        row_gids: Optional[np.ndarray] = None,
        localidx: Optional[np.ndarray] = None,
        owners: Optional[np.ndarray] = None,
        shard_id: int = 0,
    ):
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.num_rows = len(indptr) - 1
        self.num_arcs = len(indices)
        self.row_gids = row_gids
        self.localidx = localidx
        self.owners = owners
        self.shard_id = shard_id
        # NumPy-tier forced-round per-row emitting mask and effective
        # distances.
        self._m_loc: Optional[np.ndarray] = None
        self._e_loc: Optional[np.ndarray] = None
        self._i8 = _Bank(np.int64)
        self._f8 = _Bank(np.float64)
        self._b1 = _Bank(bool)
        # Dense all-zero histogram for the native accounting pass
        # (rk_finish_batch restores the invariant in-kernel).
        self._hist0: Optional[np.ndarray] = None
        # Frozen-emission cache (rescale == 0, forced rounds), valid for
        # one (Δ, simulated worker count) pair.
        self._cache_delta: Optional[float] = None
        self._cache_workers: Optional[int] = None
        self._cache_in: Optional[np.ndarray] = None
        self._cache_keys = _EMPTY_I8  # active rows: target still open
        self._cache_src = _EMPTY_I8
        self._cache_aidx = _EMPTY_I8
        self._cache_inert = 0  # rows whose target froze: counted, not stored
        self._cache_hist: Optional[np.ndarray] = None  # all cached rows
        # The cached rows' group summary, kept by the native appends on
        # the whole-graph layout: per-worker loads sum(count + 1) and
        # the top group [max_count, smallest key reaching it].
        self._cache_loads: Optional[np.ndarray] = None
        self._cache_top = np.array([0, -1], dtype=np.int64)
        #: Which tier last appended (``None``: nothing cached yet); the
        #: native tier rebuilds a cache the NumPy tier maintained.
        self._cache_native: Optional[bool] = None
        # Native-tier cache storage: preallocated capacity columns with
        # an explicit length, so forced rounds append/retire in place
        # instead of reconcatenating the whole cache (the public
        # ``_cache_keys``/``_cache_src``/``_cache_aidx`` become views).
        self._cache_len = 0
        self._cbuf_k: Optional[np.ndarray] = None
        self._cbuf_s: Optional[np.ndarray] = None
        self._cbuf_a: Optional[np.ndarray] = None
        #: Forced rounds answered from the frozen-emission cache.
        self.cache_hits = 0

    # -- lifecycle ------------------------------------------------------ #

    def reset(self) -> None:
        """Forget cached frozen emissions; keep every buffer allocation."""
        self._clear_cache()
        self._cache_delta = None

    def _clear_cache(self) -> None:
        if self._cache_in is not None:
            self._cache_in.fill(False)
            self._cache_hist.fill(0)
        if self._cache_loads is not None:
            self._cache_loads.fill(0)
        self._cache_top[:] = (0, -1)
        self._cache_keys = _EMPTY_I8
        self._cache_src = _EMPTY_I8
        self._cache_aidx = _EMPTY_I8
        self._cache_inert = 0
        self._cache_len = 0
        self._cache_native = None

    def release_buffers(self) -> None:
        """Free the per-round scratch: banks and dense per-row buffers.

        Everything dropped here is reallocated on next use with its
        zero-invariant intact (``_hist0`` allocates zeros, banks and the
        forced-round sets are write-before-read), so correctness is
        untouched — only the high-water allocation is surrendered.  What
        carries cross-round state survives: the frozen-emission cache
        columns, masks and summary.  The out-of-core sharded tier calls
        this when a shard is evicted so an evicted worker's footprint is
        O(state + cache), not O(its arcs).
        """
        self._i8 = _Bank(np.int64)
        self._f8 = _Bank(np.float64)
        self._b1 = _Bank(bool)
        self._hist0 = None
        self._m_loc = None
        self._e_loc = None

    # -- raw expansion: unfiltered candidate columns -------------------- #

    def _emit_push(self, src_ids: np.ndarray, eff: np.ndarray, delta: float):
        """Expand ``src_ids`` (local rows, ascending) through their arcs.

        Returns unfiltered columns ``(keys, nd, src_local, aidx, count)``
        in source-major order — ascending source, arcs in CSR order (the
        legacy arrival order).  ``keys`` are in the id space of
        ``indices`` (global for shard slices).
        """
        indptr = self.indptr
        starts = indptr[src_ids]
        counts = indptr[src_ids + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return _EMPTY_I8, _EMPTY_F8, _EMPTY_I8, _EMPTY_I8, 0
        if _native.use_native():
            # Fused native expansion: one C pass (chunk-threaded over
            # the frontier when REPRO_EMIT_THREADS > 1) replaces the
            # gid/aidx gather cascade below, writing the already
            # light/Δ-filtered columns straight into the banks.
            keys_b = self._i8.get("full_keys", total)
            nd_b = self._f8.get("full_nd", total)
            src_b = self._i8.get("full_src", total)
            aidx_b = self._i8.get("full_aidx", total)
            count = _native.emit_push_into(
                indptr, self.indices, self.weights,
                src_ids, np.ascontiguousarray(eff, dtype=np.float64),
                delta, counts,
                keys_b, nd_b, src_b, aidx_b, _native.emit_threads(),
            )
            if count == 0:
                return _EMPTY_I8, _EMPTY_F8, _EMPTY_I8, _EMPTY_I8, 0
            return (
                keys_b[:count], nd_b[:count], src_b[:count],
                aidx_b[:count], count,
            )
        # gid: position of each expanded arc's source inside src_ids —
        # the np.repeat(arange(len(src_ids)), counts) expansion, built
        # in reused buffers (np.add.at absorbs zero-degree sources).
        gid = self._i8.get("push_gid", total)
        gid.fill(0)
        ends = np.cumsum(counts)
        bounds = ends[:-1]
        np.add.at(gid, bounds[bounds < total], 1)
        np.cumsum(gid, out=gid)
        # aidx: absolute arc index of each slot — arange + per-source
        # offset (start of the source's CSR row minus its output offset).
        adj = starts - (ends - counts)
        aidx = self._i8.get("push_aidx", total)
        np.take(adj, gid, out=aidx)
        aidx += self._arange(total)
        tgt = np.take(self.indices, aidx, out=self._i8.get("push_tgt", total))
        wv = np.take(self.weights, aidx, out=self._f8.get("push_w", total))
        nd = np.take(eff, gid, out=self._f8.get("push_nd", total))
        nd += wv
        ok = np.less_equal(wv, delta, out=self._b1.get("push_ok", total))
        np.logical_and(ok, nd <= delta, out=ok)
        count = int(np.count_nonzero(ok))
        if count == 0:
            return _EMPTY_I8, _EMPTY_F8, _EMPTY_I8, _EMPTY_I8, 0
        keys_c = _compress(ok, tgt, self._i8.get("full_keys", count))
        nd_c = _compress(ok, nd, self._f8.get("full_nd", count))
        gid_c = _compress(ok, gid, self._i8.get("full_gid", count))
        aidx_c = _compress(ok, aidx, self._i8.get("full_aidx", count))
        src_c = np.take(src_ids, gid_c, out=self._i8.get("full_src", count))
        return keys_c, nd_c, src_c, aidx_c, count

    def _arange(self, size: int) -> np.ndarray:
        buf = self._i8._bufs.get("arange")
        if buf is None or len(buf) < size:
            buf = np.arange(max(size, 1024), dtype=np.int64)
            self._i8._bufs["arange"] = buf
        return buf[:size]

    # -- raw entry point (sharded workers) ------------------------------ #

    def emit_raw(
        self,
        *,
        center: np.ndarray,
        dist: np.ndarray,
        frozen: np.ndarray,
        frozen_iter: np.ndarray,
        delta: float,
        force: bool,
        rescale: float = 0.0,
        iteration: int = 0,
        sources: Optional[np.ndarray] = None,
    ):
        """Unfiltered fused expansion: ``(keys, nd, src_local, aidx, emitted)``.

        The scratch-buffered plain push expansion (candidate keys,
        distances and source ids) minus the value-matrix
        materialization; sharded workers route and filter the columns
        themselves (only locally-owned targets can be improvement-
        tested).  State arrays are local; ``keys`` follow ``indices``'
        id space.  On cache-replayed forced rounds ``emitted`` counts
        inert rows too and exceeds the column length; consumers must
        merge order-free (the sharded merge does).
        """
        if force:
            live, cols = self._forced_round(
                center, dist, frozen, frozen_iter, delta, rescale,
                iteration, None,
            )
            if live is None:
                return cols
            # Replay frozen emissions from the cache; only the live
            # frontier expands.  ``emitted`` includes the inert rows
            # (frozen or external targets) that are replayed as counts,
            # so it can exceed the column length — callers must read
            # the returned count.
            live_ids, live_eff, newly = live
            self.cache_hits += 1
            self._cache_update(frozen, delta, newly, None)
            self._cache_retire(frozen)
            lk, lnd, lsrc, laidx, lcnt = self._emit_push(
                live_ids, live_eff, delta
            )
            active = len(self._cache_keys)
            emitted = self._cache_inert + active + lcnt
            keys = np.concatenate((self._cache_keys, lk))
            nd = np.concatenate((np.take(self.weights, self._cache_aidx), lnd))
            src = np.concatenate((self._cache_src, lsrc))
            aidx = np.concatenate((self._cache_aidx, laidx))
            return keys, nd, src, aidx, emitted
        src = sources if sources is not None else _EMPTY_I8
        if len(src):
            src = src[~frozen[src]]
        if len(src):
            eff_vals = dist[src]
            keep = eff_vals < delta
            src = src[keep]
            eff_vals = eff_vals[keep]
        if not len(src):
            return _EMPTY_I8, _EMPTY_F8, _EMPTY_I8, _EMPTY_I8, 0
        return self._emit_push(src, eff_vals, delta)

    def _forced_round(
        self, center, dist, frozen, frozen_iter, delta, rescale, iteration,
        num_workers,
    ):
        """Plan one forced round: ``(live, None)`` when the
        frozen-emission cache can answer it, else ``(None, cols)`` with
        the plain expansion's columns (see :meth:`_emit_push`).

        ``live`` is ``(live_ids, live_eff, newly)``: the live (unfrozen
        emitting) rows with their distances, and the rows frozen since
        the last replay (``None``: :meth:`_cache_update` finds them).
        The cache needs Contract semantics and a live degree-sum within
        :data:`CACHE_LIVE_FRACTION` of the arcs (live rows expand
        push-style next to the replay).
        """
        limit = CACHE_LIVE_FRACTION * self.num_arcs
        if rescale == 0.0 and _native.use_native():
            if self._cache_native is False:
                self._cache_delta = None  # NumPy-maintained: rebuild
            # One C pass finds the live rows, their degree sum and the
            # rows frozen since the last replay.
            n = self.num_rows
            ids = self._i8.get("forced_ids", n)
            eff = self._f8.get("forced_eff", n)
            newly = self._i8.get("forced_newly", n)
            cache_in = (
                self._cache_in
                if self._cache_valid(delta, num_workers)
                else None
            )
            t, fresh, live_sum = _native.forced_scan(
                center, dist, frozen, delta, self.indptr, ids, eff,
                cache_in=cache_in, newly=newly,
            )
            if live_sum <= limit:
                return (ids[:t], eff[:t], newly[:fresh]), None
            t, _, _ = _native.forced_scan(
                center, dist, frozen, delta, self.indptr, ids, eff
            )
            return None, self._emit_push(ids[:t], eff[:t], delta)
        m_loc, e_loc = self._forced_sets(
            center, dist, frozen, frozen_iter, delta, rescale, iteration
        )
        if rescale == 0.0:
            live_ids = np.flatnonzero(m_loc & ~frozen)
            live_sum = int(
                (self.indptr[live_ids + 1] - self.indptr[live_ids]).sum()
            )
            if live_sum <= limit:
                return (live_ids, e_loc[live_ids], None), None
        src = np.flatnonzero(m_loc)
        return None, self._emit_push(src, e_loc[src], delta)

    def _forced_sets(
        self, center, dist, frozen, frozen_iter, delta, rescale, iteration
    ):
        """Per-row emitting mask + effective distances for a forced round
        (the NumPy tier, and Contract2 rescaling on either tier)."""
        if self._m_loc is None:
            self._m_loc = np.zeros(self.num_rows, dtype=bool)
            self._e_loc = np.zeros(self.num_rows, dtype=np.float64)
        m_loc, e_loc = self._m_loc, self._e_loc
        np.not_equal(center, NO_CENTER, out=m_loc)
        np.copyto(e_loc, dist)
        if rescale:
            fidx = np.flatnonzero(frozen)
            e_loc[fidx] = dist[fidx] - rescale * (iteration - frozen_iter[fidx])
        else:
            np.copyto(e_loc, 0.0, where=frozen)
        np.logical_and(m_loc, e_loc < delta, out=m_loc)
        return m_loc, e_loc

    # -- the fused emit: filter + accounting (whole-graph layout) ------- #

    def emit(
        self,
        *,
        center: np.ndarray,
        dist: np.ndarray,
        dacc: np.ndarray,
        frozen: np.ndarray,
        frozen_iter: np.ndarray,
        delta: float,
        force: bool,
        rescale: float = 0.0,
        iteration: int = 0,
        sources: Optional[np.ndarray] = None,
        num_workers: int = 1,
    ) -> EmitBatch:
        """One round's fused candidate generation (whole-graph layout).

        Semantically the plain expansion (the ``emit_frontier`` oracle of
        ``tests/mr/test_emit.py``) followed by the merge-time discard of
        unadoptable candidates, with the counters and group summary of
        the *unfiltered* emission, hash-routed over ``num_workers``
        simulated workers.  ``sources`` is the active frontier for
        non-forced rounds (local ids, ascending); forced rounds scan all
        nodes.
        """
        batch = EmitBatch()
        if not force:
            cols = self.emit_raw(
                center=center,
                dist=dist,
                frozen=frozen,
                frozen_iter=frozen_iter,
                delta=delta,
                force=False,
                rescale=rescale,
                iteration=iteration,
                sources=sources,
            )
            return self._finish(batch, cols, center, dist, frozen, num_workers)

        live, cols = self._forced_round(
            center, dist, frozen, frozen_iter, delta, rescale, iteration,
            num_workers,
        )
        if live is not None:
            return self._emit_forced_cached(
                batch, live, center, dist, frozen, delta, num_workers
            )
        return self._finish(batch, cols, center, dist, frozen, num_workers)

    def _zero_hist(self) -> np.ndarray:
        """The dense all-zero histogram the native accounting stamps."""
        if self._hist0 is None or len(self._hist0) < self.num_rows:
            self._hist0 = np.zeros(self.num_rows, dtype=np.int64)
        return self._hist0

    def _finish(self, batch, cols, center, dist, frozen, num_workers):
        """Shared tail: accounting over the full set, then the filter."""
        keys_c, nd_c, src_c, aidx_c, count = cols
        batch.emitted = count
        if count == 0:
            return batch
        if _native.use_native():
            # Fused finish: one C stream over the candidate columns does
            # the group summary (stamped distinct keys, hash-routed) AND
            # the improvement filter + column materialization.
            f_keys = self._i8.get("f_keys", count)
            f_nd = self._f8.get("f_nd", count)
            f_src = self._i8.get("f_src", count)
            f_w = self._f8.get("f_w", count)
            f_ctr = self._f8.get("f_ctr", count)
            f_srcf = self._f8.get("f_srcf", count)
            kept, summary = _native.finish_batch(
                keys_c, nd_c, src_c, aidx_c, dist, frozen,
                self.weights, center,
                f_keys, f_nd, f_src, f_w, f_ctr, f_srcf,
                hist=self._zero_hist(), gk=self._i8.get("hist_gk", count),
                loads=np.zeros(num_workers, dtype=np.int64),
            )
            batch.summary = GroupSummary(*summary)
            batch.count = kept
            if kept == 0:
                return batch
            batch.keys = f_keys[:kept]
            batch.nd = f_nd[:kept]
            batch.src = f_src[:kept]
            batch.w = f_w[:kept]
            batch.ctr = f_ctr[:kept]
            batch.srcf = f_srcf[:kept]
            return batch
        batch.summary = _summarize(*self._histogram(keys_c), num_workers)
        tgt_dist = np.take(dist, keys_c, out=self._f8.get("flt_dist", count))
        imp = np.less(nd_c, tgt_dist, out=self._b1.get("flt_imp", count))
        np.logical_and(imp, ~frozen[keys_c], out=imp)
        kept = int(np.count_nonzero(imp))
        batch.count = kept
        if kept == 0:
            return batch
        batch.keys = _compress(imp, keys_c, self._i8.get("f_keys", kept))
        batch.nd = _compress(imp, nd_c, self._f8.get("f_nd", kept))
        batch.src = _compress(imp, src_c, self._i8.get("f_src", kept))
        aidx = _compress(imp, aidx_c, self._i8.get("f_aidx", kept))
        batch.w = np.take(self.weights, aidx, out=self._f8.get("f_w", kept))
        ctr = self._f8.get("f_ctr", kept)
        ctr[:] = center[batch.src]
        batch.ctr = ctr
        srcf = self._f8.get("f_srcf", kept)
        srcf[:] = batch.src
        batch.srcf = srcf
        return batch

    # -- the frozen-emission cache -------------------------------------- #

    def _cache_valid(self, delta: float, num_workers: Optional[int]) -> bool:
        return (
            self._cache_delta == delta and self._cache_workers == num_workers
        )

    def _cache_update(
        self, frozen: np.ndarray, delta: float, newly, num_workers
    ) -> None:
        """Append the light arcs of sources frozen since the last replay.

        A frozen source emits at effective distance 0, so its candidate
        distance is the arc weight.  Rows targeting another shard's
        nodes are *immediately* inert: the sharded exchange never ships
        frozen-source candidates (receivers regenerate them from
        replicas), so they only ever count.  ``newly`` lists the fresh
        sources (``None``: found here from the ``_cache_in`` mask).

        A Δ change invalidates everything — the light-arc filter moved —
        and so does a new simulated worker count, which re-routes the
        summary's loads.  ``num_workers`` ``None`` keeps no summary (the
        raw entry point; mapped layouts never keep one).
        """
        if self._cache_in is None:
            self._cache_in = np.zeros(self.num_rows, dtype=bool)
            self._cache_hist = np.zeros(self.num_rows, dtype=np.int64)
        if not self._cache_valid(delta, num_workers):
            self._clear_cache()
            self._cache_delta = delta
            self._cache_workers = num_workers
            self._cache_loads = (
                np.zeros(num_workers, dtype=np.int64)
                if num_workers is not None and self.row_gids is None
                else None
            )
        if newly is None:
            # Masked in a reused buffer (no n-sized temporaries).
            fresh = self._b1.get("cache_fresh", self.num_rows)
            np.logical_not(self._cache_in, out=fresh)
            np.logical_and(fresh, frozen, out=fresh)
            newly = np.flatnonzero(fresh)
        if _native.use_native():
            self._cache_append_native(newly, delta)
            return
        self._cache_native = False
        if len(newly):
            k, nd, s, a, cnt = self._emit_push(
                newly, np.zeros(len(newly)), delta
            )
            if cnt:
                k_loc = k
                if self.row_gids is not None:
                    owned = self.owners[k] == self.shard_id
                    ext = cnt - int(np.count_nonzero(owned))
                    if ext:
                        self._cache_inert += ext
                        k, s, a = k[owned], s[owned], a[owned]
                    k_loc = self.localidx[k]
                if len(k):
                    np.add.at(self._cache_hist, k_loc, 1)
                    self._cache_keys = np.concatenate((self._cache_keys, k))
                    self._cache_src = np.concatenate((self._cache_src, s))
                    self._cache_aidx = np.concatenate((self._cache_aidx, a))
            self._cache_in[newly] = True

    def _cache_retire(self, frozen: np.ndarray) -> None:
        """Retire cached rows whose target froze: replayed as counts
        only from now on (a frozen target can never adopt)."""
        if _native.use_native():
            if self._cache_len:
                new_len = _native.cache_retire(
                    self._cbuf_k, self._cbuf_s, self._cbuf_a,
                    self._cache_len, frozen, localidx=self.localidx,
                )
                self._cache_inert += self._cache_len - new_len
                self._cache_len = new_len
                self._cache_views()
            return
        if len(self._cache_keys):
            loc = self._cache_keys
            if self.row_gids is not None:
                loc = self.localidx[loc]
            open_t = ~frozen[loc]
            dropped = len(open_t) - int(np.count_nonzero(open_t))
            if dropped:
                self._cache_inert += dropped
                self._cache_keys = self._cache_keys[open_t]
                self._cache_src = self._cache_src[open_t]
                self._cache_aidx = self._cache_aidx[open_t]

    def _cache_reserve(self, need: int) -> None:
        """Grow the in-place cache columns to hold ``need`` rows."""
        if self._cbuf_k is not None and len(self._cbuf_k) >= need:
            return
        cap = max(int(need), 4096)
        if self._cbuf_k is not None:
            cap = max(cap, len(self._cbuf_k) + (len(self._cbuf_k) >> 1))
        for name in ("_cbuf_k", "_cbuf_s", "_cbuf_a"):
            old = getattr(self, name)
            buf = np.empty(cap, dtype=np.int64)
            if old is not None and self._cache_len:
                buf[: self._cache_len] = old[: self._cache_len]
            setattr(self, name, buf)

    def _cache_views(self) -> None:
        """Point the public cache columns at the capacity prefix."""
        n = self._cache_len
        if n:
            self._cache_keys = self._cbuf_k[:n]
            self._cache_src = self._cbuf_s[:n]
            self._cache_aidx = self._cbuf_a[:n]
        else:
            self._cache_keys = _EMPTY_I8
            self._cache_src = _EMPTY_I8
            self._cache_aidx = _EMPTY_I8

    def _cache_append_native(self, newly, delta) -> None:
        """Native append: the NumPy branch's semantics, in place.

        The cache lives in preallocated capacity columns so forced
        rounds never reconcatenate it; frozen sources emit at effective
        distance 0, so the light/Δ filter and the owned-row append run
        in one C pass straight into those columns, keeping the
        histogram and (whole graph) the group summary current.  Mapped
        layouts hand the kernel their ``owners``/``localidx`` sidecars
        for the ownership test and the key→row map.
        """
        self._cache_native = True
        if len(newly):
            bound = int(
                (self.indptr[newly + 1] - self.indptr[newly]).sum()
            )
            self._cache_reserve(self._cache_len + bound)
            appended, cnt = _native.cache_emit(
                self.indptr, self.indices, self.weights, newly,
                delta, self._cache_hist,
                self._cbuf_k, self._cbuf_s, self._cbuf_a,
                self._cache_len,
                owners=self.owners, localidx=self.localidx,
                shard_id=self.shard_id,
                loads=self._cache_loads, top=self._cache_top,
            )
            self._cache_inert += cnt - appended
            self._cache_len += appended
            self._cache_in[newly] = True
        self._cache_views()

    def _emit_forced_cached(
        self, batch, live, center, dist, frozen, delta, num_workers
    ):
        """Forced-round emission replayed from the frozen-emission cache."""
        live_ids, live_eff, newly = live
        self.cache_hits += 1
        self._cache_update(frozen, delta, newly, num_workers)
        if _native.use_native():
            return self._replay_native(
                batch, live_ids, live_eff, center, dist, frozen, delta
            )
        self._cache_retire(frozen)

        # Live (unfrozen assigned) sources expand push-style; the
        # cache path is only taken when their degree-sum is small.
        lk, lnd, lsrc, laidx, lcnt = self._emit_push(live_ids, live_eff, delta)

        f_active = len(self._cache_keys)
        batch.emitted = self._cache_inert + f_active + lcnt
        if batch.emitted == 0:
            return batch

        # The cached histogram plus the live rows, in a reused buffer
        # (the cache's own histogram must stay cached-rows-only).
        hist = self._i8.get("fc_hist", self.num_rows)
        np.copyto(hist, self._cache_hist)
        if lcnt:
            np.add.at(hist, lk, 1)
        gk = np.flatnonzero(hist)
        batch.summary = _summarize(gk, hist[gk], num_workers)

        # Improvement filter: active cache rows first, live rows after
        # (order-free consumers only — recorded on the batch).
        if f_active:
            fw = np.take(self.weights, self._cache_aidx)
            f_imp = fw < dist[self._cache_keys]
            fk = self._cache_keys[f_imp]
            fnd = fw[f_imp]
            fs = self._cache_src[f_imp]
            fa = self._cache_aidx[f_imp]
        else:
            fk = _EMPTY_I8
            fnd = _EMPTY_F8
            fs = fa = _EMPTY_I8
        if lcnt:
            l_imp = np.less(lnd, dist[lk])
            np.logical_and(l_imp, ~frozen[lk], out=l_imp)
            lk = lk[l_imp]
            lnd = lnd[l_imp]
            lsrc = lsrc[l_imp]
            laidx = laidx[l_imp]
        else:
            lk, lnd = _EMPTY_I8, _EMPTY_F8
            lsrc = laidx = _EMPTY_I8
        keys = np.concatenate((fk, lk))
        kept = len(keys)
        batch.count = kept
        if kept == 0:
            return batch
        batch.keys = keys
        batch.nd = np.concatenate((fnd, lnd))
        batch.src = np.concatenate((fs, lsrc))
        aidx = np.concatenate((fa, laidx))
        batch.w = np.take(self.weights, aidx)
        batch.ctr = center[batch.src].astype(np.float64)
        batch.srcf = batch.src.astype(np.float64)
        return batch

    def _replay_native(
        self, batch, live_ids, live_eff, center, dist, frozen, delta
    ):
        """Native replay in O(cache rows + live arcs): no dense pass.

        One kernel retires the cache rows whose target froze and
        replays the survivors' improving rows; the live rows expand
        push-style and go through the finish kernel, which folds them
        onto the cache's group summary (the cached histogram as base).
        """
        lk, lnd, lsrc, laidx, lcnt = self._emit_push(live_ids, live_eff, delta)
        cap = self._cache_len + lcnt
        b_keys = self._i8.get("fc_keys", cap)
        b_nd = self._f8.get("fc_nd", cap)
        b_src = self._i8.get("fc_src", cap)
        b_w = self._f8.get("fc_w", cap)
        b_ctr = self._f8.get("fc_ctr", cap)
        b_srcf = self._f8.get("fc_srcf", cap)
        fcnt = 0
        if self._cache_len:
            # Cache rows survive when the arc weight still improves
            # the target; nd is the weight itself (eff = 0).
            new_len, fcnt = _native.cache_retire(
                self._cbuf_k, self._cbuf_s, self._cbuf_a,
                self._cache_len, frozen,
                replay=(self.weights, dist, center,
                        b_keys, b_nd, b_src, b_w, b_ctr, b_srcf),
            )
            self._cache_inert += self._cache_len - new_len
            self._cache_len = new_len
            self._cache_views()

        batch.emitted = self._cache_inert + self._cache_len + lcnt
        if batch.emitted == 0:
            return batch
        top = self._cache_top
        lkept = 0
        if lcnt:
            lkept, summary = _native.finish_batch(
                lk, lnd, lsrc, laidx, dist, frozen, self.weights, center,
                b_keys[fcnt:], b_nd[fcnt:], b_src[fcnt:],
                b_w[fcnt:], b_ctr[fcnt:], b_srcf[fcnt:],
                hist=self._zero_hist(), gk=self._i8.get("hist_gk", lcnt),
                base=self._cache_hist, loads=self._cache_loads.copy(),
                top=top,
            )
        else:
            summary = (int(top[0]), int(top[1]), int(self._cache_loads.max()))
        batch.summary = GroupSummary(*summary)
        kept = fcnt + lkept
        batch.count = kept
        if kept == 0:
            return batch
        batch.keys = b_keys[:kept]
        batch.nd = b_nd[:kept]
        batch.src = b_src[:kept]
        batch.w = b_w[:kept]
        batch.ctr = b_ctr[:kept]
        batch.srcf = b_srcf[:kept]
        return batch

    # ------------------------------------------------------------------ #

    #: Dense histograms only pay off when the target domain is not far
    #: larger than the batch (mirrors the engine's counting-shuffle
    #: heuristic); skinnier batches sort their few rows instead.
    _HIST_SLACK = 65_536

    def _histogram(self, keys_c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Full-multiset per-target histogram ``(group_keys, counts)``."""
        domain = self.num_rows
        if domain <= 4 * len(keys_c) + self._HIST_SLACK:
            dense = np.bincount(keys_c, minlength=domain)
            gk = np.flatnonzero(dense)
            counts = dense[gk]
        else:
            gk, counts = np.unique(keys_c, return_counts=True)
        return gk.astype(np.int64), counts.astype(np.int64)


def _summarize(keys: np.ndarray, counts: np.ndarray, num_workers: int):
    """NumPy-tier group summary: one output row per group."""
    summary = GroupSummary.of(keys, counts)
    summary.max_load = max_worker_load(keys, counts + 1, num_workers)
    return summary
