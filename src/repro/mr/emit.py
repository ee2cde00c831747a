"""Fused zero-allocation emit pipeline for the Δ-growing step's push expansion.

The scatter-min merge (:mod:`repro.mr.kernels`) makes the *reduce* side
of a Δ-growing step frontier-proportional; the *map* side — per round
candidate generation plus the shuffle that re-materializes those rows —
then dominates every batch backend.  A plain expansion (gather the
frontier's CSR rows, build a ``(C, 3)`` candidate matrix) has two
structural costs:

1. **allocation churn** — a fresh ``(C, 3)`` float64 matrix plus
   several index temporaries every round;
2. **eager materialization** — all C candidate rows (center and
   accumulated-distance columns included) travel through the shuffle,
   although the merge discards every candidate that does not improve
   its target.

This module fixes both while keeping every observable — the
clustering, ``rounds``/``messages``/``updates`` counters, and (on the
engine-managed backends) the memory-model checks and simulated critical
path — equal to the plain expansion's.

* **One ``messages`` rule.**  A round's messages are the candidates over
  light arcs (``w <= Δ``) that pass the Δ test (``nd <= Δ``) and whose
  target is not frozen when the round emits.  A node learns once that
  a neighbour froze (the freeze message the sharded replicas model),
  so a real implementation never shuffles over an arc into a frozen
  node (``docs/mr_model.md``).  The push kernels apply the rule as
  they expand, so ``emitted`` and the group summary behind the
  memory-model check and the simulated critical path are computed from
  exactly the rows emitted.

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
  ascending.  A forced round (stage start, Δ change) is the same push
  over every emitting row, frozen rows at effective distance 0, found
  by one scan of the node state.

* **Improvement pre-filter**: messages that cannot be adopted —
  candidate distance not below the target's current distance — are
  dropped *before* their center/``dacc`` columns are materialized.
  This is winner-preserving by the min-distance argument: the
  per-target winner minimizes ``(nd, center, arrival)`` and the leading
  key is the distance, so if the winner does not improve its target
  then *no* candidate for that target does, and if it does improve
  then the whole minimal-distance tie set survives the filter
  unchanged.  Accounting still sees every message.

The plain expansion survives as the ``emit_frontier`` oracle of
``tests/mr/test_emit.py``, which also checks shard-slice layouts
against it; ``tests/mr/test_emit_parity.py`` pits every executor and
kernel tier against the test suite's per-key reference, and
``tests/mr/test_counter_parity.py`` holds every path to one count.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.mr import native as _native
from repro.mr.engine import GroupSummary, max_worker_load

__all__ = [
    "EmitBatch",
    "EmitScratch",
]

NO_CENTER = -1

_EMPTY_I8 = np.empty(0, dtype=np.int64)
_EMPTY_F8 = np.empty(0, dtype=np.float64)
_EMPTY_COLS = (_EMPTY_I8, _EMPTY_F8, _EMPTY_I8, _EMPTY_I8, 0)


class EmitBatch:
    """One round's emitted candidates: filtered columns plus accounting.

    The filtered columns (:attr:`keys`, :attr:`nd`, :attr:`ctr`,
    :attr:`srcf`, :attr:`src`, :attr:`w`, all of length :attr:`count`)
    may be views into the owning scratch's banks and stay valid until
    that scratch's next emit.  Accounting fields describe the round's
    **messages**, before the improvement filter: :attr:`emitted` is
    their count and :attr:`summary` the
    :class:`~repro.mr.engine.GroupSummary` of their per-target groups
    (hash-routed over ``num_workers`` simulated workers, one output row
    per group) that the memory-model check and the critical-path model
    consume.
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
    monotonically; :meth:`reset` keeps them, so CLUSTER2's second phase
    (and the sharded workers' ``reset`` command) re-run on warm
    scratch.

    **Silent rows.**  The native forced-round scan marks frozen rows
    with no arc into an open target and skips them from then on (see
    ``rk_forced_scan``).  That is exact as long as the ``frozen`` set a
    caller passes only grows; a caller that unfreezes rows (a new
    clustering phase, a checkpoint restore) calls :meth:`reset` first.

    **Mapped layout** (shard slices): when ``row_gids`` is given, local
    row ``r`` is global node ``row_gids[r]`` and ``localidx`` /
    ``owners`` (the partition sidecars, indexed by global id) and
    ``shard_id`` supply the reverse maps.  The push's open-target test
    reads them: an owned key is open when its local row is, and a key
    owned elsewhere is emitted from live sources only — the receiving
    shard regenerates a frozen source's rows from its replica.
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
        # Native forced-round scan: frozen rows known to be silent.
        self._dead: Optional[np.ndarray] = None

    def reset(self) -> None:
        """Forget the silent-row marks; keep every buffer allocation."""
        if self._dead is not None:
            self._dead.fill(0)

    def release_buffers(self) -> None:
        """Free the per-round scratch: banks and dense per-row buffers.

        Everything dropped here is reallocated on next use with its
        zero-invariant intact (``_hist0`` allocates zeros, banks and the
        forced-round sets are write-before-read, and silent-row marks are
        found again), so correctness is untouched — only the high-water
        allocation is surrendered.  The out-of-core sharded tier calls
        this when a shard is evicted so an evicted worker's footprint is
        O(state), not O(its arcs).
        """
        self._i8 = _Bank(np.int64)
        self._f8 = _Bank(np.float64)
        self._b1 = _Bank(bool)
        self._hist0 = None
        self._dead = None
        self._m_loc = None
        self._e_loc = None

    # -- raw expansion: the round's messages ---------------------------- #

    def _emit_push(
        self,
        src_ids: np.ndarray,
        eff: np.ndarray,
        delta: float,
        frozen: np.ndarray,
        cum: Optional[np.ndarray] = None,
    ):
        """Expand ``src_ids`` (local rows, ascending) through their arcs.

        Returns the message columns ``(keys, nd, src_local, aidx,
        count)`` in source-major order — ascending source, arcs in CSR
        order (the legacy arrival order).  ``keys`` are in the id space
        of ``indices`` (global for shard slices); ``frozen`` is indexed
        by local row.  ``cum``, the inclusive prefix sum of the sources'
        degrees, is computed here unless the caller has it.
        """
        if cum is None:
            cum = np.cumsum(self.indptr[src_ids + 1] - self.indptr[src_ids])
        total = int(cum[-1]) if len(cum) else 0
        if total == 0:
            return _EMPTY_COLS
        if _native.use_native():
            # Fused native expansion: one C pass replaces the gid/aidx
            # gather cascade below, writing the message columns straight
            # into the banks.
            keys_b = self._i8.get("full_keys", total)
            nd_b = self._f8.get("full_nd", total)
            src_b = self._i8.get("full_src", total)
            aidx_b = self._i8.get("full_aidx", total)
            count = _native.emit_push_into(
                self.indptr, self.indices, self.weights,
                src_ids, np.ascontiguousarray(eff, dtype=np.float64),
                delta, keys_b, nd_b, src_b, aidx_b,
                frozen=frozen, owners=self.owners, localidx=self.localidx,
                shard_id=self.shard_id,
            )
            if count == 0:
                return _EMPTY_COLS
            return (
                keys_b[:count], nd_b[:count], src_b[:count],
                aidx_b[:count], count,
            )
        # gid: position of each expanded arc's source inside src_ids —
        # the np.repeat(arange(len(src_ids)), counts) expansion, built
        # in reused buffers (np.add.at absorbs zero-degree sources).
        gid = self._i8.get("push_gid", total)
        gid.fill(0)
        bounds = cum[:-1]
        np.add.at(gid, bounds[bounds < total], 1)
        np.cumsum(gid, out=gid)
        # aidx: absolute arc index of each slot — arange + per-source
        # offset (start of the source's CSR row minus its output offset).
        starts = self.indptr[src_ids]
        adj = starts - (cum - (self.indptr[src_ids + 1] - starts))
        aidx = self._i8.get("push_aidx", total)
        np.take(adj, gid, out=aidx)
        aidx += self._arange(total)
        tgt = np.take(self.indices, aidx, out=self._i8.get("push_tgt", total))
        wv = np.take(self.weights, aidx, out=self._f8.get("push_w", total))
        nd = np.take(eff, gid, out=self._f8.get("push_nd", total))
        nd += wv
        ok = np.less_equal(wv, delta, out=self._b1.get("push_ok", total))
        np.logical_and(ok, nd <= delta, out=ok)
        np.logical_and(ok, self._open(tgt, gid, src_ids, frozen), out=ok)
        count = int(np.count_nonzero(ok))
        if count == 0:
            return _EMPTY_COLS
        keys_c = _compress(ok, tgt, self._i8.get("full_keys", count))
        nd_c = _compress(ok, nd, self._f8.get("full_nd", count))
        gid_c = _compress(ok, gid, self._i8.get("full_gid", count))
        aidx_c = _compress(ok, aidx, self._i8.get("full_aidx", count))
        src_c = np.take(src_ids, gid_c, out=self._i8.get("full_src", count))
        return keys_c, nd_c, src_c, aidx_c, count

    def _open(self, tgt, gid, src_ids, frozen) -> np.ndarray:
        """NumPy tier of the push's open-target test (see the class
        docstring): one flag per expanded slot."""
        if self.owners is None:
            return ~frozen[tgt]
        owned = self.owners[tgt] == self.shard_id
        # Remote targets: open to live sources only.
        is_open = ~frozen[src_ids][gid]
        is_open[owned] = ~frozen[self.localidx[tgt[owned]]]
        return is_open

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
        """The round's message columns: ``(keys, nd, src_local, aidx, count)``.

        The scratch-buffered push expansion (candidate keys, distances
        and source ids) minus the value-matrix materialization; sharded
        workers route and filter the columns themselves (only
        locally-owned targets can be improvement-tested).  State arrays
        are local; ``keys`` follow ``indices``' id space.  ``sources``
        is the active frontier of a non-forced round (local ids,
        ascending); forced rounds scan every row.
        """
        if force:
            return self._forced_round(
                center, dist, frozen, frozen_iter, delta, rescale, iteration
            )
        src = sources if sources is not None else _EMPTY_I8
        if len(src):
            src = src[~frozen[src]]
        if len(src):
            eff_vals = dist[src]
            keep = eff_vals < delta
            src = src[keep]
            eff_vals = eff_vals[keep]
        if not len(src):
            return _EMPTY_COLS
        return self._emit_push(src, eff_vals, delta, frozen)

    def _forced_round(
        self, center, dist, frozen, frozen_iter, delta, rescale, iteration
    ):
        """A forced round: the push over every emitting row."""
        if rescale == 0.0 and _native.use_native():
            # One C pass finds the emitting rows, their effective
            # distances and their degree prefix sums, skipping silent
            # frozen rows.
            n = self.num_rows
            if self._dead is None:
                self._dead = np.zeros(n, dtype=np.uint8)
            ids = self._i8.get("forced_ids", n)
            eff = self._f8.get("forced_eff", n)
            cum = self._i8.get("forced_cum", n)
            t = _native.forced_scan(
                center, dist, frozen, delta, self.indptr, self.indices,
                self._dead, ids, eff, cum, owners=self.owners,
                localidx=self.localidx, shard_id=self.shard_id,
            )
            return self._emit_push(ids[:t], eff[:t], delta, frozen, cum[:t])
        m_loc, e_loc = self._forced_sets(
            center, dist, frozen, frozen_iter, delta, rescale, iteration
        )
        src = np.flatnonzero(m_loc)
        return self._emit_push(src, e_loc[src], delta, frozen)

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
        the round's messages, hash-routed over ``num_workers`` simulated
        workers.  See :meth:`emit_raw` for ``sources``.
        """
        cols = self.emit_raw(
            center=center,
            dist=dist,
            frozen=frozen,
            frozen_iter=frozen_iter,
            delta=delta,
            force=force,
            rescale=rescale,
            iteration=iteration,
            sources=sources,
        )
        return self._finish(EmitBatch(), cols, center, dist, num_workers)

    def _zero_hist(self) -> np.ndarray:
        """The dense all-zero histogram the native accounting stamps."""
        if self._hist0 is None or len(self._hist0) < self.num_rows:
            self._hist0 = np.zeros(self.num_rows, dtype=np.int64)
        return self._hist0

    def _finish(self, batch, cols, center, dist, num_workers):
        """Shared tail: accounting over the messages, then the filter."""
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
                keys_c, nd_c, src_c, aidx_c, dist, self.weights, center,
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

    # ------------------------------------------------------------------ #

    #: Dense histograms only pay off when the target domain is not far
    #: larger than the batch (mirrors the engine's counting-shuffle
    #: heuristic); skinnier batches sort their few rows instead.
    _HIST_SLACK = 65_536

    def _histogram(self, keys_c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The messages' per-target histogram ``(group_keys, counts)``."""
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
