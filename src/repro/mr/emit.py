"""Fused zero-allocation emit pipeline with direction-optimizing expansion.

The scatter-min merge (:mod:`repro.mr.kernels`) makes the *reduce* side
of a Δ-growing step frontier-proportional; the *map* side — per round
candidate generation plus the shuffle that re-materializes those rows —
then dominates every batch backend.  A plain expansion (gather the
frontier's CSR rows, build a ``(C, 3)`` candidate matrix) has three
structural costs:

1. **allocation churn** — a fresh ``(C, 3)`` float64 matrix plus
   several index temporaries every round;
2. **push-only expansion** — a forced round (stage start, Δ change)
   re-expands *every* assigned node through ``indptr`` gathers and two
   ``np.repeat`` calls, even though late-stage forced rounds are almost
   entirely frozen nodes re-emitting contributions that cannot win;
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
  (dense id-domain scratch, arc-domain scratch bounded by the graph's
  maximum frontier degree-sum — its arc count — and candidate banks),
  so a non-forced round performs **zero O(n) or O(m) allocations**:
  candidate columns are written straight into the banks and handed to
  :func:`~repro.mr.kernels.scatter_min_rows` with no intermediate copy,
  key materialization, or sort.

* **Direction-optimizing expansion** (cf. Beamer et al.'s push/pull
  BFS): when the emitting frontier's degree-sum exceeds
  :data:`PULL_DEGREE_FRACTION` of the arc count, the expansion switches
  from *push* (gather the frontier's CSR rows, repeat sources over
  their arcs) to *pull* (stream every arc target-major through the
  reverse CSR, testing each arc's source against a dense emitting
  mask).  For the symmetric graphs this library builds, the reverse CSR
  shares ``indptr``/``indices``/``weights`` with the forward one — row
  ``t`` read target-major lists exactly ``t``'s in-arcs — so the only
  new structure pull needs is the arc→row map (the source row of every
  arc slot), memory-mapped from the ``rsrc`` section of the ``.rcsr``
  store format when present (see :mod:`repro.graph.serialize`) or
  computed once per scratch.  ``REPRO_EMIT_MODE=push|pull|auto``
  selects the direction for A/B runs; both directions produce the
  identical candidate multiset with identical within-target arrival
  order (ascending source id — builders deduplicate and sort arcs), so
  results and counters cannot differ.

* **Improvement pre-filter**: candidates that cannot be adopted —
  target frozen, or candidate distance not below the target's current
  distance — are dropped *before* their center/``dacc`` columns are
  materialized.  This is winner-preserving by the min-distance
  argument: the per-target winner minimizes ``(nd, center, arrival)``
  and the leading key is the distance, so if the winner does not
  improve its target then *no* candidate for that target does, and if
  it does improve then the whole minimal-distance tie set survives the
  filter unchanged.  Accounting still sees the full multiset:
  ``emitted`` (the round's ``messages``), the per-target group
  histogram (the memory-model checks), and the simulated critical path
  are all computed from the unfiltered candidate set.

* **Frozen-emission cache**: under Contract semantics (``rescale ==
  0``) a frozen node's forced-round contribution — ``(target, w,
  center, dacc + w)`` per light arc — is immutable for a fixed Δ.  In
  ``auto`` mode the scratch caches these rows the first forced round
  after each node freezes and replays them afterwards, partitioned into
  *inert* rows (target itself frozen: can never be adopted, contributes
  only to counters and histogram) and *active* rows (target still
  open).  A late forced round therefore costs O(newly-frozen arcs +
  open boundary rows + live-frontier arcs + n) instead of O(m).  The
  cache is replay, not approximation: the replayed multiset equals what
  push would emit, and the dense histogram is maintained incrementally,
  so the accounting stays exact.  Cache replay reorders rows (frozen
  block first), which only an order-free merge may consume — every
  merge (the whole-graph scatter and the sharded workers) breaks ties
  by ``(nd, center, source)``, provably equal to arrival order for
  deduplicated edges.  Contract2 rescaling uses the plain push/pull
  paths, as do the explicit ``push``/``pull`` A/B modes.

The plain expansion survives as the ``emit_frontier`` oracle of
``tests/mr/test_emit.py``; ``tests/mr/test_emit_parity.py`` pits every
executor × emit-mode combination against the test suite's per-key
reference.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.mr import native as _native

__all__ = [
    "EMIT_ENV",
    "EMIT_MODES",
    "PULL_DEGREE_FRACTION",
    "emit_mode",
    "EmitBatch",
    "EmitScratch",
]

NO_CENTER = -1

#: Environment switch for the expansion direction: ``push`` (gather the
#: frontier's rows), ``pull`` (stream all arcs target-major), or
#: ``auto`` (default: direction chosen per round by degree-sum, frozen
#: re-emissions replayed from the cache where legal).
EMIT_ENV = "REPRO_EMIT_MODE"

EMIT_MODES = ("push", "pull", "auto")

#: ``auto`` switches to pull when the emitting frontier's degree-sum
#: exceeds this fraction of the graph's arcs.  Push costs
#: O(frontier arcs) with expansion/repeat overhead per arc; pull costs
#: O(m) in cheaper streaming passes — on the R-MAT measurements the
#: crossover sits near a quarter of the arcs.
PULL_DEGREE_FRACTION = 0.25

_EMPTY_I8 = np.empty(0, dtype=np.int64)
_EMPTY_F8 = np.empty(0, dtype=np.float64)


def emit_mode() -> str:
    """The active expansion direction: ``push``, ``pull`` or ``auto``.

    Read from :data:`EMIT_ENV` on every call so benchmarks and the CI
    parity job can flip directions between runs in one process.  Unset
    or empty means ``auto``; any other value outside
    :data:`EMIT_MODES` is a :class:`~repro.errors.ConfigurationError`
    naming the variable.
    """
    value = os.environ.get(EMIT_ENV) or "auto"
    if value not in EMIT_MODES:
        raise ConfigurationError(
            f"{EMIT_ENV}={value!r} is not an emit mode "
            f"(use one of {', '.join(EMIT_MODES)})"
        )
    return value


class EmitBatch:
    """One round's emitted candidates: filtered columns plus accounting.

    The filtered columns (:attr:`keys`, :attr:`nd`, :attr:`ctr`,
    :attr:`srcf`, :attr:`src`, :attr:`w`, all of length :attr:`count`)
    may be views into the owning scratch's banks and stay valid until
    that scratch's next emit.  Accounting fields describe the
    **unfiltered** multiset: :attr:`emitted` is the round's ``messages``
    count and :attr:`group_keys` / :attr:`group_counts` the per-target
    histogram that the memory-model checks and the critical-path model
    consume.  Cache-replayed rows are not in arrival order, so
    consumers merge by ``(nd, center, source)``.
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
        "group_keys",
        "group_counts",
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
        self.group_keys = _EMPTY_I8
        self.group_counts = _EMPTY_I8


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
    ``indices`` may carry global neighbour ids (shard slices do);
    ``base`` is the global id of local row 0 and ``id_domain`` the size
    of the global id space (defaults to ``base + num_rows``, i.e. the
    whole-graph layout).  All buffers are allocated lazily and grown
    monotonically; :meth:`reset` clears the frozen-emission cache but
    keeps every buffer, so CLUSTER2's second phase (and the sharded
    workers' ``reset`` command) re-run on warm scratch.

    ``arc_sources``, when given, is the arc→row map of the reverse CSR
    (:meth:`repro.graph.csr.CSRGraph.arc_sources_view` — memory-mapped
    from the store's ``rsrc`` section when present); otherwise it is
    computed once on first pull-mode use.

    **Mapped layout** (lp-partitioned shards): when ``row_gids`` is
    given, local row ``r`` is global node ``row_gids[r]`` and the row
    set is *not* contiguous — ``base`` must be 0 and ``localidx`` /
    ``owners`` (the partition sidecars, indexed by global id) and
    ``shard_id`` supply the reverse maps.  The mapped layout keeps the
    native push expansion (its keys come straight from ``indices``) and
    the native frozen-emission cache kernels (which take the sidecars
    as their ownership map), but takes the NumPy pull branch, whose id
    arithmetic assumes contiguity.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        *,
        base: int = 0,
        id_domain: Optional[int] = None,
        arc_sources: Optional[np.ndarray] = None,
        boundary_rows: Optional[np.ndarray] = None,
        boundary_aidx: Optional[np.ndarray] = None,
        row_gids: Optional[np.ndarray] = None,
        localidx: Optional[np.ndarray] = None,
        owners: Optional[np.ndarray] = None,
        shard_id: int = 0,
    ):
        if row_gids is not None and base:
            raise ValueError("mapped layout requires base == 0")
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.base = base
        self.num_rows = len(indptr) - 1
        self.num_arcs = len(indices)
        self.id_domain = (
            int(id_domain) if id_domain is not None else base + self.num_rows
        )
        self.row_gids = row_gids
        self.localidx = localidx
        self.owners = owners
        self.shard_id = shard_id
        # Mapped layouts keep forced-round mask/eff in dedicated local
        # buffers (the contiguous layouts use dense-window views).
        self._m_loc: Optional[np.ndarray] = None
        self._e_loc: Optional[np.ndarray] = None
        self._arc_rows = arc_sources  # local row of every arc slot
        # Boundary slice of a shard: arcs whose target lives on another
        # shard (local source row + absolute arc index per arc).  The
        # pull direction streams local rows target-major — which covers
        # exactly the arcs *into* local targets — so these outward arcs
        # are expanded push-style and appended (see _emit_pull).  Whole-
        # graph layouts have no boundary and leave these None.
        self._b_rows = boundary_rows
        self._b_aidx = boundary_aidx
        self._i8 = _Bank(np.int64)
        self._f8 = _Bank(np.float64)
        self._b1 = _Bank(bool)
        # Dense id-domain buffers (sized to the global id space so shard
        # slices can test global neighbour ids directly).
        self._eff: Optional[np.ndarray] = None
        self._mask: Optional[np.ndarray] = None
        # Dense all-zero histogram for the native accounting pass
        # (rk_count_keys restores the invariant in-kernel).
        self._hist0: Optional[np.ndarray] = None
        # Frozen-emission cache (auto mode, rescale == 0, forced rounds).
        self._cache_delta: Optional[float] = None
        self._cache_in: Optional[np.ndarray] = None
        self._cache_keys = _EMPTY_I8  # active rows: target still open
        self._cache_src = _EMPTY_I8
        self._cache_aidx = _EMPTY_I8
        self._cache_inert = 0  # rows whose target froze: counted, not stored
        self._cache_hist: Optional[np.ndarray] = None  # all cached rows
        # Native-tier cache storage: preallocated capacity columns with
        # an explicit length, so forced rounds append/retire in place
        # instead of reconcatenating the whole cache (the public
        # ``_cache_keys``/``_cache_src``/``_cache_aidx`` become views).
        self._cache_len = 0
        self._cbuf_k: Optional[np.ndarray] = None
        self._cbuf_s: Optional[np.ndarray] = None
        self._cbuf_a: Optional[np.ndarray] = None
        self._degs: Optional[np.ndarray] = None  # static out-degrees
        #: Forced rounds answered from the frozen-emission cache.
        self.cache_hits = 0

    # -- lifecycle ------------------------------------------------------ #

    def reset(self) -> None:
        """Forget cached frozen emissions; keep every buffer allocation."""
        self._cache_delta = None
        if self._cache_in is not None:
            self._cache_in.fill(False)
        if self._cache_hist is not None:
            self._cache_hist.fill(0)
        self._cache_keys = _EMPTY_I8
        self._cache_src = _EMPTY_I8
        self._cache_aidx = _EMPTY_I8
        self._cache_inert = 0
        self._cache_len = 0

    def release_buffers(self) -> None:
        """Free the per-round scratch: banks and dense id-domain buffers.

        Everything dropped here is reallocated on next use with its
        zero-invariant intact (``_dense``/``_hist0`` allocate zeros,
        banks are write-before-read), so correctness is untouched —
        only the high-water allocation is surrendered.  What carries
        cross-round state survives: the frozen-emission cache columns
        and masks, and the static degree column.  The out-of-core
        sharded tier calls this when a shard is evicted so an evicted
        worker's footprint is O(state + cache), not O(its arcs).
        """
        self._i8 = _Bank(np.int64)
        self._f8 = _Bank(np.float64)
        self._b1 = _Bank(bool)
        self._eff = None
        self._mask = None
        self._hist0 = None
        self._m_loc = None
        self._e_loc = None

    def _arc_rows_view(self) -> np.ndarray:
        if self._arc_rows is None:
            self._arc_rows = np.repeat(
                np.arange(self.num_rows, dtype=np.int64), np.diff(self.indptr)
            )
        return self._arc_rows

    def _dense(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._eff is None or len(self._eff) < self.id_domain:
            self._eff = np.zeros(self.id_domain, dtype=np.float64)
            self._mask = np.zeros(self.id_domain, dtype=bool)
        return self._eff[: self.id_domain], self._mask[: self.id_domain]

    # -- direction planning --------------------------------------------- #

    def plan_direction(self, degree_sum: int, mode: str) -> str:
        """Resolve ``auto`` against the frontier degree-sum threshold."""
        if mode != "auto":
            return mode
        if _native.use_native():
            # The C push expansion scans exactly the frontier's
            # degree-sum arcs with zero allocation, so it never loses
            # to a full-arc pull scan (pull exists for the NumPy tier,
            # where push pays for expand/repeat materialization, and
            # for the explicit REPRO_EMIT_MODE=pull A/B switch).  Both
            # directions emit the identical candidate multiset, so the
            # choice cannot perturb results or counters.
            return "push"
        if self.num_arcs and degree_sum > PULL_DEGREE_FRACTION * self.num_arcs:
            return "pull"
        return "push"

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

    def _emit_pull(self, mask: np.ndarray, eff: np.ndarray, delta: float):
        """Stream every arc target-major, keeping arcs whose source emits.

        ``mask``/``eff`` are dense over the global id space.  Candidate
        order is target-major with ascending sources inside each target
        group — the same *within-group* arrival order as push, which is
        the only order the merge tie-break depends on.  Returned
        ``src_local`` assumes emitting sources are local (callers mark
        only local rows in ``mask``).
        """
        arcs = self.num_arcs
        if arcs == 0:
            return _EMPTY_I8, _EMPTY_F8, _EMPTY_I8, _EMPTY_I8, 0
        indices = self.indices
        weights = self.weights
        if _native.use_native() and self.row_gids is None:
            # The native pull kernel derives keys/sources by contiguous
            # id arithmetic; mapped layouts stay on the NumPy branch.
            return self._emit_pull_native(mask, eff, delta)
        em = np.take(mask, indices, out=self._b1.get("pull_em", arcs))
        nd = np.take(eff, indices, out=self._f8.get("pull_nd", arcs))
        nd += weights
        ok = np.less_equal(weights, delta, out=self._b1.get("pull_ok", arcs))
        np.logical_and(ok, em, out=ok)
        np.logical_and(ok, nd <= delta, out=ok)
        count = int(np.count_nonzero(ok))

        # Boundary slice (shard layouts): outward arcs are not rows of
        # this slice, so pull cannot reach them target-major — expand
        # them push-style and append after the local-target block.
        bk = bnd = bsrc = baidx = None
        bcount = 0
        if self._b_aidx is not None and len(self._b_aidx):
            bw = np.take(weights, self._b_aidx)
            if self.row_gids is not None:
                bsrc_g = self.row_gids[self._b_rows]
            else:
                bsrc_g = self._b_rows + self.base if self.base else self._b_rows
            bem = mask[bsrc_g]
            bnd_all = eff[bsrc_g]
            bnd_all = bnd_all + bw
            bok = bem & (bw <= delta) & (bnd_all <= delta)
            bcount = int(np.count_nonzero(bok))
            if bcount:
                bk = np.take(indices, self._b_aidx)[bok]
                bnd = bnd_all[bok]
                bsrc = self._b_rows[bok]
                baidx = self._b_aidx[bok]

        total = count + bcount
        if total == 0:
            return _EMPTY_I8, _EMPTY_F8, _EMPTY_I8, _EMPTY_I8, 0
        keys_c = self._i8.get("full_keys", total)
        nd_c = self._f8.get("full_nd", total)
        src_c = self._i8.get("full_src", total)
        aidx_c = self._i8.get("full_aidx", total)
        if count:
            np.compress(ok, self._arc_rows_view(), out=keys_c[:count])
            if self.row_gids is not None:
                keys_c[:count] = self.row_gids[keys_c[:count]]
            elif self.base:
                keys_c[:count] += self.base
            np.compress(ok, nd, out=nd_c[:count])
            np.compress(ok, indices, out=src_c[:count])
            if self.row_gids is not None:
                src_c[:count] = self.localidx[src_c[:count]]
            elif self.base:
                src_c[:count] -= self.base
            np.compress(ok, self._arange(arcs), out=aidx_c[:count])
        if bcount:
            keys_c[count:total] = bk
            nd_c[count:total] = bnd
            src_c[count:total] = bsrc
            aidx_c[count:total] = baidx
        return keys_c, nd_c, src_c, aidx_c, total

    def _emit_pull_native(self, mask: np.ndarray, eff: np.ndarray, delta: float):
        """Native tier of :meth:`_emit_pull`: same columns, same order.

        The local-target block streams through one C pass over the
        reverse CSR (chunk-threaded over contiguous arc ranges when
        ``REPRO_EMIT_THREADS > 1``); the shard-boundary block — a few
        outward arcs at most — stays in NumPy and is appended after it,
        exactly like the pure path.
        """
        arcs = self.num_arcs
        indices = self.indices
        weights = self.weights

        # Boundary slice first so the banks can be sized for the total.
        bk = bnd = bsrc = baidx = None
        bcount = 0
        if self._b_aidx is not None and len(self._b_aidx):
            bw = np.take(weights, self._b_aidx)
            bsrc_g = self._b_rows + self.base if self.base else self._b_rows
            bem = mask[bsrc_g]
            bnd_all = eff[bsrc_g]
            bnd_all = bnd_all + bw
            bok = bem & (bw <= delta) & (bnd_all <= delta)
            bcount = int(np.count_nonzero(bok))
            if bcount:
                bk = np.take(indices, self._b_aidx)[bok]
                bnd = bnd_all[bok]
                bsrc = self._b_rows[bok]
                baidx = self._b_aidx[bok]

        keys_b = self._i8.get("full_keys", arcs + bcount)
        nd_b = self._f8.get("full_nd", arcs + bcount)
        src_b = self._i8.get("full_src", arcs + bcount)
        aidx_b = self._i8.get("full_aidx", arcs + bcount)
        count = _native.emit_pull_into(
            self._arc_rows_view(), indices, weights, mask, eff, delta,
            self.base, keys_b, nd_b, src_b, aidx_b, _native.emit_threads(),
        )
        total = count + bcount
        if total == 0:
            return _EMPTY_I8, _EMPTY_F8, _EMPTY_I8, _EMPTY_I8, 0
        if bcount:
            keys_b[count:total] = bk
            nd_b[count:total] = bnd
            src_b[count:total] = bsrc
            aidx_b[count:total] = baidx
        return keys_b[:total], nd_b[:total], src_b[:total], aidx_b[:total], total

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
        mode: Optional[str] = None,
        allow_cache: bool = True,
    ):
        """Unfiltered fused expansion: ``(keys, nd, src_local, aidx, emitted)``.

        The scratch-buffered, direction-optimized plain expansion
        (candidate keys, distances and source ids) minus the value-matrix
        materialization; sharded workers route and filter the columns
        themselves (only locally-owned targets can be improvement-
        tested).  State arrays are local; ``keys`` follow ``indices``'
        id space.  On cache-replayed forced rounds ``emitted`` counts
        inert rows too and exceeds the column length; consumers must
        merge order-free (the sharded merge does).
        """
        mode = emit_mode() if mode is None else mode
        if force:
            m_loc, e_loc, degree_sum = self._forced_sets(
                center, dist, frozen, frozen_iter, delta, rescale, iteration
            )
            if allow_cache and rescale == 0.0 and mode == "auto":
                live_loc = m_loc & ~frozen
                live_ids = np.flatnonzero(live_loc)
                live_sum = int(
                    (self.indptr[live_ids + 1] - self.indptr[live_ids]).sum()
                )
                if live_sum <= PULL_DEGREE_FRACTION * self.num_arcs:
                    # Replay frozen emissions from the cache; only the
                    # live frontier expands.  ``emitted`` includes the
                    # inert rows (frozen or external targets) that are
                    # replayed as counts, so it can exceed the column
                    # length — callers must read the returned count.
                    self.cache_hits += 1
                    self._cache_update(frozen, delta)
                    lk, lnd, lsrc, laidx, lcnt = self._emit_push(
                        live_ids, e_loc[live_ids], delta
                    )
                    active = len(self._cache_keys)
                    emitted = self._cache_inert + active + lcnt
                    keys = np.concatenate((self._cache_keys, lk))
                    nd = np.concatenate(
                        (np.take(self.weights, self._cache_aidx), lnd)
                    )
                    src = np.concatenate((self._cache_src, lsrc))
                    aidx = np.concatenate((self._cache_aidx, laidx))
                    return keys, nd, src, aidx, emitted
            if self.plan_direction(degree_sum, mode) == "pull":
                eff, mask = self._pull_dense(m_loc, e_loc)
                return self._emit_pull(mask, eff, delta)
            src = np.flatnonzero(m_loc)
            return self._emit_push(src, e_loc[src], delta)
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
        degs = self.indptr[src + 1] - self.indptr[src]
        if self.plan_direction(int(degs.sum()), mode) == "pull":
            eff, mask = self._dense()
            if self.row_gids is None:
                mask[self.base : self.base + self.num_rows].fill(False)
                mask[src + self.base] = True
                eff[src + self.base] = eff_vals
            else:
                mask[self.row_gids] = False
                gsrc = self.row_gids[src]
                mask[gsrc] = True
                eff[gsrc] = eff_vals
            return self._emit_pull(mask, eff, delta)
        return self._emit_push(src, eff_vals, delta)

    def _local_sets(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row (mask, eff) buffers — dense-window views when the row
        set is contiguous, dedicated local arrays when mapped."""
        if self.row_gids is None:
            eff, mask = self._dense()
            lo, hi = self.base, self.base + self.num_rows
            return mask[lo:hi], eff[lo:hi]
        if self._m_loc is None:
            self._m_loc = np.zeros(self.num_rows, dtype=bool)
            self._e_loc = np.zeros(self.num_rows, dtype=np.float64)
        return self._m_loc, self._e_loc

    def _pull_dense(
        self, m_loc: np.ndarray, e_loc: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Dense global (eff, mask) for the pull direction.

        Contiguous layouts already maintained the dense window in place;
        mapped layouts scatter their local buffers to the rows' global
        positions (clearing only previously-written positions — every
        dense write in mapped mode lands on a ``row_gids`` entry).
        """
        eff, mask = self._dense()
        if self.row_gids is not None:
            mask[self.row_gids] = False
            on = self.row_gids[m_loc]
            mask[on] = True
            eff[on] = e_loc[m_loc]
        return eff, mask

    def _forced_sets(
        self, center, dist, frozen, frozen_iter, delta, rescale, iteration
    ):
        """Per-row emitting mask + effective distances for a forced round."""
        m_loc, e_loc = self._local_sets()
        if self._degs is None:
            self._degs = self.indptr[1:] - self.indptr[:-1]
        if rescale == 0.0 and _native.use_native():
            # One C pass builds mask, eff, and the degree sum together.
            degree_sum = _native.forced_sets(
                center, dist, frozen, self._degs, delta, m_loc, e_loc
            )
            return m_loc, e_loc, degree_sum
        np.not_equal(center, NO_CENTER, out=m_loc)
        np.copyto(e_loc, dist)
        if rescale:
            fidx = np.flatnonzero(frozen)
            e_loc[fidx] = dist[fidx] - rescale * (iteration - frozen_iter[fidx])
        else:
            np.copyto(e_loc, 0.0, where=frozen)
        np.logical_and(m_loc, e_loc < delta, out=m_loc)
        degree_sum = int(np.sum(self._degs, where=m_loc, initial=0))
        return m_loc, e_loc, degree_sum

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
        mode: Optional[str] = None,
        accounting: bool = True,
    ) -> EmitBatch:
        """One round's fused candidate generation (whole-graph layout).

        Semantically the plain expansion (the ``emit_frontier`` oracle of
        ``tests/mr/test_emit.py``) followed by the merge-time discard of
        unadoptable candidates, with the counters and histogram of the
        *unfiltered* emission.  ``sources`` is the active frontier for
        non-forced rounds (local ids, ascending); forced rounds scan all
        nodes.  Explicit ``push``/``pull`` modes disable the
        frozen-emission cache, so the A/B actually exercises the named
        direction.
        """
        if self.base:
            raise ValueError("emit() is the whole-graph layout; use emit_raw")
        batch = EmitBatch()
        mode = emit_mode() if mode is None else mode
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
                mode=mode,
            )
            return self._finish(batch, cols, center, dist, frozen, accounting)

        m_loc, e_loc, degree_sum = self._forced_sets(
            center, dist, frozen, frozen_iter, delta, rescale, iteration
        )
        if rescale == 0.0 and mode == "auto":
            live_loc = m_loc & ~frozen
            live_ids = np.flatnonzero(live_loc)
            live_sum = int(
                (self.indptr[live_ids + 1] - self.indptr[live_ids]).sum()
            )
            if live_sum <= PULL_DEGREE_FRACTION * self.num_arcs:
                return self._emit_forced_cached(
                    batch, live_ids, e_loc, center, dist, frozen, delta,
                    accounting,
                )
        if self.plan_direction(degree_sum, mode) == "pull":
            eff, mask = self._pull_dense(m_loc, e_loc)
            cols = self._emit_pull(mask, eff, delta)
        else:
            src = np.flatnonzero(m_loc)
            cols = self._emit_push(src, e_loc[src], delta)
        return self._finish(batch, cols, center, dist, frozen, accounting)

    def _finish(self, batch, cols, center, dist, frozen, accounting):
        """Shared tail: accounting over the full set, then the filter."""
        keys_c, nd_c, src_c, aidx_c, count = cols
        batch.emitted = count
        if count == 0:
            return batch
        if _native.use_native():
            # Fused finish: one C stream over the candidate columns does
            # the accounting histogram (stamped, ascending — identical
            # to _histogram) AND the improvement filter + column
            # materialization, replacing two full passes with one.
            domain = self.num_rows
            if self._hist0 is None or len(self._hist0) < domain:
                self._hist0 = np.zeros(domain, dtype=np.int64)
            gk_b = self._i8.get("hist_gk", count)
            gc_b = self._i8.get("hist_gc", count)
            f_keys = self._i8.get("f_keys", count)
            f_nd = self._f8.get("f_nd", count)
            f_src = self._i8.get("f_src", count)
            f_w = self._f8.get("f_w", count)
            f_ctr = self._f8.get("f_ctr", count)
            f_srcf = self._f8.get("f_srcf", count)
            kept, g = _native.finish_batch(
                keys_c, nd_c, src_c, aidx_c, dist, frozen,
                self.weights, center,
                self._hist0, gk_b, gc_b, accounting,
                f_keys, f_nd, f_src, f_w, f_ctr, f_srcf,
            )
            if accounting:
                batch.group_keys = gk_b[:g].copy()
                batch.group_counts = gc_b[:g].copy()
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
        if accounting:
            batch.group_keys, batch.group_counts = self._histogram(keys_c)
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

    def _cache_update(self, frozen: np.ndarray, delta: float) -> None:
        """Bring the frozen-emission cache up to the current state.

        1. Append the light arcs of sources frozen since the last
           replay (a frozen source emits at effective distance 0, so
           its candidate distance is the arc weight).  Rows targeting
           another shard's nodes are *immediately* inert: the sharded
           exchange never ships frozen-source candidates (receivers
           regenerate them from replicas), so they only ever count.
        2. Retire rows whose target froze: replayed as counts and
           histogram mass only (a frozen target can never adopt).

        A Δ change invalidates everything — the light-arc filter moved.
        """
        lo, hi = self.base, self.base + self.num_rows
        if self._cache_in is None:
            self._cache_in = np.zeros(self.num_rows, dtype=bool)
            self._cache_hist = np.zeros(self.num_rows, dtype=np.int64)
        if self._cache_delta != delta:
            self._cache_in.fill(False)
            self._cache_hist.fill(0)
            self._cache_keys = _EMPTY_I8
            self._cache_src = _EMPTY_I8
            self._cache_aidx = _EMPTY_I8
            self._cache_inert = 0
            self._cache_len = 0
            self._cache_delta = delta
        if _native.use_native():
            self._cache_update_native(frozen, delta, lo, hi)
            return

        newly = np.flatnonzero(frozen & ~self._cache_in)
        if len(newly):
            k, nd, s, a, cnt = self._emit_push(
                newly, np.zeros(len(newly)), delta
            )
            if cnt:
                if self.row_gids is not None:
                    owned = self.owners[k] == self.shard_id
                else:
                    owned = (k >= lo) & (k < hi)
                ext = cnt - int(np.count_nonzero(owned))
                if ext:
                    self._cache_inert += ext
                    k, s, a = k[owned], s[owned], a[owned]
                if len(k):
                    if self.row_gids is not None:
                        k_loc = self.localidx[k]
                    else:
                        k_loc = k - lo if lo else k
                    if _native.use_native():
                        _native.bincount_into(
                            np.ascontiguousarray(k_loc, dtype=np.int64),
                            self._cache_hist,
                        )
                    else:
                        np.add.at(self._cache_hist, k_loc, 1)
                    self._cache_keys = np.concatenate((self._cache_keys, k))
                    self._cache_src = np.concatenate((self._cache_src, s))
                    self._cache_aidx = np.concatenate((self._cache_aidx, a))
            self._cache_in[newly] = True

        if len(self._cache_keys):
            if self.row_gids is not None:
                loc = self.localidx[self._cache_keys]
            else:
                loc = self._cache_keys - lo if lo else self._cache_keys
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

    def _cache_update_native(self, frozen, delta, lo, hi) -> None:
        """Native cache maintenance: append + retire in place.

        Same append/retire semantics as the NumPy branch, but the cache
        lives in preallocated capacity columns so forced rounds never
        reconcatenate it; ``_cache_keys``/``_cache_src``/``_cache_aidx``
        become prefix views over those columns.  Mapped layouts hand the
        kernels their ``owners``/``localidx`` sidecars for the ownership
        test and the key→row map; contiguous ones pass ``None`` and keep
        the ``[lo, hi)`` range test.
        """
        if len(self._cache_keys) and (
            self._cbuf_k is None or self._cache_keys.base is not self._cbuf_k
        ):
            # The cache was last maintained by the NumPy branch (kernel
            # tier flipped mid-lifetime): resync the capacity columns.
            n = len(self._cache_keys)
            self._cache_len = 0
            self._cache_reserve(n)
            self._cbuf_k[:n] = self._cache_keys
            self._cbuf_s[:n] = self._cache_src
            self._cbuf_a[:n] = self._cache_aidx
            self._cache_len = n

        newly = np.flatnonzero(frozen & ~self._cache_in)
        if len(newly):
            # Fused expansion: frozen sources emit at effective distance
            # 0, so the light/Δ filter and the owned-range append run in
            # one C pass straight into the capacity columns (no
            # intermediate candidate banks).
            bound = int(
                (self.indptr[newly + 1] - self.indptr[newly]).sum()
            )
            self._cache_reserve(self._cache_len + bound)
            appended, cnt = _native.cache_emit(
                self.indptr, self.indices, self.weights, newly,
                delta, lo, hi, self._cache_hist,
                self._cbuf_k, self._cbuf_s, self._cbuf_a,
                self._cache_len,
                owners=self.owners, localidx=self.localidx,
                shard_id=self.shard_id,
            )
            self._cache_inert += cnt - appended
            self._cache_len += appended
            self._cache_in[newly] = True

        if self._cache_len:
            new_len = _native.cache_retire(
                self._cbuf_k, self._cbuf_s, self._cbuf_a,
                self._cache_len, frozen, lo, localidx=self.localidx,
            )
            self._cache_inert += self._cache_len - new_len
            self._cache_len = new_len
        n = self._cache_len
        if n:
            self._cache_keys = self._cbuf_k[:n]
            self._cache_src = self._cbuf_s[:n]
            self._cache_aidx = self._cbuf_a[:n]
        else:
            self._cache_keys = _EMPTY_I8
            self._cache_src = _EMPTY_I8
            self._cache_aidx = _EMPTY_I8

    def _emit_forced_cached(
        self, batch, live_ids, eff, center, dist, frozen, delta, accounting
    ):
        """Forced-round emission replayed from the frozen-emission cache."""
        self.cache_hits += 1
        self._cache_update(frozen, delta)

        # Live (unfrozen assigned) sources expand push-style; the
        # cache path is only taken when their degree-sum is small.
        lk, lnd, lsrc, laidx, lcnt = self._emit_push(live_ids, eff[live_ids], delta)

        f_active = len(self._cache_keys)
        batch.emitted = self._cache_inert + f_active + lcnt
        if batch.emitted == 0:
            return batch

        if accounting:
            hist = self._cache_hist.copy()
            if lcnt:
                if _native.use_native():
                    _native.bincount_into(lk, hist)
                else:
                    np.add.at(hist, lk, 1)
            gk = np.flatnonzero(hist)
            batch.group_keys = gk
            batch.group_counts = hist[gk]

        # 4. Improvement filter: active cache rows first, live rows after
        # (order-free consumers only — recorded on the batch).
        if _native.use_native():
            cap = f_active + lcnt
            b_keys = self._i8.get("fc_keys", cap)
            b_nd = self._f8.get("fc_nd", cap)
            b_src = self._i8.get("fc_src", cap)
            b_aidx = self._i8.get("fc_aidx", cap)
            b_w = self._f8.get("fc_w", cap)
            b_ctr = self._f8.get("fc_ctr", cap)
            b_srcf = self._f8.get("fc_srcf", cap)
            fcnt = 0
            if f_active:
                # Cache rows survive when the arc weight still improves
                # the target; nd is the weight itself (eff = 0).
                fcnt = _native.cache_replay(
                    self._cache_keys, self._cache_src, self._cache_aidx,
                    f_active, self.weights, dist,
                    b_keys, b_nd, b_src, b_aidx,
                )
            lkept = 0
            if lcnt:
                lkept = _native.filter_improve(
                    lk, lnd, lsrc, laidx, dist, frozen,
                    self.weights, center,
                    b_keys[fcnt:], b_nd[fcnt:], b_src[fcnt:],
                    b_w[fcnt:], b_ctr[fcnt:], b_srcf[fcnt:],
                )
            kept = fcnt + lkept
            batch.count = kept
            if kept == 0:
                return batch
            if fcnt:
                # Fill the cache block's materialized columns (the live
                # block's were produced by filter_improve above).
                _native.materialize(
                    b_src[:fcnt], b_aidx[:fcnt], self.weights, center,
                    b_w[:fcnt], b_ctr[:fcnt], b_srcf[:fcnt],
                )
            batch.keys = b_keys[:kept]
            batch.nd = b_nd[:kept]
            batch.src = b_src[:kept]
            batch.w = b_w[:kept]
            batch.ctr = b_ctr[:kept]
            batch.srcf = b_srcf[:kept]
            return batch
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

    # ------------------------------------------------------------------ #

    #: Dense histograms only pay off when the target domain is not far
    #: larger than the batch (mirrors the engine's counting-shuffle
    #: heuristic); skinnier batches sort their few rows instead.
    _HIST_SLACK = 65_536

    def _histogram(self, keys_c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Full-multiset per-target histogram ``(group_keys, counts)``."""
        domain = self.num_rows
        if _native.use_native():
            # One stamped C pass, O(batch + distinct·log distinct): the
            # same (group_keys, counts) values as either branch below.
            if self._hist0 is None or len(self._hist0) < domain:
                self._hist0 = np.zeros(domain, dtype=np.int64)
            gk_b = self._i8.get("hist_gk", len(keys_c))
            gc_b = self._i8.get("hist_gc", len(keys_c))
            g = _native.count_keys(keys_c, self._hist0, gk_b, gc_b)
            return gk_b[:g].copy(), gc_b[:g].copy()
        if domain <= 4 * len(keys_c) + self._HIST_SLACK:
            dense = np.bincount(keys_c, minlength=domain)
            gk = np.flatnonzero(dense)
            counts = dense[gk]
        else:
            gk, counts = np.unique(keys_c, return_counts=True)
        return gk.astype(np.int64), counts.astype(np.int64)
