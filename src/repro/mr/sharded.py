"""Owner-compute sharded execution: persistent shard workers, boundary
exchange.

A whole-graph backend keeps the graph and growing state in one set of
arrays, so its resident set grows with the whole graph.  This module
splits both across persistent shard workers:

* the graph is partitioned once — the locality-aware lp assignment of
  :mod:`repro.graph.partition` — and written as per-shard GraphStore
  files;
* each **persistent worker** memory-maps its shard's CSR rows *once*
  and is an :class:`~repro.mrimpl.growing_mr.ArrayGrowingState` over
  those rows — the same node-state machine the ``vector`` backend runs
  over the whole graph — resident across rounds, stages, and even the
  two phases of CLUSTER2;
* a Δ-growing step becomes: every worker merges the candidates that
  arrived for *its* nodes, adopts winners, expands its local frontier
  through its CSR rows, keeps the candidates whose targets it owns, and
  ships the **cross-shard** candidates to their owners.

Three semantics-preserving boundary-traffic reductions keep the
exchange proportional to the *improving live frontier* rather than the
cut size (see the respective docstrings for the argument):

1. **map-side combining** — at most one candidate per (shard, halo
   target) ships per round;
2. **halo filtering** — a candidate that cannot beat the best value this
   shard already shipped for the target is dropped at the source;
3. **frozen-replica ("ghost") state** — a boundary node's state ships
   *once* when Contract freezes it; from then on every neighbouring
   shard recomputes that node's (now immutable) contributions locally
   from its own symmetric arcs, so the per-stage forced broadcast of
   frozen nodes costs zero bytes.

On top of the candidate-volume reductions, two execution tiers:

* **Locality-aware partitioning**: shards are the multilevel
  label-propagation assignment of
  :func:`repro.mr.partitioner.lp_assignment`, which cuts far fewer
  arcs than contiguous ranges on generator-ordered graphs — smaller
  halos, smaller exchanges.  Node ids are *never* relabeled; the two
  int32 partition sidecars (node→shard, node→local row) supply the
  global↔local maps, so every candidate on the wire still carries
  global ids and results stay bit-identical to the whole-graph
  backends.
* **Out-of-core residency** (``REPRO_SHARD_RESIDENT_MB``): shard CSR
  mmaps are opened/released under an explicit byte budget, so no two
  shards need be resident together and graphs larger than memory
  stream through one shard at a time.  Per-shard growing state
  (O(nodes + cut)) stays resident; only the O(arcs) CSR pages page in
  and out.

Bit-identical results are by construction, not luck: workers inherit
stage control, the apply half of the merge, freezing, singletons, and
snapshots from the whole-graph array state and run the same
:class:`~repro.mr.emit.EmitScratch` kernels, and the merge tie-break is
the order-free equivalent of the engine's stable-first rule: builders
deduplicate edges, so a target receives at most one candidate per
source and "earliest arrival" equals "smallest source id" — the winner
is simply the row minimizing ``(nd, center, source)``.
``tests/mr/test_sharded_parity.py`` asserts equality against ``vector``
and the test suite's per-key reference across shard counts and
residency budgets.

The exchange is the MR shuffle between two rounds: each growing step
runs every worker's :meth:`_ShardWorker.exchange_step` in turn, and the
cross-shard blocks a step produces go back to the driver, which
delivers them with the next step.  No worker reads another shard's
state within a round, so running the shards one after another in the
driver process (:class:`_ShardPool`) computes exactly what concurrent
reducers would; each shard's emit is itself multi-threaded
(``REPRO_EMIT_THREADS``).  The protocol passes explicit arrays only,
so a multi-host transport is a serialization detail, not a rewrite.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import weakref
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, MemoryLimitExceeded
from repro.mr import native as _native
from repro.mr.emit import EmitScratch
from repro.mr.kernels import ScatterScratch, scatter_min_rows
from repro.mrimpl.growing_mr import NO_CENTER, ArrayGrowingState

__all__ = [
    "ShardedExecutor",
    "ShardedGrowingState",
    "RESIDENT_ENV",
]

#: Candidate rows on the wire: ``(nd, center, dacc, source)``.  The
#: source column exists for the order-free merge tie-break; the state
#: kernels consume only the first three columns.
CANDIDATE_WIDTH = 4

#: Out-of-core residency budget in MiB.  When set, shard CSR mmaps are
#: LRU-released so the mapped shard bytes stay under the budget.
RESIDENT_ENV = "REPRO_SHARD_RESIDENT_MB"


def _resident_mb_from_env() -> Optional[float]:
    """The ``REPRO_SHARD_RESIDENT_MB`` budget, or ``None`` when unset."""
    raw = os.environ.get(RESIDENT_ENV)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        value = None
    if value is None or not 0 < value < float("inf"):
        raise ConfigurationError(
            f"{RESIDENT_ENV}={raw!r} is not a positive number of MiB"
        )
    return value


def _check_worker_env() -> None:
    """Fail closed on the kernel knobs the shard steps read, up front.

    ``REPRO_KERNEL_IMPL`` and ``REPRO_EMIT_THREADS`` would otherwise
    surface mid-run, and ``REPRO_NATIVE_BUILD_TIMEOUT_S`` only when the
    library is not yet built; checking all three before partitioning
    raises the :class:`ConfigurationError` naming the variable first.
    """
    from repro.mr.native.build import build_timeout

    _native.requested_impl()
    _native.emit_threads()
    build_timeout()


def _candidate_bytes(blocks) -> int:
    """Payload bytes of a list of ``(keys, values, ...)`` array blocks."""
    return sum(sum(a.nbytes for a in block) for block in blocks)


#: A dense mark over ``[0, domain)`` replaces the sort in
#: :func:`_sorted_unique` while the domain is at most this many times
#: the key count (plus a fixed slack for small inputs).
_DENSE_UNIQUE_FACTOR = 8
_DENSE_UNIQUE_SLACK = 65_536


def _sorted_unique(keys: np.ndarray, domain: int, return_inverse=False):
    """``np.unique(keys[, return_inverse=True])`` for keys in ``[0, domain)``.

    When the domain is not much larger than the key count, a transient
    bool mark (and, for the inverse, a transient rank table) replaces
    the sort: O(domain + len(keys)) instead of O(k log k).  Both
    transients are freed on return, so a shard worker built with this
    keeps no array sized to the global id space.  Values and dtypes
    match ``np.unique``'s.
    """
    if domain > _DENSE_UNIQUE_FACTOR * len(keys) + _DENSE_UNIQUE_SLACK:
        return np.unique(keys, return_inverse=return_inverse)
    mark = np.zeros(domain, dtype=bool)
    mark[keys] = True
    uniq = np.flatnonzero(mark).astype(keys.dtype, copy=False)
    if not return_inverse:
        return uniq
    rank = np.empty(domain, dtype=np.intp)
    rank[uniq] = np.arange(len(uniq))
    return uniq, rank[keys]


class _Ownership:
    """One shard's node-id geometry, from the partition sidecars.

    Everything the worker needs to translate between the global id
    space (candidates on the wire, ``indices`` entries) and its local
    row space (state arrays): ownership and the global→local map come
    from the partition's two memory-mapped int32 sidecars (node→shard
    ``owners`` and node→local-row ``localidx``), shared read-only by
    all workers.  Local row ``r``
    is global node ``row_gids[r]``.

    ``localidx`` is order-preserving (ascending global id ↔ ascending
    local row), which the merge relies on: converting ascending global
    group keys to local ids preserves ascending order, so the merge's
    first-maximum group is the ascending-first one and the inherited
    apply sees ascending target rows.
    """

    __slots__ = (
        "shard_id",
        "num_shards",
        "num_nodes",
        "num_rows",
        "owners",
        "localidx",
        "row_gids",
    )

    def __init__(self, shard_id: int, spec: dict):
        self.shard_id = shard_id
        self.num_shards = int(spec["num_shards"])
        self.num_nodes = int(spec["num_nodes"])
        shape = (self.num_nodes,)
        # Plain ndarray views of the mappings (zero-copy; the view keeps
        # the map alive): the per-step gathers in is_local / owner_of /
        # to_local then skip memmap's subclass wrapping.
        self.owners = np.memmap(
            spec["owners_path"], dtype=np.int32, mode="r", shape=shape
        ).view(np.ndarray)
        self.localidx = np.memmap(
            spec["localidx_path"], dtype=np.int32, mode="r", shape=shape
        ).view(np.ndarray)
        self.row_gids = np.flatnonzero(
            self.owners == np.int32(shard_id)
        ).astype(np.int64)
        self.num_rows = len(self.row_gids)

    def is_local(self, gids: np.ndarray) -> np.ndarray:
        return self.owners[gids] == np.int32(self.shard_id)

    def owner_of(self, gids: np.ndarray) -> np.ndarray:
        return self.owners[gids].astype(np.int64)

    def to_local(self, gids):
        return self.localidx[gids].astype(np.int64)


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #


class _ShardWorker(ArrayGrowingState):
    """One shard-owning worker: :class:`ArrayGrowingState` over its rows.

    Hosted in the driver process by :class:`_ShardPool`.  The node
    state, stage control, freezing, singletons, and checkpoint
    snapshots are the inherited whole-graph code over local rows
    ``[0, num_rows)``, with ``row_gids`` mapping rows to the global ids
    that every exchanged block carries.
    This class adds only what sharding needs: the shard geometry and
    graph residency, the merge of resident and delivered candidates,
    routing of cross-shard candidates through the map-side combine and
    halo filter, and the frozen-replica ghosts.
    """

    def __init__(self, shard_path, shard_id: int, spec: dict):
        from repro.graph.serialize import open_store

        self.shard_path = shard_path
        self.shard_id = shard_id
        own = _Ownership(shard_id, spec)
        self.own = own

        shard = open_store(shard_path)  # local rows, global neighbour ids
        self.graph_open = True
        if shard.num_nodes != own.num_rows:
            raise ValueError(
                f"shard {shard_id}: store has {shard.num_nodes} rows, "
                f"partition assigns {own.num_rows}"
            )

        # The halo: every external node this shard has an arc to — the
        # only possible sources of incoming (and targets of outgoing)
        # cross-shard contributions, thanks to edge symmetry.  Nothing
        # here sorts the boundary: rows come from a binary search of the
        # boundary arcs in indptr, and the halo and boundary pairs are
        # deduplicated by dense marks (see _sorted_unique).
        ext_aidx = np.flatnonzero(~own.is_local(shard.indices))
        # local target of the reverse arc
        self.ext_rows = (
            np.searchsorted(shard.indptr, ext_aidx, side="right") - 1
        )
        self.ext_nbrs = shard.indices[ext_aidx]  # external endpoint
        self.ext_w = shard.weights[ext_aidx]
        self.halo, self.ext_halo_idx = _sorted_unique(
            self.ext_nbrs, own.num_nodes, return_inverse=True
        )

        # Boundary incidence: for each local node with external arcs,
        # the distinct shards owning a neighbour — where its state must
        # be replicated when it freezes.  Distinct (row, owner) pairs in
        # lexicographic order, as one packed key row·K + owner.
        shards = own.num_shards
        pairs = _sorted_unique(
            self.ext_rows * shards + own.owner_of(self.ext_nbrs),
            own.num_rows * shards,
        )
        self.boundary_nodes = pairs // shards  # local rows
        self.boundary_dests = pairs % shards

        super().__init__(shard, own.row_gids)

        #: Halo-sized scatter buffers of the outgoing map-side combine
        #: (ids are halo indices, not local rows).
        self.halo_scratch = ScatterScratch()
        #: Dense histogram of the merge's group accounting, kept
        #: all-zero between rounds.
        self.hist = np.zeros(self.num_rows, dtype=np.int64)
        #: Best ``nd`` shipped per halo node this stage (halo filter).
        self.halo_best = np.full(len(self.halo), np.inf)
        #: This shard's candidates for its own rows, awaiting the next
        #: merge: ``(keys, values)`` or ``None``.
        self.pending = None
        # Frozen-replica ("ghost") state of halo nodes, filled by freeze
        # updates; immutable once set.  Only entries with ``r_frozen``
        # set are ever read.
        self.r_frozen = np.zeros(len(self.halo), dtype=bool)
        self.r_center = np.full(len(self.halo), NO_CENTER, dtype=np.int64)
        self.r_dist = np.full(len(self.halo), np.inf)
        self.r_dacc = np.full(len(self.halo), np.inf)
        self.r_frozen_iter = np.zeros(len(self.halo), dtype=np.int64)

    def _make_emit_scratch(self, graph) -> EmitScratch:
        """Fused emit pipeline over this shard's rows: the mapped layout
        (the sidecar maps), candidate keys still global."""
        own = self.own
        return EmitScratch(
            graph.indptr,
            graph.indices,
            graph.weights,
            row_gids=own.row_gids,
            localidx=own.localidx,
            owners=own.owners,
            shard_id=self.shard_id,
        )

    # -- graph residency (out-of-core tier) ----------------------------- #

    def release_graph(self) -> None:
        """Drop the CSR mmap and arc-domain scratch of this shard.

        Everything that survives (halo, boundary slices, replicas,
        state) is O(nodes + cut); the O(arcs) memory — the
        ``indptr``/``indices``/``weights`` maps *and* the emit
        scratch's candidate banks — is released.  Releasing means
        actually unmapping/freeing — the address space, not just the
        pages, must shrink for a hard ``RLIMIT_AS`` (or a residency
        budget) to be satisfiable.
        """
        if not self.graph_open:
            return
        scratch = self._emit_scratch
        scratch.indptr = scratch.indices = scratch.weights = None
        # Also surrender the arc-domain emit scratch: an evicted shard
        # keeping its candidate banks would pin O(its arcs) of anonymous
        # memory and the out-of-core peak would sum to O(graph) anyway.
        scratch.release_buffers()
        self.graph = None
        self.graph_open = False

    def acquire_graph(self) -> None:
        """Re-map the shard store released by :meth:`release_graph`."""
        if self.graph_open:
            return
        from repro.graph.serialize import open_store

        shard = open_store(self.shard_path)
        self.graph = shard
        scratch = self._emit_scratch
        scratch.indptr = shard.indptr
        scratch.indices = shard.indices
        scratch.weights = shard.weights
        self.graph_open = True

    # -- calls from the driver ---------------------------------------- #

    def reset(self) -> None:
        super().reset()
        self.r_frozen.fill(False)

    def discard_candidates(self) -> None:
        super().discard_candidates()
        self.pending = None
        # Some shipped candidates may now never be merged (or, at a
        # stage start, the receivers' distances were reset), so the
        # shipped-best history no longer proves anything about receiver
        # state; forget it (costs only redundant traffic later).
        self.halo_best.fill(np.inf)

    def _merge(self, cand_keys, cand_values):
        """Per-target winner over this shard's resident candidate batch.

        Wire keys are global; the returned group keys are **local**
        (the state arrays' index space) and stay ascending because both
        ownership layouts keep the global→local map order-preserving.
        Each key comes with its winning row of ``cand_values``, which
        the apply reads in place.
        :func:`~repro.mr.kernels.scatter_min_rows` passes over dense
        per-node buffers (``(nd, center, source)`` tie-break, all three
        columns unique per target — see the module docstring), reusing
        the shard-sized scratch across rounds; the per-group counts
        come from one dense histogram, which also yields the
        memory-model extremes.
        """
        local = self.own.to_local(cand_keys)
        ids, rows = scatter_min_rows(
            local,
            (cand_values[:, 0], cand_values[:, 1], cand_values[:, 3]),
            domain=self.num_rows,
            scratch=self._merge_scratch,
        )
        # Group sizes via the reusable dense histogram (O(C + G), zero
        # allocation beyond the G-sized gather; the buffer keeps its
        # all-zero invariant between rounds).  The counts feed nothing
        # but the memory-model extremes; argmax over ascending distinct
        # ids picks the first-maximum group, as the engine's check does.
        hist = self.hist
        if _native.use_native():
            _native.bincount_into(local, hist)
        else:
            np.add.at(hist, local, 1)
        counts = hist[ids]
        hist[ids] = 0
        at = int(np.argmax(counts))
        return ids, rows, int(counts[at]), int(self.row_gids[ids[at]])

    def apply_replicas(self, ids, center, dist, dacc, iteration):
        idx = np.searchsorted(self.halo, ids)
        self.r_frozen[idx] = True
        self.r_center[idx] = center
        self.r_dist[idx] = dist
        self.r_dacc[idx] = dacc
        self.r_frozen_iter[idx] = iteration

    def exchange_step(
        self, delta, force, rescale, iteration, incoming, replicas
    ):
        """One growing step of this shard."""
        for block in replicas:
            self.apply_replicas(*block)

        # Merge: this shard's resident candidates plus the delivered
        # cross-shard blocks; order is irrelevant (the merge is a min).
        reduce_start = time.perf_counter()
        blocks = [] if self.pending is None else [self.pending]
        blocks += incoming
        self.pending = None
        keys = rows = np.empty(0, dtype=np.int64)
        values = np.empty((0, CANDIDATE_WIDTH))
        merged = sum(len(block[0]) for block in blocks)
        max_group = 0
        max_group_key = -1
        if merged:
            # Column-major, so the merge and the apply read contiguous
            # value columns.
            values = np.concatenate(
                [b[1] for b in blocks],
                out=np.empty((merged, CANDIDATE_WIDTH), order="F"),
            )
            keys, rows, max_group, max_group_key = self._merge(
                np.concatenate([b[0] for b in blocks]), values
            )
        apply_start = time.perf_counter()
        updated, newly = self._apply(
            keys, rows, values[:, 0], values[:, 1], values[:, 2]
        )

        # Emit through the shard's CSR rows, then route by owner: the
        # cross-shard blocks return to the driver, which delivers them
        # with the next step.  The adopted frontier drives non-forced
        # rounds directly.
        emit_start = time.perf_counter()
        emitted, outgoing, pending_blocks = self._emit_fused(
            delta, force, rescale, iteration, None if force else self._active
        )
        if force and len(self.halo):
            ghosts, block = self._ghost_candidates(delta, rescale, iteration)
            emitted += ghosts
            if block is not None:
                pending_blocks.append(block)
        emit_end = time.perf_counter()
        if pending_blocks:
            self.pending = (
                np.concatenate([b[0] for b in pending_blocks]),
                np.concatenate([b[1] for b in pending_blocks]),
            )
        times = {
            "reduce": apply_start - reduce_start,
            "apply": emit_start - apply_start,
            "emit": emit_end - emit_start,
        }
        return {
            "updated": updated,
            "newly": newly,
            "merged": merged,
            "emitted": emitted,
            "groups": len(keys),
            "max_group": max_group,
            "max_group_key": max_group_key,
            "outgoing": outgoing,
            "times": times,
        }

    # -- emission ------------------------------------------------------- #

    def _ghost_candidates(self, delta, rescale, iteration):
        """Regenerate incoming frozen-external contributions locally.

        On a forced round every frozen replica contributes over this
        shard's own (symmetric) boundary arcs, exactly as its owner
        would have emitted them; the owner's push drops those rows.
        Returns ``(messages, block)``: this shard counts the ghost rows
        that are messages — light, within Δ, into an open local row —
        because it holds their targets' frozen bits, and the block
        (``None`` if empty) of those that also improve their target
        joins the resident pending block for the next merge, the same
        timing as shipped candidates.
        """
        if not rescale:
            # Fused fast path (Contract semantics): a ghost's candidate
            # distance is just the arc weight, and ghost targets are
            # locally owned — so one boolean sweep over the boundary
            # arcs applies every filter, including the winner-preserving
            # improvement pre-filter, *before* any large array is
            # compressed.
            li = self.ext_rows
            ok = self.r_frozen[self.ext_halo_idx]
            np.logical_and(ok, self.ext_w <= delta, out=ok)
            np.logical_and(ok, ~self.frozen[li], out=ok)
            messages = int(np.count_nonzero(ok))
            np.logical_and(ok, self.ext_w < self.dist[li], out=ok)
            hidx = self.ext_halo_idx[ok]
            w = self.ext_w[ok]
            nd = w  # nd = 0 + w for a frozen replica
            ghost_rows = li[ok]
        else:
            # Rescaled (Contract2): effective distances first, then the
            # same filters, improvement pre-filter last.
            r_eff = self.r_dist - rescale * (iteration - self.r_frozen_iter)
            emits = self.r_frozen & (r_eff < delta)
            arc = emits[self.ext_halo_idx]
            hidx = self.ext_halo_idx[arc]
            w = self.ext_w[arc]
            nd = r_eff[hidx] + w
            ghost_rows = self.ext_rows[arc]
            ok = (w <= delta) & (nd <= delta)
            ok &= ~self.frozen[ghost_rows]
            messages = int(np.count_nonzero(ok))
            ok &= nd < self.dist[ghost_rows]
            hidx, w, nd = hidx[ok], w[ok], nd[ok]
            ghost_rows = ghost_rows[ok]
        if not len(ghost_rows):
            return messages, None
        values = np.column_stack(
            (
                nd,
                self.r_center[hidx].astype(np.float64),
                self.r_dacc[hidx] + w,
                self.halo[hidx].astype(np.float64),
            )
        )
        return messages, (self.row_gids[ghost_rows], values)

    def _emit_fused(self, delta, force, rescale, iteration, sources):
        """Scratch-buffered fused emission.

        Runs the push expansion of :class:`~repro.mr.emit.EmitScratch`
        over the shard's rows — its rows into frozen local targets and
        from frozen sources into other shards are already dropped — then
        routes: locally-owned targets pass the improvement pre-filter
        (their ``dist`` is resident, so unadoptable rows are dropped
        before their value columns exist — winner-preserving, see
        :mod:`repro.mr.emit`); cross-shard rows into open halo nodes
        (the replicas hold the frozen bits) ship through the combine and
        halo filters.  Returns ``(messages, outgoing, pending_blocks)``
        where ``messages`` counts the local rows plus the shipped rows
        before the combine: with the receivers' ghost rows, every
        message of the whole-graph push is counted on exactly one shard.
        """
        keys, nd, src_local, aidx, count = self._emit_scratch.emit_raw(
            center=self.center,
            dist=self.dist,
            frozen=self.frozen,
            frozen_iter=self.frozen_iter,
            delta=delta,
            force=force,
            rescale=rescale,
            iteration=iteration,
            sources=sources,
        )
        outgoing = []
        pending_blocks = []
        if not count:
            return 0, outgoing, pending_blocks
        local = self.own.is_local(keys)
        weights = self.graph.weights

        # Locally-owned targets (all open): improvement pre-filter, then
        # one resident block with the value columns built per survivor.
        lk = keys[local]
        messages = len(lk)
        lnd = nd[local]
        imp = lnd < self.dist[self.own.to_local(lk)]
        if imp.any():
            lk = lk[imp]
            lsrc = src_local[local][imp]
            block = np.empty((len(lk), CANDIDATE_WIDTH), dtype=np.float64)
            block[:, 0] = lnd[imp]
            block[:, 1] = self.center[lsrc]
            block[:, 2] = self.dacc[lsrc]
            block[:, 2] += np.take(weights, aidx[local][imp])
            block[:, 3] = self.row_gids[lsrc]
            pending_blocks.append((lk.copy(), block))

        # Cross-shard candidates (all from live sources): receiver
        # state is unknown beyond the frozen replicas, so the rows into
        # open halo nodes ship through the combine/halo filters.
        remote = np.flatnonzero(~local)
        hidx = np.searchsorted(self.halo, keys[remote])
        shipped = ~self.r_frozen[hidx]
        remote, hidx = remote[shipped], hidx[shipped]
        messages += len(remote)
        if len(remote):
            rk = keys[remote]
            rem_src = src_local[remote]
            rvals = np.empty((len(rk), CANDIDATE_WIDTH), dtype=np.float64)
            rvals[:, 0] = nd[remote]
            rvals[:, 1] = self.center[rem_src]
            rvals[:, 2] = self.dacc[rem_src]
            rvals[:, 2] += np.take(weights, aidx[remote])
            rvals[:, 3] = self.row_gids[rem_src]
            owners = self.own.owner_of(rk)
            for dest in np.unique(owners):
                mask = owners == dest
                okeys, ovalues = self._combine_outgoing(
                    rk[mask], hidx[mask], rvals[mask]
                )
                if len(okeys):
                    outgoing.append((int(dest), okeys, ovalues))
        return messages, outgoing, pending_blocks

    def _combine_outgoing(self, keys, hidx, values):
        """Shrink one outgoing block to its improving per-target winners.

        Two semantics-preserving reductions before anything crosses the
        boundary:

        1. **Map-side combine** — keep one candidate per target, the
           ``(nd, center, source)``-minimal row.  The receiving merge
           computes a min over all blocks, and a min of per-block mins
           is the same min.
        2. **Halo filter** — drop candidates whose ``nd`` cannot beat
           the best this shard already shipped for the target this
           stage: the receiver merged that earlier candidate in a prior
           round, so its ``dist`` is already <= the earlier ``nd`` and
           a non-improving candidate can never be adopted (nor leave
           any other trace — non-adopted winners are discarded whole).

        Both change only the shipped-bytes accounting (like any
        map-side combiner), never the resulting state.  The combine is
        one :func:`~repro.mr.kernels.scatter_min_rows` over the keys'
        halo indices ``hidx``; the halo is sorted, so the block stays in
        ascending target order.
        """
        idx, rows = scatter_min_rows(
            hidx,
            (values[:, 0], values[:, 1], values[:, 3]),
            domain=len(self.halo),
            scratch=self.halo_scratch,
        )
        nd = values[rows, 0]
        keep = nd < self.halo_best[idx]
        self.halo_best[idx[keep]] = nd[keep]
        rows = rows[keep]
        return keys[rows], values[rows]

    # -- stage control and checkpoints ---------------------------------- #

    def freeze_and_replicate(self, iteration):
        """Contract, then the replica blocks of the newly frozen
        boundary rows: their (now immutable) state ships once, ever, to
        every shard holding them in its halo."""
        nodes = self.boundary_nodes
        newly = (self.center[nodes] != NO_CENTER) & ~self.frozen[nodes]
        count = self.freeze_assigned(iteration)
        nodes = nodes[newly]
        dests = self.boundary_dests[newly]
        outgoing = []
        for dest in np.unique(dests):
            picked = nodes[dests == dest]
            outgoing.append(
                (
                    int(dest),
                    (
                        self.row_gids[picked],
                        self.center[picked],
                        self.dist[picked],
                        self.dacc[picked],
                        iteration,
                    ),
                )
            )
        return count, outgoing

    def restore_arrays(self, arrays):
        """Rehydrate this shard from the *global* checkpoint arrays.

        The inherited restore gathers this shard's rows; the frozen
        halo nodes' replicas are rebuilt here eagerly.  Eager install is
        equivalent to the pending freeze-block delivery an uninterrupted
        run would perform: replicas are immutable once set and nothing
        reads ``r_*`` before the next step's replica-application point,
        by which time the blocks would have arrived anyway.
        """
        super().restore_arrays(arrays)
        ghosts = self.halo[arrays["frozen"][self.halo]]
        self.r_frozen.fill(False)
        self.apply_replicas(
            ghosts,
            arrays["center"][ghosts],
            arrays["dist"][ghosts],
            arrays["dist_acc"][ghosts],
            arrays["frozen_iter"][ghosts],
        )


# --------------------------------------------------------------------- #
# Worker pool
# --------------------------------------------------------------------- #


class _ShardPool:
    """The shard workers, hosted in the driver process.

    Calls run on one worker after another, in shard order.  With no
    ``resident_bytes`` budget every shard's CSR stays mapped.  With one
    (the out-of-core tier) the pool holds shard CSR mmaps open LRU-style
    under the budget: a worker's graph is (re)opened only for its
    growing step — the only call that reads CSR arrays; merge, ghost
    regeneration, and stage control run on resident O(nodes + cut)
    copies — and the coldest open shards are fully unmapped first.  At
    most one shard *needs* to be mapped at a time, so the peak mapped
    footprint is ``max(budget, largest shard)`` no matter how big the
    graph is.  The budget changes when shards are mapped, never what
    they compute.
    """

    def __init__(self, shard_paths, spec, resident_bytes: Optional[int]):
        self.num_shards = len(shard_paths)
        self.resident_bytes = resident_bytes
        self._sizes = [os.path.getsize(p) for p in shard_paths]
        self._open: List[int] = []  # open shard ids, coldest first
        self._open_bytes = 0
        #: High-water marks, surfaced in benchmarks to prove the budget
        #: held (max_open_shards == 1 under a tight budget).
        self.max_resident_bytes = 0
        self.max_open_shards = 0
        self.workers: List[_ShardWorker] = []
        for k, path in enumerate(shard_paths):
            # Construction itself reads the CSR (halo/boundary scans):
            # make room *before* the worker opens its store, so even
            # the build phase respects the budget.
            self._make_room(self._sizes[k])
            self.workers.append(_ShardWorker(str(path), k, spec))
            self._note_open(k)

    def _make_room(self, need: int) -> None:
        if self.resident_bytes is None:
            return
        while self._open and self._open_bytes + need > self.resident_bytes:
            victim = self._open.pop(0)
            self.workers[victim].release_graph()
            self._open_bytes -= self._sizes[victim]

    def _note_open(self, shard: int) -> None:
        self._open.append(shard)
        self._open_bytes += self._sizes[shard]
        self.max_resident_bytes = max(
            self.max_resident_bytes, self._open_bytes
        )
        self.max_open_shards = max(self.max_open_shards, len(self._open))

    def _acquire(self, shard: int) -> None:
        if self.workers[shard].graph_open:
            self._open.remove(shard)
            self._open.append(shard)  # refresh LRU position
            return
        self._make_room(self._sizes[shard])
        self.workers[shard].acquire_graph()
        self._note_open(shard)

    def broadcast(self, method: str, per_worker=None):
        """Call ``method`` on every worker in shard order; the replies.

        ``per_worker`` supplies each worker's argument (a tuple is
        splatted into the call).
        """
        if not self.workers:
            raise RuntimeError("sharded workers are not running")
        replies = []
        for k, worker in enumerate(self.workers):
            if method == "exchange_step":
                self._acquire(k)
            if per_worker is None:
                args = ()
            else:
                args = per_worker[k]
                if not isinstance(args, tuple):
                    args = (args,)
            replies.append(getattr(worker, method)(*args))
        return replies

    def close(self) -> None:
        for worker in self.workers:
            worker.release_graph()
        self.workers = []
        self._open = []
        self._open_bytes = 0


# --------------------------------------------------------------------- #
# Driver side
# --------------------------------------------------------------------- #


class ShardedGrowingState:
    """Driver half of the sharded growing state.

    Implements the same interface as
    :class:`~repro.mrimpl.growing_mr.ArrayGrowingState` (the CLUSTER /
    CLUSTER2 drivers are agnostic), but every array lives in the shard
    workers; the driver holds only the in-flight cross-shard candidate
    blocks and pending replica updates.  Counter accounting mirrors the
    batch path exactly — one engine round per step, ``messages`` = the
    candidates the previous step emitted — so round/step/update/message
    counts match the other backends bit for bit.  ``simulated_time``
    accumulates the owner-compute critical path: the busiest shard's
    merged + produced candidates per step.

    The memory-model checks and ``simulated_time`` are measured against
    the **resident merge the workers actually perform** — that batch
    excludes locally-filtered unadoptable candidates, so these two
    quantities are not comparable to the engine-managed backends (the
    critical path here is the owner-compute model, reported but never
    cross-compared — see ``docs/mr_model.md`` §3); results and the
    rounds/messages/updates counters remain bit-identical everywhere.
    """

    def __init__(self, graph, engine, executor: "ShardedExecutor"):
        self.num_nodes = graph.num_nodes
        self.engine = engine
        self.executor = executor
        executor._ensure_workers(graph)
        self.plan = executor.plan
        executor._broadcast("reset")
        # The resolved kernel tier the shard steps will run, for the
        # benchmark records (outside the comparable snapshot).
        engine.counters.impl.update(_native.resolved_info())
        # remote[dest] -> list of (keys, values) awaiting delivery.
        self._remote: Dict[int, List] = {}
        # replica_updates[dest] -> list of freeze blocks to deliver.
        self._replica_updates: Dict[int, List] = {}
        self._emitted_last = 0

    # -- growing-state interface --------------------------------------- #

    def uncovered(self) -> np.ndarray:
        parts = self.executor._broadcast("uncovered")
        if not parts:
            return np.empty(0, np.int64)
        # Each shard's block is ascending, but shard row sets need not
        # be contiguous, so the concatenation is not — and the
        # drivers' seeded sampling depends on the order.
        return np.sort(np.concatenate(parts))

    def begin_stage(self, picks: np.ndarray) -> None:
        picks = np.asarray(picks, dtype=np.int64)
        owners = self.plan.owner_of(picks)
        self.executor._broadcast(
            "begin_stage",
            per_worker=[
                picks[owners == k] for k in range(self.executor.num_shards)
            ],
        )

    def step(
        self,
        engine,
        delta: float,
        *,
        force: bool = False,
        rescale: float = 0.0,
        iteration: int = 0,
    ) -> Tuple[int, int]:
        num_shards = self.executor.num_shards
        deliver, self._remote = self._remote, {}
        replicas, self._replica_updates = self._replica_updates, {}
        per_worker = []
        shipped = 0
        for k in range(num_shards):
            incoming = deliver.get(k, [])
            ghosts = replicas.get(k, [])
            shipped += _candidate_bytes(incoming)
            shipped += sum(
                sum(np.asarray(a).nbytes for a in block[:4])
                for block in ghosts
            )
            per_worker.append(
                (delta, force, rescale, iteration, incoming, ghosts)
            )
        # Fixed per-worker step overhead (the step parameters), so the
        # accounting never reads zero on an idle round.
        shipped += 64 * num_shards
        step_start = time.perf_counter()
        replies = self.executor._broadcast("exchange_step", per_worker)
        step_wall = time.perf_counter() - step_start
        # Per-phase timers: the shards step one after another, so each
        # worker-reported phase costs the sum over shards; the rest of
        # the step wall — routing and concatenating the exchanged
        # blocks — is booked as shuffle.
        compute = 0.0
        for phase in ("emit", "reduce", "apply"):
            total = sum(r["times"][phase] for r in replies)
            engine.counters.add_time(phase, total)
            compute += total
        engine.counters.add_time("shuffle", max(0.0, step_wall - compute))

        merged = sum(r["merged"] for r in replies)
        updated = sum(r["updated"] for r in replies)
        newly = sum(r["newly"] for r in replies)
        produced = 0
        for reply in replies:
            for dest, keys, values in reply["outgoing"]:
                self._remote.setdefault(dest, []).append((keys, values))
                produced += keys.nbytes + values.nbytes

        # Memory-model enforcement, mirroring MREngine.round_batch for a
        # width-3 candidate batch (1 key word + 3 payload words per pair;
        # the wire-format source column is bookkeeping, not payload).
        words_per_pair = 4
        if engine.enforce_memory:
            if merged * words_per_pair > engine.spec.total_memory:
                raise MemoryLimitExceeded(
                    merged * words_per_pair, engine.spec.total_memory
                )
            worst = max((r["max_group"] for r in replies), default=0)
            if worst * words_per_pair > engine.spec.local_memory:
                bad = max(replies, key=lambda r: r["max_group"])
                raise MemoryLimitExceeded(
                    worst * words_per_pair,
                    engine.spec.local_memory,
                    bad["max_group_key"],
                )

        # ``messages`` is the round's shuffled-candidate count exactly as
        # the unsharded engine counts it: what the previous step emitted.
        engine.counters.record_round(messages=self._emitted_last, updates=0)
        self._emitted_last = sum(r["emitted"] for r in replies)
        if merged:
            engine.simulated_time += max(
                r["merged"] + r["groups"] for r in replies
            )
        engine.counters.updates += updated
        engine.counters.growing_steps += 1
        self.executor.bytes_shipped_per_round.append(shipped)
        self.executor.bytes_exchanged_per_round.append(shipped + produced)
        return updated, newly

    def in_flight(self) -> bool:
        return self._emitted_last > 0

    def discard_candidates(self) -> None:
        self._remote = {}
        self._emitted_last = 0
        self.executor._broadcast("discard_candidates")

    def freeze_assigned(self, iteration: int = 0) -> int:
        replies = self.executor._broadcast(
            "freeze_and_replicate",
            per_worker=[iteration] * self.executor.num_shards,
        )
        total = 0
        for count, outgoing in replies:
            total += count
            for dest, block in outgoing:
                self._replica_updates.setdefault(dest, []).append(block)
        return total

    def make_singletons(self, iteration: int = 0) -> int:
        return sum(
            self.executor._broadcast(
                "make_singletons",
                per_worker=[iteration] * self.executor.num_shards,
            )
        )

    def result(self) -> Tuple[np.ndarray, np.ndarray]:
        arrays = self.snapshot_arrays()
        return arrays["center"], arrays["dist_acc"]

    # -- checkpoint support --------------------------------------------- #

    def snapshot_arrays(self) -> Dict[str, np.ndarray]:
        """Stitch the workers' state slices into the global checkpoint arrays.

        Shard ``k``'s rows are the global ids ``plan.shard_rows(k)``,
        whichever the layout.  Safe points only (the drivers guarantee
        no in-flight candidates and empty replica queues) — the
        snapshot is then portable to any backend, including resuming a
        sharded run under ``vector``.
        """
        arrays: Dict[str, np.ndarray] = {}
        for k, part in enumerate(self.executor._broadcast("snapshot_arrays")):
            rows = self.plan.shard_rows(k)
            for name, column in part.items():
                if name not in arrays:
                    arrays[name] = np.empty(self.num_nodes, column.dtype)
                arrays[name][rows] = column
        return arrays

    def restore_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Rehydrate every worker from the global checkpoint arrays.

        Each worker gathers its own rows and rebuilds its frozen-replica
        ghosts; the driver's in-flight routing state is cleared — at a
        safe point an uninterrupted run holds none either.
        """
        self.executor._broadcast(
            "restore_arrays",
            per_worker=[(arrays,)] * self.executor.num_shards,
        )
        self._remote = {}
        self._replica_updates = {}
        self._emitted_last = 0


class ShardedExecutor:
    """Owner-compute backend: persistent shard workers, boundary exchange.

    Construction is cheap; workers start lazily on first use (when a
    driver asks for a growing state) and persist until :meth:`close` —
    across stages, Δ doublings, and both phases of CLUSTER2.  Each
    worker memory-maps one ``part-k.rcsr`` of the graph's partitioned
    store (created on demand via
    :func:`repro.graph.partition.ensure_partitioned`; in-memory graphs
    are spilled to a private temp store first).

    Engine integration: batch rounds other than the growing steps
    (e.g. the quotient construction) run vectorized in the driver
    process, as on every engine; only growing steps use the
    owner-compute protocol.

    Parameters
    ----------
    num_shards:
        Worker/shard count (default: CPU count).
    resident_mb:
        Out-of-core residency budget in MiB (env
        ``REPRO_SHARD_RESIDENT_MB``).  When set, shard CSR mmaps are
        LRU-released to keep the mapped bytes under the budget — the
        big-graph tier.  Unset, every shard stays mapped.

    Attributes
    ----------
    plan:
        The :class:`~repro.graph.partition.PartitionPlan` in effect
        (after the workers start).
    bytes_shipped_per_round:
        Bytes delivered to workers each growing step: the cross-shard
        candidate blocks of the previous step plus one-time
        frozen-replica updates — the boundary exchange the sharded
        architecture exists to shrink.
    bytes_exchanged_per_round:
        Same plus the boundary candidates produced that step (both
        directions of the exchange).
    """

    #: Marks this executor as building its own growing state
    #: (see :func:`repro.mrimpl.growing_mr.make_growing_state`).
    owns_growing_state = True

    def __init__(
        self,
        num_shards: Optional[int] = None,
        *,
        resident_mb: Optional[float] = None,
    ):
        if num_shards is not None and num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards or os.cpu_count() or 1
        if resident_mb is None:
            resident_mb = _resident_mb_from_env()
        if resident_mb is not None and resident_mb <= 0:
            raise ValueError("resident_mb must be > 0")
        self.resident_bytes = (
            int(resident_mb * 1024 * 1024) if resident_mb is not None else None
        )
        self.plan = None
        self.partitioned = None
        self.bytes_shipped_per_round: List[int] = []
        self.bytes_exchanged_per_round: List[int] = []
        self._graph = None
        self._pool = None
        self._tmpdir: Optional[str] = None
        self._finalizer = None
        self.spawn_count = 0

    @property
    def bytes_shipped(self) -> int:
        return sum(self.bytes_shipped_per_round)

    @property
    def max_resident_bytes(self) -> Optional[int]:
        """Peak mapped shard bytes (``None`` before the workers start)."""
        return getattr(self._pool, "max_resident_bytes", None)

    @property
    def max_open_shards(self) -> Optional[int]:
        """Peak concurrently-mapped shard count (``None`` before start)."""
        return getattr(self._pool, "max_open_shards", None)

    # -- growing-state factory ----------------------------------------- #

    def growing_state(self, graph, engine) -> ShardedGrowingState:
        return ShardedGrowingState(graph, engine, self)

    # -- worker lifecycle ----------------------------------------------- #

    def _ensure_workers(self, graph) -> None:
        if self._pool is not None and self._graph is graph:
            return
        _check_worker_env()
        self.close()
        from repro.graph.partition import (
            ASSIGNMENT_NAME,
            LOCALIDX_NAME,
            ensure_partitioned,
        )
        from repro.graph.serialize import write_store

        if graph.is_mmap and graph.store_path is not None:
            store_path = Path(graph.store_path)
        else:
            self._tmpdir = tempfile.mkdtemp(prefix="repro-sharded-")
            store_path = Path(self._tmpdir) / "graph.rcsr"
            write_store(graph, store_path)
        try:
            self.partitioned = ensure_partitioned(
                store_path, self.num_shards, graph=graph
            )
        except OSError:
            # Store directory not writable (read-only datasets): fall
            # back to a private temp partition.
            if self._tmpdir is None:
                self._tmpdir = tempfile.mkdtemp(prefix="repro-sharded-")
            self.partitioned = ensure_partitioned(
                store_path,
                self.num_shards,
                graph=graph,
                directory=Path(self._tmpdir) / "shards",
            )
        self.plan = self.partitioned.plan
        directory = Path(self.partitioned.directory)
        spec = {
            "num_shards": self.num_shards,
            "num_nodes": int(graph.num_nodes),
            "owners_path": str(directory / ASSIGNMENT_NAME),
            "localidx_path": str(directory / LOCALIDX_NAME),
        }
        shard_paths = [str(p) for p in self.partitioned.shard_paths]
        self._pool = _ShardPool(shard_paths, spec, self.resident_bytes)
        self.spawn_count += 1
        self._graph = graph
        self._finalizer = weakref.finalize(
            self, self._cleanup, self._pool, self._tmpdir
        )

    def _broadcast(self, method: str, per_worker=None):
        if self._pool is None:
            raise RuntimeError("sharded workers are not running")
        return self._pool.broadcast(method, per_worker)

    @staticmethod
    def _cleanup(pool, tmpdir) -> None:
        if pool is not None:
            pool.close()
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)

    def close(self) -> None:
        """Release the shard workers and remove any private temp store."""
        if self._finalizer is not None:
            self._finalizer()  # runs _cleanup once, then detaches
            self._finalizer = None
        elif self._pool is not None or self._tmpdir is not None:
            # No finalizer yet: the pool failed to start (e.g. a shard
            # store failed to open) after the private temp store was
            # written.
            self._cleanup(self._pool, self._tmpdir)
        self._pool = None
        self._tmpdir = None
        self._graph = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
