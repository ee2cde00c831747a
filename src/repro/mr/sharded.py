"""Owner-compute sharded execution: persistent workers, boundary exchange.

A single-process backend keeps the whole graph and growing state in
one address space, so it cannot run a graph larger than one machine's
memory.  This module splits both across persistent workers:

* the graph is partitioned once — contiguous node ranges or the
  locality-aware lp assignment (:mod:`repro.graph.partition`) — and
  written as per-shard GraphStore files;
* each **persistent worker** memory-maps its shard's CSR rows *once*
  and keeps its slice of the growing state
  (:class:`~repro.core.state.ClusterState` + a ``changed`` mask)
  resident across rounds, stages, and even the two phases of CLUSTER2;
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

On top of the candidate-volume reductions, three execution tiers:

* **Locality-aware partitioning** (``partitioner="lp"``, the backend
  default): shards are the multilevel label-propagation assignment of
  :func:`repro.mr.partitioner.lp_assignment`, which cuts far fewer
  arcs than contiguous ranges on generator-ordered graphs — smaller
  halos, smaller exchanges.  Node ids are *never* relabeled; the two
  int32 partition sidecars (node→shard, node→local row) supply the
  global↔local maps, so every candidate on the wire still carries
  global ids and results stay bit-identical across partitioners.
* **Compute/exchange overlap** (``exchange="async"``, the default with
  >1 process worker): workers emit their *boundary* frontier first,
  hand the outgoing blocks to per-peer sender threads, then expand the
  interior frontier while the pipes drain.  Arrivals are collected at
  the end of the step and merge next step — exactly when the serial
  driver would have delivered them — so the overlap changes wall-clock
  only, never results (the merge is order-free, see below).
* **Out-of-core residency** (``REPRO_SHARD_RESIDENT_MB``): workers run
  sequentially in-process and their CSR mmaps are opened/released
  under an explicit byte budget, so no two shards need be resident
  together and graphs larger than memory stream through one shard at
  a time.  Per-shard growing state (O(nodes + cut)) stays resident;
  only the O(arcs) CSR pages page in and out.

Bit-identical results are by construction, not luck: workers run the
same :func:`~repro.mrimpl.growing_mr.apply_merged_candidates` and
:class:`~repro.mr.emit.EmitScratch` kernels as the whole-graph array
state, and the merge tie-break is the order-free
equivalent of the engine's stable-first rule: builders deduplicate
edges, so a target receives at most one candidate per source and
"earliest arrival" equals "smallest source id" — the winner is simply
the row minimizing ``(nd, center, source)``.  ``tests/mr/
test_sharded_parity.py`` asserts equality against ``serial``/``vector``
across shard counts, partitioners, and exchange modes.

The exchange transport is pipes (pickled NumPy arrays): driver↔worker
for commands and results, worker↔worker for the async candidate mesh.
On one host this costs one copy each way; the point of the architecture
is that the protocol is already message-passing over explicit byte
streams, so a multi-host transport is a serialization detail, not a
rewrite.
"""

from __future__ import annotations

import os
import queue
import shutil
import tempfile
import threading
import weakref
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, MemoryLimitExceeded, WorkerFailure
from repro.mr import native as _native

__all__ = [
    "ShardedExecutor",
    "ShardedGrowingState",
    "EXCHANGE_ENV",
    "PARTITIONER_ENV",
    "RESIDENT_ENV",
    "WORKER_TIMEOUT_ENV",
]

#: Candidate rows on the wire: ``(nd, center, dacc, source)``.  The
#: source column exists for the order-free merge tie-break; the state
#: kernels consume only the first three columns.
CANDIDATE_WIDTH = 4

#: Exchange mode override: ``async`` (default) overlaps boundary
#: shipping with interior expansion; ``serial`` routes every candidate
#: through the driver (the A/B baseline, and the only mode of the
#: in-process out-of-core pool).
EXCHANGE_ENV = "REPRO_SHARD_EXCHANGE"

#: Partitioner override for the sharded backend: ``lp`` (default) or
#: ``range``.  Library callers of ``ensure_partitioned`` still default
#: to ``range``; only this backend opts into lp.
PARTITIONER_ENV = "REPRO_SHARD_PARTITIONER"

#: Out-of-core residency budget in MiB.  When set, shard workers run
#: sequentially in-process and their CSR mmaps are LRU-released so the
#: mapped shard bytes stay under the budget.
RESIDENT_ENV = "REPRO_SHARD_RESIDENT_MB"

#: Per-command worker deadline in seconds (default 60).  A worker that
#: neither replies nor heartbeats within the window is declared dead
#: and the whole pool is torn down with a
#: :class:`~repro.errors.WorkerFailure` for the recovery loop.
WORKER_TIMEOUT_ENV = "REPRO_WORKER_TIMEOUT_S"

#: Kernel-selection environment, re-applied in every worker on each
#: ``reset`` broadcast: persistent workers outlive driver-side env
#: changes (tests and the runner's ``impl_overrides`` both mutate
#: these between runs), so the driver ships its snapshot along.
_KERNEL_ENV_KEYS = (
    "REPRO_KERNEL_IMPL",
    "REPRO_NATIVE_DISABLE",
    "REPRO_EMIT_THREADS",
    "REPRO_EMIT_MODE",
)


def _empty_candidates() -> Tuple[np.ndarray, np.ndarray]:
    return (
        np.empty(0, dtype=np.int64),
        np.empty((0, CANDIDATE_WIDTH), dtype=np.float64),
    )


def _candidate_bytes(blocks) -> int:
    """Payload bytes of a list of ``(keys, values, ...)`` array blocks."""
    return sum(sum(a.nbytes for a in block) for block in blocks)


def _min_by_target(keys: np.ndarray, values: np.ndarray):
    """Per distinct target, the row minimizing ``(nd, center, source)``.

    The order-free form of the engine's merge: ``group_min_first`` keeps
    the *earliest* row among those minimizing ``(nd, center)``, and with
    at most one candidate per (source, target) arrival order within a
    target group is ascending source order — so "earliest minimal"
    equals "minimal ``(nd, center, source)``".  Returns ``(group_keys,
    winner_values)``.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_values = values[order]
    starts = np.concatenate(
        ([0], np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1)
    ).astype(np.int64)
    counts = np.diff(np.concatenate((starts, [len(sorted_keys)])))
    gid = np.repeat(np.arange(len(starts), dtype=np.int64), counts)
    rank = np.lexsort(
        (sorted_values[:, 3], sorted_values[:, 1], sorted_values[:, 0], gid)
    )
    return sorted_keys[starts], sorted_values[rank[starts]]


class _Ownership:
    """One shard's node-id geometry under either partitioner.

    Everything the worker needs to translate between the global id
    space (candidates on the wire, ``indices`` entries) and its local
    row space (state arrays):

    * ``range`` — local row ``r`` is global node ``lo + r``; ownership
      and both maps are arithmetic on the ``starts`` boundaries.
    * ``lp`` — local row ``r`` is global node ``row_gids[r]``; the maps
      come from the partition's two memory-mapped int32 sidecars
      (node→shard ``owners`` and node→local-row ``localidx``), shared
      read-only across all forked workers through the page cache.

    Both layouts keep ``localidx`` order-preserving (ascending global
    id ↔ ascending local row), which the merge relies on: converting
    ascending global group keys to local ids preserves ascending order,
    so the merge's first-maximum group is the ascending-first one and
    ``apply_merged_candidates`` sees its documented ordering.
    """

    __slots__ = (
        "mode",
        "shard_id",
        "num_shards",
        "num_nodes",
        "num_rows",
        "lo",
        "hi",
        "starts",
        "splitters",
        "owners",
        "localidx",
        "row_gids",
    )

    def __init__(self, shard_id: int, spec: dict):
        self.mode = spec["mode"]
        self.shard_id = shard_id
        if self.mode == "range":
            starts = np.asarray(spec["starts"], dtype=np.int64)
            self.starts = starts
            self.splitters = starts[1:-1]
            self.num_shards = len(starts) - 1
            self.num_nodes = int(starts[-1])
            self.lo = int(starts[shard_id])
            self.hi = int(starts[shard_id + 1])
            self.num_rows = self.hi - self.lo
            self.owners = None
            self.localidx = None
            self.row_gids = None
        elif self.mode == "lp":
            self.num_shards = int(spec["num_shards"])
            self.num_nodes = int(spec["num_nodes"])
            shape = (self.num_nodes,)
            self.owners = np.memmap(
                spec["owners_path"], dtype=np.int32, mode="r", shape=shape
            )
            self.localidx = np.memmap(
                spec["localidx_path"], dtype=np.int32, mode="r", shape=shape
            )
            self.row_gids = np.flatnonzero(
                self.owners == np.int32(shard_id)
            ).astype(np.int64)
            self.num_rows = len(self.row_gids)
            self.lo = self.hi = -1
            self.starts = self.splitters = None
        else:  # pragma: no cover - driver validates first
            raise ValueError(f"unknown partition mode {self.mode!r}")

    def is_local(self, gids: np.ndarray) -> np.ndarray:
        if self.mode == "range":
            return (gids >= self.lo) & (gids < self.hi)
        return self.owners[gids] == np.int32(self.shard_id)

    def owner_of(self, gids: np.ndarray) -> np.ndarray:
        if self.mode == "range":
            from repro.mr.partitioner import range_partition_array

            return range_partition_array(gids, self.splitters)
        return self.owners[gids].astype(np.int64)

    def to_local(self, gids):
        if self.mode == "range":
            return gids - self.lo
        return self.localidx[gids].astype(np.int64)

    def to_global(self, lids):
        if self.mode == "range":
            return lids + self.lo
        return self.row_gids[lids]


def _sender_loop(send_queue: "queue.Queue", conn) -> None:
    """Drain one peer's outgoing queue (a worker-side sender thread).

    One thread per destination pipe: with a single shared sender a full
    pipe to a slow peer would stall shipping to every other peer, and a
    cycle of full pipes could deadlock the mesh.  Per-destination
    threads make every send independent, and since each worker receives
    exactly one message per peer per step before the driver's barrier,
    every queued send is eventually drained.  ``None`` is the shutdown
    sentinel; payloads travel wrapped in a 1-tuple so ``(None,)`` — "no
    candidates this step" — stays distinct from it.
    """
    while True:
        item = send_queue.get()
        if item is None:
            break
        try:
            conn.send(item[0])
        except (OSError, ValueError):  # peer gone: shutdown in progress
            break


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #


class _ShardWorker:
    """State and step logic of one shard-owning worker.

    Lives in a forked worker process under :class:`_PipePool` (commands
    arrive over a pipe) or directly in the driver process under
    :class:`_InprocPool` (the out-of-core tier).  All node ids crossing
    a pipe are global; state arrays are local rows ``[0, num_rows)``
    mapped to global ids by :class:`_Ownership`.
    """

    def __init__(
        self,
        shard_path,
        shard_id: int,
        spec: dict,
        peer_conns: Optional[dict] = None,
        exchange: str = "serial",
        in_process: bool = False,
    ):
        from repro.graph.serialize import open_store
        from repro.mr.emit import EmitScratch

        self.shard_path = shard_path
        self.shard_id = shard_id
        #: Whether this worker shares the driver's process (_InprocPool):
        #: injected faults then raise instead of ``os._exit`` — exiting
        #: would take the driver down with the "worker".
        self.in_process = in_process
        own = _Ownership(shard_id, spec)
        self.own = own

        shard = open_store(shard_path)  # local rows, global neighbour ids
        self.indptr = shard.indptr
        self.indices = shard.indices
        self.weights = shard.weights
        self._shard = shard  # keeps the mmap alive
        self._rsrc_from_store = shard.rsrc is not None
        self.graph_open = True
        num_rows = len(self.indptr) - 1
        if num_rows != own.num_rows:
            raise ValueError(
                f"shard {shard_id}: store has {num_rows} rows, "
                f"partition assigns {own.num_rows}"
            )
        self.num_rows = num_rows
        self.state = None  # allocated by the reset() below

        # The halo: every external node this shard has an arc to — the
        # only possible sources of incoming (and targets of outgoing)
        # cross-shard contributions, thanks to edge symmetry.
        external = np.flatnonzero(~own.is_local(self.indices))
        degrees = np.diff(self.indptr)
        rows = np.repeat(np.arange(num_rows, dtype=np.int64), degrees)
        self.ext_rows = rows[external]  # local target of the reverse arc
        self.ext_nbrs = self.indices[external]  # external endpoint
        self.ext_w = self.weights[external]
        self.halo = np.unique(self.ext_nbrs)
        self.ext_halo_idx = np.searchsorted(self.halo, self.ext_nbrs)
        #: Rows with at least one external arc — the only rows whose
        #: emission can produce cross-shard candidates; the async
        #: exchange emits them first so the pipes fill while the
        #: interior expands.
        self.is_boundary_row = np.zeros(num_rows, dtype=bool)
        self.is_boundary_row[self.ext_rows] = True

        #: Fused emit pipeline over this shard's rows: scratch-buffered
        #: push/pull expansion.  The reverse-CSR arc→row map memory-maps
        #: from the shard store's ``rsrc`` section when present
        #: (partitions written by this version carry it), and the
        #: boundary slice (outward arcs pull cannot reach target-major)
        #: stays resident as ``ext_rows`` + arc positions.  Under lp the
        #: scratch takes the mapped layout: ``base=0`` plus the sidecar
        #: maps, candidate keys still global.
        scratch_args = dict(
            id_domain=own.num_nodes,
            arc_sources=shard.rsrc,
            boundary_rows=self.ext_rows,
            boundary_aidx=external,
        )
        if own.mode == "range":
            scratch_args["base"] = own.lo
        else:
            scratch_args.update(
                row_gids=own.row_gids,
                localidx=own.localidx,
                owners=own.owners,
                shard_id=shard_id,
            )
        self.emit_scratch = EmitScratch(
            self.indptr, self.indices, self.weights, **scratch_args
        )

        # Boundary incidence: for each local node with external arcs,
        # the distinct shards owning a neighbour — where its state must
        # be replicated when it freezes.
        if len(external):
            owners = own.owner_of(self.ext_nbrs)
            pairs = np.unique(
                np.stack((self.ext_rows, owners), axis=1), axis=0
            )
            self.boundary_nodes = pairs[:, 0]  # local rows
            self.boundary_dests = pairs[:, 1]
        else:
            self.boundary_nodes = np.empty(0, dtype=np.int64)
            self.boundary_dests = np.empty(0, dtype=np.int64)

        # Async exchange plumbing: one duplex pipe and one sender
        # thread per peer (see _sender_loop for the deadlock argument).
        self.peer_conns = dict(peer_conns) if peer_conns else {}
        self.exchange = exchange
        self._async_on = exchange == "async" and bool(self.peer_conns)
        self._send_queues: Dict[int, queue.Queue] = {}
        self._sender_threads: List[threading.Thread] = []
        if self._async_on:
            for dest in sorted(self.peer_conns):
                send_queue: queue.Queue = queue.Queue()
                thread = threading.Thread(
                    target=_sender_loop,
                    args=(send_queue, self.peer_conns[dest]),
                    daemon=True,
                )
                thread.start()
                self._send_queues[dest] = send_queue
                self._sender_threads.append(thread)
        self._shipped_this_step = False
        self.reset()

    # -- graph residency (out-of-core tier) ----------------------------- #

    def release_graph(self) -> None:
        """Drop the CSR mmap and arc-domain scratch of this shard.

        Everything that survives (halo, boundary slices, frozen-emission
        cache, state slice) is O(nodes + cut); the O(arcs) memory —
        the ``indptr``/``indices``/``weights``/``rsrc`` maps *and* the
        emit scratch's candidate banks — is released.  Releasing means
        actually unmapping/freeing — the address space, not just the
        pages, must shrink for a hard ``RLIMIT_AS`` (or a residency
        budget) to be satisfiable.
        """
        if not self.graph_open:
            return
        scratch = self.emit_scratch
        scratch.indptr = scratch.indices = scratch.weights = None
        if self._rsrc_from_store:
            scratch._arc_rows = None
        # Also surrender the arc-domain emit scratch: an evicted shard
        # keeping its candidate banks would pin O(its arcs) of anonymous
        # memory and the out-of-core peak would sum to O(graph) anyway.
        scratch.release_buffers()
        self.indptr = self.indices = self.weights = None
        self._shard = None
        self.graph_open = False

    def acquire_graph(self) -> None:
        """Re-map the shard store released by :meth:`release_graph`."""
        if self.graph_open:
            return
        from repro.graph.serialize import open_store

        shard = open_store(self.shard_path)
        self._shard = shard
        self.indptr = shard.indptr
        self.indices = shard.indices
        self.weights = shard.weights
        scratch = self.emit_scratch
        scratch.indptr = shard.indptr
        scratch.indices = shard.indices
        scratch.weights = shard.weights
        if self._rsrc_from_store:
            scratch._arc_rows = shard.rsrc
        self.graph_open = True

    # -- commands ------------------------------------------------------ #

    def reset(self, env: Optional[dict] = None):
        from repro.core.state import ClusterState
        from repro.mr.kernels import ScatterScratch

        if env is not None:
            # Sync the kernel-selection environment from the driver:
            # this worker may predate the driver's current overrides.
            for key in _KERNEL_ENV_KEYS:
                if key in env:
                    os.environ[key] = env[key]
                else:
                    os.environ.pop(key, None)
        if self.state is None:
            # First reset (from __init__): allocate everything once.
            self.state = ClusterState(self.num_rows)
            self.changed = np.zeros(self.num_rows, dtype=bool)
            #: Dense scatter buffers of the merge kernel, reused across
            #: rounds (sized to this shard's node range).
            self.scratch = ScatterScratch()
            #: Dense histogram of the merge's group accounting, kept
            #: all-zero between rounds.
            self.hist = np.zeros(self.num_rows, dtype=np.int64)
            self.halo_best = np.full(len(self.halo), np.inf)
            # Frozen-replica ("ghost") state of halo nodes, filled by
            # freeze updates; immutable once set.
            self.r_frozen = np.zeros(len(self.halo), dtype=bool)
            self.r_center = np.full(len(self.halo), -1, dtype=np.int64)
            self.r_dist = np.full(len(self.halo), np.inf)
            self.r_dacc = np.full(len(self.halo), np.inf)
            self.r_frozen_iter = np.zeros(len(self.halo), dtype=np.int64)
        else:
            # Later resets (CLUSTER2's second phase): refill in place —
            # the state slice, scratch buffers, and candidate banks all
            # survive the phase boundary instead of being reallocated.
            s = self.state
            s.center.fill(-1)
            s.dist.fill(np.inf)
            s.dist_acc.fill(np.inf)
            s.frozen.fill(False)
            s.frozen_iter.fill(0)
            self.changed.fill(False)
            self.halo_best.fill(np.inf)
            self.r_frozen.fill(False)
            self.r_center.fill(-1)
            self.r_dist.fill(np.inf)
            self.r_dacc.fill(np.inf)
            self.r_frozen_iter.fill(0)
            self.emit_scratch.reset()
        #: Last merge's adopted local ids (ascending) — the live
        #: frontier; lets every non-forced round run without an O(n)
        #: mask rescan.
        self.active = np.empty(0, dtype=np.int64)
        self.pending = _empty_candidates()
        # The resolved kernel tier, as seen by the process that will
        # actually run the emit kernels; stamped into Counters.impl.
        return _native.resolved_info()

    def uncovered(self):
        return self.own.to_global(
            np.flatnonzero(~self.state.frozen).astype(np.int64)
        )

    def begin_stage(self, picks):
        s = self.state
        live = ~s.frozen
        s.center[live] = -1
        s.dist[live] = np.inf
        s.dist_acc[live] = np.inf
        self.changed[live] = False
        self.active = np.empty(0, dtype=np.int64)
        s.frozen_iter[live] = 0
        # Remote distances reset with the stage, so shipped-best history
        # no longer implies anything about receiver state.
        self.halo_best[:] = np.inf
        picks = np.asarray(picks, dtype=np.int64)
        local = self.own.to_local(picks)
        s.center[local] = picks
        s.dist[local] = 0.0
        s.dist_acc[local] = 0.0

    def _merge(self, cand_keys, cand_values):
        """Per-target winner over this shard's resident candidate batch.

        Wire keys are global; the returned group keys are **local**
        (``apply_merged_candidates`` runs with ``base=0``) and stay
        ascending because both ownership layouts keep the global→local
        map order-preserving.  The scatter form of
        :func:`_min_by_target`: ``np.minimum.at`` passes over dense
        per-node buffers (``(nd, center, source)`` tie-break, all three
        columns unique per target — see the module docstring), reusing
        the shard-sized scratch across rounds; the per-group counts
        come from one dense histogram, which also yields the
        memory-model extremes.
        """
        from repro.mr.kernels import scatter_min_rows

        local = self.own.to_local(cand_keys)
        ids, rows = scatter_min_rows(
            local,
            (cand_values[:, 0], cand_values[:, 1], cand_values[:, 3]),
            domain=self.num_rows,
            scratch=self.scratch,
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
        return (
            ids,
            cand_values[rows],
            int(counts[at]),
            int(self.own.to_global(int(ids[at]))),
        )

    def apply_replicas(self, ids, center, dist, dacc, iteration):
        idx = np.searchsorted(self.halo, ids)
        self.r_frozen[idx] = True
        self.r_center[idx] = center
        self.r_dist[idx] = dist
        self.r_dacc[idx] = dacc
        self.r_frozen_iter[idx] = iteration

    def step(
        self, delta, force, rescale, iteration, incoming, replicas, fault=None
    ):
        from time import perf_counter

        from repro.mrimpl.growing_mr import apply_merged_candidates

        if fault == "kill":
            # REPRO_FAULT_PLAN injection: die exactly like a SIGKILL —
            # no unwinding, no pipe goodbye — so the supervision path
            # under test is the real one.  In-process "workers" raise a
            # simulated failure instead (they share the driver).
            if self.in_process:
                from repro.errors import WorkerFailure

                raise WorkerFailure(
                    "injected fault", shard=self.shard_id, command="step"
                )
            os._exit(1)
        if isinstance(fault, tuple) and fault[0] == "delay":
            # delay: injection — a deterministic stall inside the step,
            # the controlled way to trip REPRO_WORKER_TIMEOUT_S deadline
            # supervision without an actual hang.
            import time as _time

            _time.sleep(float(fault[1]))
        self._shipped_this_step = False
        for block in replicas:
            self.apply_replicas(*block)

        # Merge: this shard's resident candidates plus the delivered
        # cross-shard blocks; order is irrelevant (see _min_by_target).
        reduce_start = perf_counter()
        blocks = [self.pending] + [(k, v) for k, v in incoming]
        self.pending = _empty_candidates()
        cand_keys = np.concatenate([b[0] for b in blocks])
        cand_values = np.concatenate([b[1] for b in blocks])

        merged = len(cand_keys)
        max_group = 0
        max_group_key = -1
        num_groups = 0
        newly = 0
        adopted = np.empty(0, dtype=np.int64)
        keys = values = None
        if merged:
            keys, values, max_group, max_group_key = self._merge(
                cand_keys, cand_values
            )
            num_groups = len(keys)
        apply_start = perf_counter()
        self.changed[self.active] = False  # O(frontier), not O(n)
        if merged:
            newly, adopted = apply_merged_candidates(
                keys,
                values[:, :3],
                center=self.state.center,
                dist=self.state.dist,
                dacc=self.state.dist_acc,
                frozen=self.state.frozen,
                changed=self.changed,
                base=0,
            )
        self.active = adopted
        updated = len(adopted)

        # Emit through the shard's CSR rows, then route by owner.  The
        # adopted frontier drives non-forced rounds directly.  Under
        # the async exchange the boundary frontier goes first and its
        # cross-shard candidates ship immediately (sender threads),
        # overlapping the interior expansion; otherwise the driver
        # routes everything next step.
        emit_start = perf_counter()
        emitted, outgoing, pending_blocks, sent_bytes = self._emit_round(
            delta, force, rescale, iteration
        )
        # Regenerate incoming frozen-external contributions locally: on
        # a forced round every frozen replica contributes over this
        # shard's own (symmetric) boundary arcs, exactly as its owner
        # would have emitted them.  Appended to the resident pending
        # block for the next merge — the same timing as shipped
        # candidates.
        if force and len(self.halo):
            if not rescale:
                # Fused fast path (Contract semantics): a ghost's
                # candidate distance is just the arc weight, and ghost
                # targets are locally owned — so one boolean sweep over
                # the boundary arcs applies every filter, including the
                # winner-preserving improvement pre-filter, *before*
                # any large array is compressed.
                li = self.ext_rows
                ok = self.r_frozen[self.ext_halo_idx]
                np.logical_and(ok, self.ext_w <= delta, out=ok)
                np.logical_and(ok, ~self.state.frozen[li], out=ok)
                np.logical_and(ok, self.ext_w < self.state.dist[li], out=ok)
                if ok.any():
                    hidx = self.ext_halo_idx[ok]
                    w = self.ext_w[ok]
                    ghost_keys = self.own.to_global(self.ext_rows[ok])
                    ghost_values = np.column_stack(
                        (
                            w,  # nd = 0 + w for a frozen replica
                            self.r_center[hidx].astype(np.float64),
                            self.r_dacc[hidx] + w,
                            self.halo[hidx].astype(np.float64),
                        )
                    )
                    # Not added to ``emitted``: each ghost contribution
                    # is the regeneration of a candidate its owner
                    # already counted (and dropped from shipping).
                    pending_blocks.append((ghost_keys, ghost_values))
            else:
                # Rescaled (Contract2): effective distances first, then
                # the same filters, improvement pre-filter last.
                r_eff = self.r_dist - rescale * (
                    iteration - self.r_frozen_iter
                )
                emits = self.r_frozen & (r_eff < delta)
                arc = emits[self.ext_halo_idx]
                if arc.any():
                    hidx = self.ext_halo_idx[arc]
                    w = self.ext_w[arc]
                    nd = r_eff[hidx] + w
                    ghost_rows = self.ext_rows[arc]
                    ok = (w <= delta) & (nd <= delta)
                    ok &= ~self.state.frozen[ghost_rows]
                    ok &= nd < self.state.dist[ghost_rows]
                    hidx, w, nd = hidx[ok], w[ok], nd[ok]
                    ghost_rows = ghost_rows[ok]
                    if len(ghost_rows):
                        ghost_values = np.column_stack(
                            (
                                nd,
                                self.r_center[hidx].astype(np.float64),
                                self.r_dacc[hidx] + w,
                                self.halo[hidx].astype(np.float64),
                            )
                        )
                        pending_blocks.append(
                            (self.own.to_global(ghost_rows), ghost_values)
                        )
        emit_end = perf_counter()
        if self._async_on:
            # Every peer sends exactly one (possibly empty) message per
            # step; a round that emitted nothing still must not leave
            # peers blocked on their end-of-step receive.
            if not self._shipped_this_step:
                sent_bytes += self._ship_outgoing([])
            # What peers shipped *during this step* joins the resident
            # pending block and merges next step — the same delivery
            # timing as the serial driver's routing.  Timed after the
            # emit phase closes: the wait is exchange, not compute.
            pending_blocks.extend(self._recv_arrivals())
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
            "groups": num_groups,
            "max_group": max_group,
            "max_group_key": max_group_key,
            "outgoing": outgoing,
            "sent_bytes": sent_bytes,
            "times": times,
        }

    # -- emission ------------------------------------------------------- #

    def _emit_round(self, delta, force, rescale, iteration):
        """One round's emission, split for the async exchange.

        Serial mode: a single pass, cross-shard blocks returned to the
        driver.  Async mode: the cross-shard blocks never reach the
        driver — forced rounds emit once and ship, non-forced rounds
        emit the boundary frontier first (every cross-shard candidate
        comes from a boundary row, by definition of ``is_boundary_row``)
        and ship while the interior frontier expands.  Splitting the
        frontier cannot change results: emission is per-source, the two
        halves partition the active set, and the merge is order-free.
        Returns ``(emitted, outgoing, pending_blocks, sent_bytes)``.
        """
        if not self._async_on:
            sources = None if force else self.active
            emitted, outgoing, pending = self._emit_fused(
                delta, force, rescale, iteration, sources
            )
            return emitted, outgoing, pending, 0
        if force:
            emitted, outgoing, pending = self._emit_fused(
                delta, force, rescale, iteration, None
            )
            sent = self._ship_outgoing(outgoing)
            return emitted, [], pending, sent
        boundary = self.is_boundary_row[self.active]
        e1, out1, pend1 = self._emit_fused(
            delta, force, rescale, iteration, self.active[boundary]
        )
        sent = self._ship_outgoing(out1)
        e2, out2, pend2 = self._emit_fused(
            delta, force, rescale, iteration, self.active[~boundary]
        )
        if out2:
            raise AssertionError(
                "interior frontier rows produced cross-shard candidates"
            )
        return e1 + e2, [], pend1 + pend2, sent

    def _emit_fused(self, delta, force, rescale, iteration, sources):
        """Scratch-buffered fused emission.

        Runs the direction-optimized expansion of
        :class:`~repro.mr.emit.EmitScratch` over the shard's rows, then
        routes: locally-owned targets pass the improvement pre-filter
        (their ``dist``/``frozen`` state is resident, so unadoptable
        rows are dropped before their value columns exist — winner-
        preserving, see :mod:`repro.mr.emit`); cross-shard rows cannot
        be tested and ship exactly as before, through the same combine
        and halo filters.  ``emitted`` still counts the full emission,
        so the ``messages`` counter stays bit-identical to every other
        backend.
        """
        s = self.state
        keys, nd, src_local, aidx, emitted = self.emit_scratch.emit_raw(
            center=s.center,
            dist=s.dist,
            frozen=s.frozen,
            frozen_iter=s.frozen_iter,
            delta=delta,
            force=force,
            rescale=rescale,
            iteration=iteration,
            sources=sources,
        )
        outgoing = []
        pending_blocks = []
        if not emitted:
            return 0, outgoing, pending_blocks
        local = self.own.is_local(keys)

        # Locally-owned targets: improvement pre-filter, then one
        # resident block with the value columns built per survivor.
        lk = keys[local]
        li = self.own.to_local(lk)
        lnd = nd[local]
        imp = ~s.frozen[li] & (lnd < s.dist[li])
        if imp.any():
            lk = lk[imp]
            lnd = lnd[imp]
            lsrc = src_local[local][imp]
            lw = np.take(self.weights, aidx[local][imp])
            block = np.empty((len(lk), CANDIDATE_WIDTH), dtype=np.float64)
            block[:, 0] = lnd
            block[:, 1] = s.center[lsrc]
            block[:, 2] = s.dist_acc[lsrc]
            block[:, 2] += lw
            block[:, 3] = self.own.to_global(lsrc)
            pending_blocks.append((lk.copy(), block))

        # Cross-shard candidates: receiver state is unknown, ship the
        # live-source rows through the usual combine/halo filters.
        remote = ~local
        remote &= ~s.frozen[src_local]
        if remote.any():
            rk = keys[remote]
            rnd = nd[remote]
            rsrc = src_local[remote]
            rw = np.take(self.weights, aidx[remote])
            rvals = np.empty((len(rk), CANDIDATE_WIDTH), dtype=np.float64)
            rvals[:, 0] = rnd
            rvals[:, 1] = s.center[rsrc]
            rvals[:, 2] = s.dist_acc[rsrc]
            rvals[:, 2] += rw
            rvals[:, 3] = self.own.to_global(rsrc)
            owners = self.own.owner_of(rk)
            for dest in np.unique(owners):
                mask = owners == dest
                okeys, ovalues = self._combine_outgoing(rk[mask], rvals[mask])
                if len(okeys):
                    outgoing.append((int(dest), okeys, ovalues))
        return emitted, outgoing, pending_blocks

    def _combine_outgoing(self, keys, values):
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
        map-side combiner), never the resulting state.
        """
        keys, values = _min_by_target(keys, values)
        idx = np.searchsorted(self.halo, keys)
        nd = values[:, 0]
        keep = nd < self.halo_best[idx]
        self.halo_best[idx[keep]] = nd[keep]
        return keys[keep], values[keep]

    # -- async exchange ------------------------------------------------- #

    def _ship_outgoing(self, outgoing) -> int:
        """Queue one message per peer (async exchange, once per step)."""
        by_dest = {dest: (keys, values) for dest, keys, values in outgoing}
        sent = 0
        for dest, send_queue in self._send_queues.items():
            block = by_dest.pop(dest, None)
            if block is not None:
                sent += block[0].nbytes + block[1].nbytes
            send_queue.put((block,))
        if by_dest:  # pragma: no cover - owners are always peers
            raise ValueError(f"no pipe to shards {sorted(by_dest)}")
        self._shipped_this_step = True
        return sent

    def _recv_arrivals(self):
        """Collect this step's one message from every peer (sorted)."""
        arrivals = []
        for peer in sorted(self.peer_conns):
            block = self.peer_conns[peer].recv()
            if block is not None:
                arrivals.append(block)
        return arrivals

    def abort_step(self) -> None:
        """Keep peers unblocked when this worker's step failed.

        Peers block on their end-of-step receive; send them the empty
        message this step still owes (if unshipped), then drain their
        messages so nobody's sender thread wedges on a full pipe.  The
        driver surfaces the original traceback either way.
        """
        if not self._async_on:
            return
        if not self._shipped_this_step:
            try:
                self._ship_outgoing([])
            except Exception:  # pragma: no cover - best-effort unblock
                pass
        for peer in sorted(self.peer_conns):
            conn = self.peer_conns[peer]
            try:
                if conn.poll(5):
                    conn.recv()
            except (EOFError, OSError):  # pragma: no cover - peer gone
                pass

    def close_exchange(self) -> None:
        for send_queue in self._send_queues.values():
            send_queue.put(None)
        for thread in self._sender_threads:
            thread.join(timeout=5)
        for conn in self.peer_conns.values():
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._send_queues = {}
        self._sender_threads = []
        self.peer_conns = {}
        self._async_on = False

    # -- stage control -------------------------------------------------- #

    def freeze_assigned(self, iteration):
        s = self.state
        sel = (s.center != -1) & ~s.frozen
        s.frozen[sel] = True
        self.changed[sel] = False
        s.frozen_iter[sel] = iteration
        # Ship the newly frozen boundary nodes' (now immutable) state to
        # every shard holding them in its halo — once, ever.
        outgoing = []
        if sel.any() and len(self.boundary_nodes):
            newly = sel[self.boundary_nodes]
            nodes = self.boundary_nodes[newly]
            dests = self.boundary_dests[newly]
            for dest in np.unique(dests):
                mask = dests == dest
                picked = nodes[mask]
                outgoing.append(
                    (
                        int(dest),
                        (
                            self.own.to_global(picked),
                            s.center[picked].copy(),
                            s.dist[picked].copy(),
                            s.dist_acc[picked].copy(),
                            iteration,
                        ),
                    )
                )
        return int(np.count_nonzero(sel)), outgoing

    def make_singletons(self, iteration):
        s = self.state
        leftover = np.flatnonzero(~s.frozen)
        s.center[leftover] = self.own.to_global(leftover)
        s.dist[leftover] = 0.0
        s.dist_acc[leftover] = 0.0
        s.frozen[leftover] = True
        self.changed[leftover] = False
        s.frozen_iter[leftover] = iteration
        # No replica shipping: the drivers only make singletons after
        # the final growing step, so the replicas can never be read.
        return len(leftover)

    def discard_candidates(self):
        self.pending = _empty_candidates()
        # Some shipped candidates may now never be merged, so the
        # shipped-best history no longer proves anything about receiver
        # state; forget it (costs only redundant traffic later).
        self.halo_best[:] = np.inf

    def result(self):
        return self.state

    # -- checkpoint support --------------------------------------------- #

    def snapshot_state(self):
        """This shard's slice of the global state (read-only command).

        Valid at safe points only (no resident pending candidates); the
        driver stitches the slices into the global checkpoint arrays.
        """
        s = self.state
        return (
            s.center.copy(),
            s.dist.copy(),
            s.dist_acc.copy(),
            s.frozen.copy(),
            s.frozen_iter.copy(),
            self.changed.copy(),
        )

    def restore_state(self, center, dist, dacc, frozen, frozen_iter, changed):
        """Rehydrate this shard from the *global* checkpoint arrays.

        The worker slices its own rows and rebuilds the frozen-replica
        ghosts for every frozen halo node eagerly.  Eager install is
        equivalent to the pending freeze-block delivery an uninterrupted
        run would perform: replicas are immutable once set and nothing
        reads ``r_*`` before the next step's replica-application point,
        by which time the blocks would have arrived anyway.  The
        shipped-best history and emit scratch are reset — both are pure
        traffic/caching state, never results.
        """
        gids = self.own.to_global(np.arange(self.num_rows, dtype=np.int64))
        s = self.state
        s.center[:] = center[gids]
        s.dist[:] = dist[gids]
        s.dist_acc[:] = dacc[gids]
        s.frozen[:] = frozen[gids]
        s.frozen_iter[:] = frozen_iter[gids]
        self.changed[:] = changed[gids]
        h = self.halo
        hf = frozen[h]
        self.r_frozen[:] = hf
        self.r_center.fill(-1)
        self.r_dist.fill(np.inf)
        self.r_dacc.fill(np.inf)
        self.r_frozen_iter.fill(0)
        idx = np.flatnonzero(hf)
        if len(idx):
            hg = h[idx]
            self.r_center[idx] = center[hg]
            self.r_dist[idx] = dist[hg]
            self.r_dacc[idx] = dacc[hg]
            self.r_frozen_iter[idx] = frozen_iter[hg]
        self.halo_best[:] = np.inf
        self.pending = _empty_candidates()
        self.active = np.flatnonzero(self.changed).astype(np.int64)
        self.emit_scratch.reset()


def _dispatch(worker: _ShardWorker, command: str, args):
    """Run one driver command — shared by the pipe loop and _InprocPool."""
    if command == "step":
        return worker.step(*args)
    if command == "uncovered":
        return worker.uncovered()
    if command == "begin_stage":
        return worker.begin_stage(*args)
    if command == "freeze_assigned":
        return worker.freeze_assigned(*args)
    if command == "make_singletons":
        return worker.make_singletons(*args)
    if command == "discard":
        return worker.discard_candidates()
    if command == "reset":
        return worker.reset(*args)
    if command == "result":
        return worker.result()
    if command == "snapshot":
        return worker.snapshot_state()
    if command == "restore":
        return worker.restore_state(*args)
    raise ValueError(f"unknown worker command {command!r}")


def _worker_timeout() -> float:
    """Per-command deadline in seconds (``REPRO_WORKER_TIMEOUT_S``)."""
    try:
        timeout = float(os.environ.get(WORKER_TIMEOUT_ENV, "60"))
    except ValueError:
        return 60.0
    return timeout if timeout > 0 else 60.0


def _hb_interval(timeout: float) -> float:
    """Heartbeat period: several beats fit inside one deadline window."""
    return min(5.0, timeout / 4.0)


def _hb_loop(conn, lock, busy, stop, interval) -> None:
    """Worker-side heartbeat: ``("hb",)`` frames while a command runs.

    Beats are sent **only while a command is executing** (the ``busy``
    window): an idle worker writing unacknowledged frames would
    eventually fill the pipe buffer and deadlock against the driver —
    serve keeps workers warm between queries for hours.  During a
    command the driver drains the pipe continuously, so in-window beats
    are always consumed; each one pushes the driver's deadline out, so
    a *slow* round is distinguished from a *dead* worker no matter how
    long the round runs.  The send lock is shared with the reply path —
    a beat interleaved into a reply frame would corrupt the stream.
    """
    while not stop.is_set():
        if not busy.wait(timeout=0.25):
            continue
        while busy.is_set() and not stop.is_set():
            if stop.wait(interval):
                return
            if not busy.is_set():
                break
            with lock:
                if not busy.is_set():
                    break
                try:
                    conn.send(("hb",))
                except (OSError, ValueError):  # driver gone
                    return


def _orphan_watchdog(stop, ppid) -> None:
    """Exit when the driver process disappears.

    A driver killed with SIGKILL (or ``os._exit``, as the fault plan's
    ``shard=driver`` injection does) never runs the pool's close path,
    and EOF alone cannot unwind the pool: each forked worker inherits
    copies of the earlier workers' driver-pipe ends, so the orphans
    keep each other's pipes open in a ring.  Reparenting is the one
    signal that survives any driver death, so every worker polls its
    parent pid and exits once it changes.
    """
    while not stop.wait(1.0):
        if os.getppid() != ppid:
            os._exit(2)


def _shard_worker_main(conn, shard_path, shard_id, spec, peers, exchange):
    """Entry point of a shard-owning worker process."""
    watchdog_stop = threading.Event()
    threading.Thread(
        target=_orphan_watchdog,
        args=(watchdog_stop, os.getppid()),
        daemon=True,
    ).start()
    try:
        worker = _ShardWorker(
            shard_path, shard_id, spec, peer_conns=peers, exchange=exchange
        )
    except BaseException as exc:  # noqa: BLE001 - reported to the driver
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
        conn.close()
        return
    send_lock = threading.Lock()
    busy = threading.Event()
    stop = threading.Event()
    timeout = _worker_timeout()
    hb_thread = threading.Thread(
        target=_hb_loop,
        args=(conn, send_lock, busy, stop, _hb_interval(timeout)),
        daemon=True,
    )
    hb_thread.start()
    with send_lock:
        conn.send(("ok", None))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        command = message[0]
        if command == "close":
            worker.close_exchange()
            stop.set()
            with send_lock:
                conn.send(("ok", None))
            break
        busy.set()
        try:
            reply = _dispatch(worker, command, message[1:])
            busy.clear()
            with send_lock:
                conn.send(("ok", reply))
        except BaseException:  # noqa: BLE001 - reported to the driver
            import traceback

            busy.clear()
            if command == "step":
                worker.abort_step()
            with send_lock:
                conn.send(("error", traceback.format_exc()))
    stop.set()
    conn.close()


# --------------------------------------------------------------------- #
# Worker pools
# --------------------------------------------------------------------- #


def _check_fd_budget(num_shards: int, mesh: bool) -> None:
    """Refuse a pipe pool the open-file limit cannot hold.

    The driver holds every pipe end while it forks: the async mesh's
    ``K(K-1)`` ends plus, per worker, a command pipe pair and the
    process sentinel.  Past ``RLIMIT_NOFILE`` some ``pipe()`` or fork
    fails with a raw ``EMFILE`` halfway through the spawn, so check the
    need up front and raise a :class:`ConfigurationError` that names it.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX hosts
        return
    soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft == resource.RLIM_INFINITY:
        return
    try:
        already_open = len(os.listdir("/proc/self/fd"))
    except OSError:  # pragma: no cover - no procfs
        already_open = 0
    mesh_fds = num_shards * (num_shards - 1) if mesh else 0
    need = mesh_fds + 3 * num_shards + already_open
    if need > soft:
        raise ConfigurationError(
            f"sharded executor with {num_shards} shards needs {need} open "
            f"file descriptors ({mesh_fds} for the worker pipe mesh, "
            f"{3 * num_shards} for worker pipes, {already_open} already "
            f"open) but the limit (RLIMIT_NOFILE) is {soft}; use fewer "
            f"shards or raise the limit"
        )


class _PipePool:
    """Forked worker processes driven over per-worker command pipes.

    The default pool: one persistent process per shard, commands and
    replies over a dedicated driver↔worker pipe.  Under the async
    exchange the pool additionally wires a full duplex pipe mesh
    between the workers *before* forking, so candidate blocks travel
    peer-to-peer without a driver hop.
    """

    kind = "pipe"

    def __init__(self, shard_paths, spec, exchange: str):
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        num = len(shard_paths)
        self.num_shards = num
        self.exchange_active = exchange == "async" and num > 1
        _check_fd_budget(num, self.exchange_active)
        mesh = [dict() for _ in range(num)]
        mesh_ends = []
        if self.exchange_active:
            for i in range(num):
                for j in range(i + 1, num):
                    end_i, end_j = ctx.Pipe(duplex=True)
                    mesh[i][j] = end_i
                    mesh[j][i] = end_j
                    mesh_ends.extend((end_i, end_j))
        self._procs: List = []
        self._conns: List = []
        self._early: Dict[int, tuple] = {}
        try:
            for k, path in enumerate(shard_paths):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_worker_main,
                    args=(
                        child,
                        str(path),
                        k,
                        spec,
                        mesh[k],
                        "async" if self.exchange_active else "serial",
                    ),
                    daemon=True,
                )
                proc.start()
                child.close()
                self._procs.append(proc)
                self._conns.append(parent)
        finally:
            # The children hold their mesh ends (inherited or shipped
            # at spawn); the parent's copies would otherwise keep every
            # pipe open forever.
            for end in mesh_ends:
                end.close()
        for k, conn in enumerate(self._conns):
            try:
                status, payload = conn.recv()
            except (EOFError, OSError) as exc:
                self.terminate()
                raise WorkerFailure(
                    f"shard worker {k} died during startup: {exc!r}",
                    shard=k,
                ) from exc
            if status != "ok":
                self.close()
                raise RuntimeError(
                    f"shard worker {k} failed to start: {payload}"
                )

    def broadcast(self, command: str, per_worker=None):
        """Send one command to every worker and gather the replies.

        ``per_worker`` supplies each worker's argument (a tuple is
        splatted into the command message).  All sends complete before
        any receive, so workers proceed in lockstep without deadlock.

        Supervision: any send or receive failure — broken pipe, EOF, a
        dead process, or a deadline miss with no heartbeat — terminates
        the **whole pool** and raises :class:`WorkerFailure`.  Never
        heal the mesh in place: under the async exchange the surviving
        peers block on pipes to the dead worker, and a single-worker
        respawn could not restore cross-shard consistency anyway.  The
        recovery loop respawns everything from the last checkpoint.
        Worker-side Python exceptions (shipped back as tracebacks) stay
        ``RuntimeError`` — the worker is alive and consistent, that is
        an application error, not a fault.
        """
        if not self._conns:
            raise RuntimeError("sharded workers are not running")
        #: replies recovered out of order from a worker that finished a
        #: command and *then* died — consumed by index in _recv_reply.
        self._early: Dict[int, tuple] = {}
        for k, conn in enumerate(self._conns):
            try:
                if per_worker is None:
                    conn.send((command,))
                else:
                    args = per_worker[k]
                    if not isinstance(args, tuple):
                        args = (args,)
                    conn.send((command,) + args)
            except (OSError, ValueError, InterruptedError) as exc:
                self.terminate()
                raise WorkerFailure(
                    f"lost pipe to shard worker {k}: {exc!r}",
                    shard=k,
                    command=command,
                ) from exc
        timeout = _worker_timeout()
        replies = []
        errors = []
        try:
            for k in range(len(self._conns)):
                status, payload = self._recv_reply(k, timeout)
                if status == "ok":
                    replies.append(payload)
                else:
                    errors.append(f"shard worker {k}: {payload}")
        except WorkerFailure as exc:
            if exc.command is None:
                exc.command = command
            self.terminate()
            raise
        if errors:
            raise RuntimeError(
                "sharded execution failed:\n" + "\n".join(errors)
            )
        return replies

    def _recv_reply(self, k: int, timeout: float):
        """One worker's reply, with heartbeat-extended deadline.

        Polls in short slices so a *different* worker's death is
        noticed promptly even while this one's (possibly long) round is
        still running.  This cross-check must not wait for worker *k*'s
        reply or deadline: under the async exchange the survivors block
        on the dead peer's mesh pipes **while still heart-beating**, so
        a kill that only watched the in-order worker would extend its
        deadline forever.  ``poll(0)`` alone cannot distinguish a dead
        worker (EOF *is* readable) from one with a buffered reply, so
        the scan drains the dead worker's pipe: a complete non-heartbeat
        frame means it finished the command before dying (stashed for
        its in-order turn); EOF or heartbeats-only means it died
        mid-command — whole-pool failure.
        """
        from time import monotonic

        conn = self._conns[k]
        deadline = monotonic() + timeout
        while True:
            early = self._early.pop(k, None)
            if early is not None:
                return early
            try:
                if conn.poll(0.05):
                    message = conn.recv()
                    if message[0] == "hb":
                        deadline = monotonic() + timeout
                        continue
                    return message
            except (EOFError, OSError, InterruptedError) as exc:
                raise WorkerFailure(
                    f"shard worker {k} died mid-command: {exc!r}", shard=k
                ) from exc
            for j, proc in enumerate(self._procs):
                if proc.is_alive() or j in self._early or j == k:
                    continue
                reply = None
                try:
                    while self._conns[j].poll(0):
                        frame = self._conns[j].recv()
                        if frame[0] != "hb":
                            reply = frame
                            break
                except (EOFError, OSError):
                    reply = None
                if reply is None:
                    raise WorkerFailure(
                        f"shard worker {j} died "
                        f"(exit code {proc.exitcode})",
                        shard=j,
                    )
                self._early[j] = reply
            if monotonic() > deadline:
                raise WorkerFailure(
                    f"shard worker {k} missed its deadline "
                    f"({timeout:.0f}s without reply or heartbeat)",
                    shard=k,
                )

    def terminate(self) -> None:
        """Kill the pool without the polite close handshake.

        Used when a worker is already dead or wedged: sending
        ``("close",)`` and joining would block on broken pipes.
        """
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
                if proc.is_alive():  # pragma: no cover - unkillable
                    proc.kill()
                    proc.join(timeout=5)
        self._procs = []
        self._conns = []

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("close",))
            except (OSError, ValueError):
                pass
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)
        self._procs = []
        self._conns = []


class _InprocPool:
    """Sequential in-process shard workers under a residency budget.

    The out-of-core tier: every :class:`_ShardWorker` lives in the
    driver process and commands dispatch directly (no pipes, no pickle,
    serial exchange).  The pool holds shard CSR mmaps open LRU-style
    under ``resident_bytes``: a worker's graph is (re)opened only for
    its ``step`` — the only command that reads CSR arrays; merge, ghost
    regeneration, and stage control run on resident O(nodes + cut)
    copies — and the coldest open shards are fully unmapped first.  At
    most one shard *needs* to be mapped at a time, so the peak mapped
    footprint is ``max(budget, largest shard)`` no matter how big the
    graph is.  Results are bit-identical to the pipe pool's serial
    exchange: same workers, same command order, same delivery timing.
    """

    kind = "inproc"
    exchange_active = False

    def __init__(self, shard_paths, spec, resident_bytes: int):
        self.num_shards = len(shard_paths)
        self.resident_bytes = int(resident_bytes)
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
            self.workers.append(
                _ShardWorker(str(path), k, spec, in_process=True)
            )
            self._note_open(k)

    def _make_room(self, need: int) -> None:
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

    def broadcast(self, command: str, per_worker=None):
        if not self.workers:
            raise RuntimeError("sharded workers are not running")
        replies = []
        for k, worker in enumerate(self.workers):
            if command == "step":
                self._acquire(k)
            if per_worker is None:
                args = ()
            else:
                args = per_worker[k]
                if not isinstance(args, tuple):
                    args = (args,)
            replies.append(_dispatch(worker, command, args))
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
        # Reset every worker, shipping the driver's kernel-selection
        # environment (persistent workers may predate it), and stamp
        # the workers' *own* resolved tier into the run's impl info —
        # the workers do the emitting, so their resolution is the one
        # benchmarks must report.
        env = {
            key: os.environ[key]
            for key in _KERNEL_ENV_KEYS
            if key in os.environ
        }
        replies = executor._broadcast(
            "reset", per_worker=[(env,)] * executor.num_shards
        )
        if replies and isinstance(replies[0], dict):
            info = dict(replies[0])
            info["partitioner"] = self.plan.mode
            info["exchange"] = (
                "async" if executor.exchange_active else "serial"
            )
            engine.counters.impl.update(info)
        # remote[dest] -> list of (keys, values) awaiting delivery.
        self._remote: Dict[int, List] = {}
        # replica_updates[dest] -> list of freeze blocks to deliver.
        self._replica_updates: Dict[int, List] = {}
        self._emitted_last = 0
        # Bytes the workers shipped peer-to-peer during the previous
        # step (async exchange): delivered — merged — this step.
        self._sent_prev = 0

    # -- growing-state interface --------------------------------------- #

    def uncovered(self) -> np.ndarray:
        parts = self.executor._broadcast("uncovered")
        if not parts:
            return np.empty(0, np.int64)
        out = np.concatenate(parts)
        if self.plan.mode != "range":
            # Each shard's block is ascending, but only the contiguous
            # range layout makes the concatenation globally sorted —
            # and the drivers' seeded sampling depends on the order.
            out = np.sort(out, kind="stable")
        return out

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
        from repro.mr.faults import get_fault_plan

        num_shards = self.executor.num_shards
        ordinal = engine.counters.growing_steps + 1
        plan = get_fault_plan()
        fault_shards = set(plan.shard_kills(ordinal)) if plan else ()
        fault_delays = plan.shard_delays(ordinal) if plan else {}
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
                (
                    delta,
                    force,
                    rescale,
                    iteration,
                    incoming,
                    ghosts,
                    "kill"
                    if k in fault_shards
                    else ("delay", fault_delays[k])
                    if k in fault_delays
                    else None,
                )
            )
        # Async exchange: candidates shipped worker-to-worker during
        # the previous step are delivered (merged) this step.
        shipped += self._sent_prev
        self._sent_prev = 0
        # Fixed per-worker command overhead (params + framing), so the
        # accounting never reads zero on an idle round.
        shipped += 64 * num_shards
        from time import perf_counter

        step_start = perf_counter()
        try:
            replies = self.executor._broadcast("step", per_worker=per_worker)
        except WorkerFailure as exc:
            if exc.round is None:
                exc.round = ordinal
            raise
        step_wall = perf_counter() - step_start
        # Per-phase timers: the critical path (slowest shard) of each
        # worker-reported phase; everything else — pickling, pipe
        # transport, scheduling, the async arrival wait — is the
        # exchange, booked as shuffle.
        compute = 0.0
        for phase in ("emit", "reduce", "apply"):
            worst = max((r["times"][phase] for r in replies), default=0.0)
            engine.counters.add_time(phase, worst)
            compute += worst
        engine.counters.add_time("shuffle", max(0.0, step_wall - compute))

        merged = sum(r["merged"] for r in replies)
        updated = sum(r["updated"] for r in replies)
        newly = sum(r["newly"] for r in replies)
        sent_now = sum(r.get("sent_bytes", 0) for r in replies)
        for k, reply in enumerate(replies):
            for dest, keys, values in reply["outgoing"]:
                self._remote.setdefault(dest, []).append((keys, values))

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
        self.executor.bytes_exchanged_per_round.append(
            shipped
            + sent_now
            + sum(
                _candidate_bytes(
                    [(k2, v2) for _, k2, v2 in r["outgoing"]]
                )
                for r in replies
            )
        )
        self._sent_prev = sent_now
        return updated, newly

    def in_flight(self) -> bool:
        return self._emitted_last > 0

    def discard_candidates(self) -> None:
        self._remote = {}
        self._emitted_last = 0
        self._sent_prev = 0
        self.executor._broadcast("discard")

    def freeze_assigned(self, iteration: int = 0) -> int:
        replies = self.executor._broadcast(
            "freeze_assigned",
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
        from repro.core.state import ClusterState

        slices = self.executor._broadcast("result")
        if self.plan.mode == "range":
            full = ClusterState.concat(slices)
            return full.center.copy(), full.dist_acc.copy()
        # lp shards hold arbitrary row sets: scatter-stitch each
        # shard's slice back to its global rows.
        center = np.full(self.num_nodes, -1, dtype=np.int64)
        dacc = np.full(self.num_nodes, np.inf)
        for k, state in enumerate(slices):
            rows = self.plan.shard_rows(k)
            center[rows] = state.center
            dacc[rows] = state.dist_acc
        return center, dacc

    # -- checkpoint support --------------------------------------------- #

    def snapshot_arrays(self) -> Dict[str, np.ndarray]:
        """Stitch the workers' state slices into the global checkpoint arrays.

        Safe points only (the drivers guarantee no in-flight candidates
        and empty replica queues) — the snapshot is then portable to
        any backend, including resuming a sharded run under ``vector``.
        """
        n = self.num_nodes
        arrays = {
            "center": np.full(n, -1, dtype=np.int64),
            "dist": np.full(n, np.inf),
            "dist_acc": np.full(n, np.inf),
            "frozen": np.zeros(n, dtype=bool),
            "frozen_iter": np.zeros(n, dtype=np.int64),
            "changed": np.zeros(n, dtype=bool),
        }
        parts = self.executor._broadcast("snapshot")
        names = ("center", "dist", "dist_acc", "frozen", "frozen_iter", "changed")
        for k, part in enumerate(parts):
            rows = (
                slice(self.plan.starts[k], self.plan.starts[k + 1])
                if self.plan.mode == "range"
                else self.plan.shard_rows(k)
            )
            for name, column in zip(names, part):
                arrays[name][rows] = column
        return arrays

    def restore_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Rehydrate every worker from the global checkpoint arrays.

        Each worker slices its own rows and rebuilds its frozen-replica
        ghosts; the driver's in-flight routing state is cleared — at a
        safe point an uninterrupted run holds none either.
        """
        args = (
            arrays["center"],
            arrays["dist"],
            arrays["dist_acc"],
            arrays["frozen"],
            arrays["frozen_iter"],
            arrays["changed"],
        )
        self.executor._broadcast(
            "restore", per_worker=[args] * self.executor.num_shards
        )
        self._remote = {}
        self._replica_updates = {}
        self._emitted_last = 0
        self._sent_prev = 0


class ShardedExecutor:
    """Owner-compute backend: persistent shard workers, boundary exchange.

    Construction is cheap; workers spawn lazily on first use (when a
    driver asks for a growing state) and persist until :meth:`close` —
    across stages, Δ doublings, and both phases of CLUSTER2.  Each
    worker memory-maps one ``part-k.rcsr`` of the graph's partitioned
    store (created on demand via
    :func:`repro.graph.partition.ensure_partitioned`; in-memory graphs
    are spilled to a private temp store first).

    Engine integration: per-key rounds fall back to the serial loop and
    batch rounds (e.g. the quotient construction) run vectorized
    in-process, so a ``sharded`` engine executes every round kind; only
    growing steps use the owner-compute protocol.

    Parameters
    ----------
    num_shards:
        Worker/shard count (default: CPU count).
    partitioner:
        ``"lp"`` (default; env ``REPRO_SHARD_PARTITIONER``) or
        ``"range"``.  The backend defaults to the locality-aware
        assignment; library callers of ``ensure_partitioned`` keep the
        ``range`` default.
    exchange:
        ``"async"`` (default; env ``REPRO_SHARD_EXCHANGE``) overlaps
        boundary shipping with interior expansion over a worker pipe
        mesh; ``"serial"`` routes all candidates through the driver.
        Single-shard and in-process pools are always effectively
        serial.
    resident_mb:
        Out-of-core residency budget in MiB (env
        ``REPRO_SHARD_RESIDENT_MB``).  When set, workers run
        sequentially in-process and shard CSR mmaps are LRU-released
        to keep the mapped bytes under the budget — the big-graph
        tier; implies the serial exchange.

    Attributes
    ----------
    plan:
        The :class:`~repro.graph.partition.PartitionPlan` in effect
        (after workers spawn).
    bytes_shipped_per_round:
        Bytes delivered to workers each growing step: cross-shard
        candidate blocks (driver-routed or peer-shipped last step)
        plus one-time frozen-replica updates — the boundary exchange
        the sharded architecture exists to shrink.
    bytes_exchanged_per_round:
        Same plus the boundary candidates produced that step (both
        directions of the exchange).
    """

    #: Marks this executor as building its own growing state
    #: (see :func:`repro.mrimpl.growing_mr.make_growing_state`).
    owns_growing_state = True

    #: Non-growing batch rounds (e.g. the quotient construction) run
    #: vectorized in the driver process (see
    #: :attr:`repro.mr.engine.MREngine.supports_batch`).
    batch_rounds = True

    def __init__(
        self,
        num_shards: Optional[int] = None,
        *,
        partitioner: Optional[str] = None,
        exchange: Optional[str] = None,
        resident_mb: Optional[float] = None,
    ):
        if num_shards is not None and num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards or os.cpu_count() or 1
        if partitioner is None:
            partitioner = os.environ.get(PARTITIONER_ENV) or "lp"
        if partitioner not in ("range", "lp"):
            raise ValueError(
                f"unknown partitioner {partitioner!r} (use 'range' or 'lp')"
            )
        self.partitioner = partitioner
        if exchange is None:
            exchange = os.environ.get(EXCHANGE_ENV) or "async"
        if exchange not in ("serial", "async"):
            raise ValueError(
                f"unknown exchange {exchange!r} (use 'serial' or 'async')"
            )
        if resident_mb is None:
            raw = os.environ.get(RESIDENT_ENV)
            if raw:
                resident_mb = float(raw)
        if resident_mb is not None and resident_mb <= 0:
            raise ValueError("resident_mb must be > 0")
        self.resident_bytes = (
            int(resident_mb * 1024 * 1024) if resident_mb is not None else None
        )
        if self.resident_bytes is not None:
            # The out-of-core pool runs shards sequentially in-process;
            # a peer mesh cannot overlap anything there.
            exchange = "serial"
        self.exchange = exchange
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
    def exchange_active(self) -> bool:
        """Whether the peer-to-peer async exchange is actually running."""
        return bool(self._pool is not None and self._pool.exchange_active)

    @property
    def max_resident_bytes(self) -> Optional[int]:
        """Out-of-core pool's peak mapped shard bytes (else ``None``)."""
        return getattr(self._pool, "max_resident_bytes", None)

    @property
    def max_open_shards(self) -> Optional[int]:
        """Out-of-core pool's peak concurrently-mapped shard count."""
        return getattr(self._pool, "max_open_shards", None)

    # -- engine executor protocol (non-growing rounds) ------------------ #

    def run(self, groups, reducer, num_workers):
        from repro.mr.executor import SerialExecutor

        return SerialExecutor().run(groups, reducer, num_workers)

    # -- growing-state factory ----------------------------------------- #

    def growing_state(self, graph, engine) -> ShardedGrowingState:
        return ShardedGrowingState(graph, engine, self)

    # -- worker lifecycle ----------------------------------------------- #

    def _ensure_workers(self, graph) -> None:
        if self._pool is not None and self._graph is graph:
            return
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
                store_path,
                self.num_shards,
                graph=graph,
                partitioner=self.partitioner,
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
                partitioner=self.partitioner,
            )
        self.plan = self.partitioned.plan
        if self.plan.mode == "range":
            spec = {
                "mode": "range",
                "starts": np.asarray(self.plan.starts, dtype=np.int64),
            }
        else:
            directory = Path(self.partitioned.directory)
            spec = {
                "mode": "lp",
                "num_shards": self.num_shards,
                "num_nodes": int(graph.num_nodes),
                "owners_path": str(directory / ASSIGNMENT_NAME),
                "localidx_path": str(directory / LOCALIDX_NAME),
            }
        shard_paths = [str(p) for p in self.partitioned.shard_paths]
        if self.resident_bytes is not None:
            self._pool = _InprocPool(shard_paths, spec, self.resident_bytes)
        else:
            self._pool = _PipePool(shard_paths, spec, self.exchange)
        self.spawn_count += 1
        self._graph = graph
        self._finalizer = weakref.finalize(
            self, self._cleanup, self._pool, self._tmpdir
        )

    def _broadcast(self, command: str, per_worker=None):
        if self._pool is None:
            raise RuntimeError("sharded workers are not running")
        return self._pool.broadcast(command, per_worker)

    @staticmethod
    def _cleanup(pool, tmpdir) -> None:
        if pool is not None:
            pool.close()
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)

    def close(self) -> None:
        """Shut down the workers and remove any private temp store."""
        if self._finalizer is not None:
            self._finalizer()  # runs _cleanup once, then detaches
            self._finalizer = None
        elif self._pool is not None or self._tmpdir is not None:
            # No finalizer yet: the pool failed to start (e.g. the fd
            # budget check) after the private temp store was written.
            self._cleanup(self._pool, self._tmpdir)
        self._pool = None
        self._tmpdir = None
        self._graph = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
