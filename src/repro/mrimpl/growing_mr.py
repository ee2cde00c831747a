"""One Δ-growing step as a MapReduce batch round.

The drivers (:func:`~repro.mrimpl.cluster_mr.mr_cluster`,
:func:`~repro.mrimpl.cluster2_mr.mr_cluster2`) run their control flow
over a growing state built by :func:`make_growing_state`.

:class:`ArrayGrowingState` keeps the node state — cluster center (or
-1), stage-local distance, frozen flag (Contract applied), accumulated
true distance to the center, whether the state changed in the previous
round, and, for CLUSTER2's Contract2 rescaling, the iteration at which
the node froze — in driver-side NumPy arrays; adjacency stays in the
input CSR, and only the relaxation candidates cross the engine: an
``int64`` target-key array plus a ``(nd, center, dacc)`` float64 row per
candidate.  One growing step is **one engine round**: the merge half
resolves last step's candidates by the min-by-(distance, center)
O(candidates) scatter-min kernel of :mod:`repro.mr.kernels` (the
paper's tie-break: smallest distance, then smallest center index), and
the emission half expands the adopted frontier, carried between rounds
as an explicit index array, through the CSR arrays.  A node emits when
its contribution is new (state changed, or the driver forces a full
broadcast after Δ changes or a stage starts); frozen nodes propagate
with effective distance 0, reproducing Contract exactly as in the
vectorized core.  Candidates emitted in round *t* are merged in round
*t+1*, so a "growing step" in the paper's sense spans the emit/merge
boundary and the drivers run one flush round at the end of each
PartialGrowth.

:class:`ArrayGrowingState` is also the node-state machine of the
``sharded`` backend: each shard worker of :mod:`repro.mr.sharded` is a
subclass running it over the shard's own rows (mapped to global ids by
``row_gids``) and adding only what sharding needs — the exchange of
cross-shard candidates and the frozen-replica ghosts.  Stage control,
the apply half of the merge, freezing, singletons, and checkpoint
snapshots are this one class's code on every backend, which is what
makes the two backends bit-identical by construction.  The
paper-literal per-key reducer program of the same step is kept in the
test suite as the oracle the merge parity suites compare against.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.mr.emit import EmitBatch, EmitScratch
from repro.mr.engine import GroupSummary, MREngine
from repro.mr.executor import make_executor
from repro.mr.kernels import ScatterScratch, scatter_min_rows
from repro.mr import native as _native
from repro.mr.model import MRSpec

__all__ = [
    "ArrayGrowingState",
    "make_growing_state",
    "default_engine",
    "owned_engine",
]

NO_CENTER = -1

_EMPTY_I8 = np.empty(0, dtype=np.int64)


class ArrayGrowingState:
    """Driver state over NumPy arrays (batch reducer path).

    Node state is a struct-of-arrays; only relaxation candidates travel
    through the engine, as an int64 key array plus ``(nd, center, dacc)``
    value rows.  Step for step equivalent to the per-key reducer
    program the merge parity suites use as their oracle.

    The state rows are the nodes of ``graph``.  ``row_gids``, when
    given, names the global node id of each row (ascending): a shard
    worker of :mod:`repro.mr.sharded` runs this class over its own rows
    only, and node ids crossing the interface — :meth:`uncovered`,
    :meth:`begin_stage`'s picks, the center ids, the checkpoint arrays
    of :meth:`restore_arrays` — stay global.  ``None`` is the identity
    map: the whole-graph state.

    The merge-then-emit round runs the **fused pipeline** of
    :mod:`repro.mr.emit`: candidates are written into a per-state
    :class:`~repro.mr.emit.EmitScratch`, unadoptable rows are dropped
    before their value columns are materialized (the counters and
    memory-model checks still see every message), and the surviving
    rows go straight to :func:`~repro.mr.kernels.scatter_min_rows` — no
    intermediate copy, key materialization, or sort, and zero O(n)/O(m)
    allocations on non-forced rounds.
    """

    def __init__(self, graph: CSRGraph, row_gids: Optional[np.ndarray] = None):
        n = graph.num_nodes
        self.graph = graph
        self.num_rows = n
        self.row_gids = row_gids
        self.center = np.full(n, NO_CENTER, dtype=np.int64)
        self.dist = np.full(n, np.inf)
        self.frozen = np.zeros(n, dtype=bool)
        self.dacc = np.full(n, np.inf)
        self.changed = np.zeros(n, dtype=bool)
        self.frozen_iter = np.zeros(n, dtype=np.int64)
        #: In-flight emission: the last step's :class:`EmitBatch`.
        self._pending: Optional[EmitBatch] = None
        #: Last merge's adopted rows (ascending) — the live frontier.
        self._active = np.empty(0, dtype=np.int64)
        self._emit_scratch = self._make_emit_scratch(graph)
        #: Dense buffers of the merge, reused across rounds and phases.
        self._merge_scratch = ScatterScratch()

    def _make_emit_scratch(self, graph: CSRGraph) -> EmitScratch:
        return EmitScratch(graph.indptr, graph.indices, graph.weights)

    def _to_global(self, rows: np.ndarray) -> np.ndarray:
        return rows if self.row_gids is None else self.row_gids[rows]

    def reset(self) -> None:
        """Return to the pristine post-``__init__`` state, keeping scratch.

        Called when a driver starts a new clustering phase on the same
        graph (CLUSTER2's second phase): state arrays are refilled in
        place and the emit scratch keeps its buffers (its silent-row
        marks are cleared — phase-2 freezing starts over).
        """
        self.center.fill(NO_CENTER)
        self.dist.fill(np.inf)
        self.frozen.fill(False)
        self.dacc.fill(np.inf)
        self.changed.fill(False)
        self.frozen_iter.fill(0)
        self.discard_candidates()
        self._active = np.empty(0, dtype=np.int64)
        self._emit_scratch.reset()

    def uncovered(self) -> np.ndarray:
        return self._to_global(np.flatnonzero(~self.frozen).astype(np.int64))

    def begin_stage(self, picks: np.ndarray) -> None:
        """Reset every live row and install ``picks`` (global ids of
        this state's rows) as centers.  Nothing is in flight at a stage
        boundary; :meth:`discard_candidates` makes that explicit."""
        if _native.use_native():
            # One C pass resets all five columns of the live rows.
            _native.begin_stage(
                self.frozen, self.center, self.dist, self.dacc,
                self.changed, self.frozen_iter,
            )
        else:
            live = ~self.frozen
            # copyto-with-where: one masked store per column, no index
            # materialization (begin_stage runs once per stage over all n).
            np.copyto(self.center, NO_CENTER, where=live)
            np.copyto(self.dist, np.inf, where=live)
            np.copyto(self.dacc, np.inf, where=live)
            np.copyto(self.changed, False, where=live)
            np.copyto(self.frozen_iter, 0, where=live)
        self._active = np.empty(0, dtype=np.int64)
        self.discard_candidates()
        picks = np.asarray(picks, dtype=np.int64)
        rows = (
            picks
            if self.row_gids is None
            else np.searchsorted(self.row_gids, picks)
        )
        self.center[rows] = picks
        self.dist[rows] = 0.0
        self.dacc[rows] = 0.0

    def step(
        self,
        engine: MREngine,
        delta: float,
        *,
        force: bool = False,
        rescale: float = 0.0,
        iteration: int = 0,
    ) -> Tuple[int, int]:
        # Merge: reduce last step's surviving candidates to the winning
        # row per target, with the accounting of all its messages (the
        # batch carries it); the apply reads the winners in place.
        batch = self._pending
        keys, rows = self._merge_fused(engine, batch)
        self._pending = None
        if batch is None:
            batch = EmitBatch()  # nothing in flight: empty columns
        apply_start = perf_counter()
        updated, newly = self._apply(
            keys, rows, batch.nd, batch.ctr, batch.w, src=batch.src
        )
        emit_start = perf_counter()
        engine.counters.add_time("apply", emit_start - apply_start)

        # Emit: fused expansion into the scratch banks.  Non-forced
        # rounds pass the adopted frontier straight through.
        self._pending = self._emit_scratch.emit(
            center=self.center,
            dist=self.dist,
            frozen=self.frozen,
            frozen_iter=self.frozen_iter,
            delta=delta,
            force=force,
            rescale=rescale,
            iteration=iteration,
            sources=None if force else self._active,
            num_workers=engine.spec.num_workers,
        )
        engine.counters.add_time("emit", perf_counter() - emit_start)

        engine.counters.updates += updated
        engine.counters.growing_steps += 1
        return updated, newly

    def _apply(
        self,
        keys: np.ndarray,
        rows: np.ndarray,
        nd: np.ndarray,
        ctr: np.ndarray,
        dv: np.ndarray,
        *,
        src: Optional[np.ndarray] = None,
    ) -> Tuple[int, int]:
        """Adopt the merge's per-target winners into the state arrays.

        ``keys`` are the distinct target rows (ascending).  The winner
        of ``keys[j]`` is candidate row ``rows[j]`` of the float64
        columns ``nd`` (distance), ``ctr`` (center) and ``dv``.
        Without ``src``, ``dv`` is the winner's accumulated distance
        (the sharded wire format carries it); with ``src``, ``dv`` is
        the arc weight and the accumulated distance is
        ``dacc[src[row]] + w``, read before any row is written — a
        winner's source may itself be adopted by this merge.  A target
        adopts when it is open and strictly improved.  The adopted rows
        become the next round's active frontier (ascending, so no
        caller rescans the full mask).  Returns
        ``(updated, newly_assigned)``.
        """
        if _native.use_native():
            # One C pass: clear the last frontier, adopt test, NO_CENTER
            # count and the state writes.
            tgt, newly = _native.apply_winners(
                keys, rows, nd, ctr, dv, src, self._active,
                self.frozen, self.center, self.dist, self.dacc, self.changed,
            )
            self._active = tgt
            return len(tgt), newly
        self.changed[self._active] = False  # O(frontier), not O(n)
        win_nd = nd[rows]
        adopt = (~self.frozen[keys]) & (win_nd < self.dist[keys])
        tgt = keys[adopt]
        win = rows[adopt]
        if src is None:
            new_dacc = dv[win]
        else:
            new_dacc = self.dacc[src[win]] + dv[win]
        newly = int(np.count_nonzero(self.center[tgt] == NO_CENTER))
        self.center[tgt] = ctr[win].astype(np.int64)
        self.dist[tgt] = win_nd[adopt]
        self.dacc[tgt] = new_dacc
        self.changed[tgt] = True
        self._active = tgt
        return len(tgt), newly

    def _merge_fused(
        self, engine: MREngine, batch: Optional[EmitBatch]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One merge round over a fused batch, with ``round_batch``'s
        exact accounting — the shared engine cost-model helpers, fed
        the group summary of the messages the batch recorded at emit
        time (one output row per group).
        Returns the distinct target rows (ascending) and each one's
        winning row in the batch."""
        emitted = batch.emitted if batch is not None else 0
        words_per_pair = 4  # 1 key word + 3 payload words
        engine.check_total_memory(emitted, words_per_pair)
        shuffle_start = perf_counter()
        summary = batch.summary if batch is not None else GroupSummary()
        engine.check_local_memory(summary, words_per_pair)

        reduce_start = perf_counter()
        if batch is None or batch.count == 0:
            out_keys = rows = _EMPTY_I8
        else:
            # No shuffle at all: the ungrouped scatter consumes the
            # scratch banks directly; the (nd, center, source)
            # tie-break equals the engine's stable-first rule for
            # deduplicated edges.
            out_keys, rows = scatter_min_rows(
                batch.keys,
                (batch.nd, batch.ctr, batch.srcf),
                domain=self.num_rows,
                scratch=self._merge_scratch,
            )
        engine.counters.add_time("shuffle", reduce_start - shuffle_start)
        engine.counters.add_time("reduce", perf_counter() - reduce_start)

        engine.account_batch_round(emitted, summary)
        return out_keys, rows

    def in_flight(self) -> bool:
        return self._pending is not None and self._pending.emitted > 0

    def discard_candidates(self) -> None:
        self._pending = None

    def freeze_assigned(self, iteration: int = 0) -> int:
        if _native.use_native():
            return _native.freeze_assigned(
                self.center, iteration,
                self.frozen, self.changed, self.frozen_iter,
            )
        sel = (self.center != NO_CENTER) & ~self.frozen
        np.copyto(self.frozen, True, where=sel)
        np.copyto(self.changed, False, where=sel)
        np.copyto(self.frozen_iter, iteration, where=sel)
        return int(np.count_nonzero(sel))

    def make_singletons(self, iteration: int = 0) -> int:
        leftover = np.flatnonzero(~self.frozen)
        self.center[leftover] = self._to_global(leftover)
        self.dist[leftover] = 0.0
        self.dacc[leftover] = 0.0
        self.frozen[leftover] = True
        self.changed[leftover] = False
        self.frozen_iter[leftover] = iteration
        return len(leftover)

    def result(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.center.copy(), self.dacc.copy()

    def snapshot_arrays(self) -> Dict[str, np.ndarray]:
        """Checkpoint payload of this state's rows (safe points only —
        ``_pending`` is empty)."""
        return {
            "center": self.center.copy(),
            "dist": self.dist.copy(),
            "dist_acc": self.dacc.copy(),
            "frozen": self.frozen.copy(),
            "frozen_iter": self.frozen_iter.copy(),
            "changed": self.changed.copy(),
        }

    def restore_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Rehydrate from a (global) checkpoint payload.

        The active frontier is exactly the ``changed`` set at a safe
        point (all-False in practice — the drivers only snapshot between
        growths), and any pending emission or silent-row mark is invalid
        for the restored state, so scratch is reset.
        """
        rows = slice(None) if self.row_gids is None else self.row_gids
        np.copyto(self.center, arrays["center"][rows])
        np.copyto(self.dist, arrays["dist"][rows])
        np.copyto(self.dacc, arrays["dist_acc"][rows])
        np.copyto(self.frozen, arrays["frozen"][rows])
        np.copyto(self.frozen_iter, arrays["frozen_iter"][rows])
        np.copyto(self.changed, arrays["changed"][rows])
        self.discard_candidates()
        self._active = np.flatnonzero(self.changed).astype(np.int64)
        self._emit_scratch.reset()


def make_growing_state(graph: CSRGraph, engine: MREngine):
    """The growing state for ``graph`` on ``engine``.

    Executors that *own* the growing state (the sharded backend, whose
    persistent workers keep their slice resident across rounds) build it
    themselves; otherwise (``vector``) it is an
    :class:`ArrayGrowingState` over the whole graph.

    Array states are cached on the engine: when a driver starts a new
    phase on the same graph (CLUSTER2 after its base CLUSTER run), the
    existing state is :meth:`~ArrayGrowingState.reset` in place instead
    of being rebuilt — the candidate banks, emit scratch, and dense
    buffers all survive the phase boundary.
    """
    if getattr(engine.executor, "owns_growing_state", False):
        return engine.executor.growing_state(graph, engine)
    cached = getattr(engine, "_array_growing_state", None)
    if cached is not None and cached.graph is graph:
        cached.reset()
        return cached
    state = ArrayGrowingState(graph)
    engine._array_growing_state = state
    return state


@contextmanager
def owned_engine(graph: CSRGraph, config, engine=None, *, num_workers=None):
    """Yield ``engine``, or a :func:`default_engine` owned by the block.

    The drivers accept an optional caller-supplied engine; when none is
    given they build one from ``config.executor`` and must close its
    executor on the way out (the ``sharded`` backend owns worker
    processes).  This context manager is that ownership rule, written once.
    """
    if engine is not None:
        yield engine
        return
    engine = default_engine(
        graph,
        executor=config.executor,
        num_workers=num_workers,
        shards=getattr(config, "shards", None),
    )
    try:
        yield engine
    finally:
        if hasattr(engine.executor, "close"):
            engine.executor.close()


def default_engine(
    graph: CSRGraph,
    *,
    executor="vector",
    num_workers=None,
    shards=None,
) -> MREngine:
    """Engine whose spec accommodates ``graph``'s densest reducer group.

    A reducer group holds a node's incoming candidates: size
    ≤ 8·(deg) + 64 words is a safe envelope.
    ``executor`` is either an executor instance or a
    :func:`~repro.mr.executor.make_executor` name.  ``num_workers``
    defaults to 1 (the single-machine simulation) except for
    ``sharded``, where the simulated machine count *is* the shard count
    (``shards``, default ``num_workers`` or the CPU count).
    ``num_workers`` never affects results, only the critical-path model
    and the shard count.
    """
    if isinstance(executor, str):
        if executor == "sharded" and shards is None:
            shards = num_workers
        executor = make_executor(executor, shards=shards)
    num_shards = getattr(executor, "num_shards", None)
    if num_shards is not None:
        # Owner-compute backend: the simulated machine count is the
        # shard count, by definition.
        num_workers = num_shards
    elif num_workers is None:
        num_workers = 1
    n = graph.num_nodes
    ml = max(64, 8 * (int(graph.degrees.max()) if n else 1) + 64)
    spec = MRSpec(
        total_memory=max(16 * graph.memory_words(), ml),
        local_memory=ml,
        num_workers=num_workers,
    )
    return MREngine(spec, executor=executor)
