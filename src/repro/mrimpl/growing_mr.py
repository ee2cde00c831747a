"""One Δ-growing step as a MapReduce reducer program.

Two interchangeable state backends implement the step; the drivers
(:func:`~repro.mrimpl.cluster_mr.mr_cluster`,
:func:`~repro.mrimpl.cluster2_mr.mr_cluster2`) run the *same* control
flow over either through the :func:`make_growing_state` factory, so both
must produce bit-identical clusterings from a shared seed.

**Per-key pair layout** (:class:`PairGrowingState`, the paper-literal
simulation; all pairs keyed by node id ``u``):

* ``("A", ((v, w), ...))`` — adjacency list, persistent across rounds;
* ``("S", center, dist, frozen, dacc, changed[, frozen_iter])`` — node
  state: cluster center (or -1), stage-local distance, frozen flag
  (Contract applied), accumulated true distance to the center, whether
  the state changed in the previous round, and — for CLUSTER2's Contract2
  rescaling — the iteration at which the node froze (defaults to 0 and is
  ignored under CLUSTER semantics);
* ``("C", nd, center, dacc)`` — a relaxation candidate delivered to this
  node.

One growing step is **one engine round**: the reducer for node ``u``
merges incoming candidates into the state (the paper's tie-break: smallest
distance, then smallest center index) and, if the node's contribution is
new (state changed, or the driver forces a full broadcast after Δ changes
or a stage starts), emits candidates to its light neighbours.  Frozen
nodes propagate with effective distance 0, reproducing Contract exactly
as in the vectorized path.

**Batch array layout** (:class:`ArrayGrowingState`, used when the
engine's executor supports batch rounds): node state lives in driver-side
NumPy arrays, adjacency stays in the input CSR, and only the relaxation
candidates cross the engine — an ``int64`` target-key array plus a
``(nd, center, dacc)`` float64 row per candidate.  The merge half of the
step is one engine round resolved by the min-by-(distance, center)
O(candidates) scatter-min kernel of :mod:`repro.mr.kernels`; the
emission half expands the adopted frontier, carried between rounds as
an explicit index array, through the CSR arrays.  Step timing,
tie-breaking, and the forced-broadcast semantics are identical to the
per-key path, so one engine round still equals one growing step.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.mr.emit import EmitBatch, EmitScratch
from repro.mr.engine import MREngine, Pair
from repro.mr.executor import make_executor
from repro.mr.kernels import ScatterScratch, scatter_min_rows
from repro.mr import native as _native
from repro.mr.model import MRSpec

__all__ = [
    "graph_to_pairs",
    "mr_growing_step",
    "extract_states",
    "states_to_pairs",
    "PairGrowingState",
    "ArrayGrowingState",
    "make_growing_state",
    "default_engine",
    "owned_engine",
    "apply_merged_candidates",
]

NO_CENTER = -1

# --------------------------------------------------------------------- #
# Shared growing-step kernel
#
# One Δ-growing step is merge-then-emit.  The apply half of the merge is
# factored out as a pure array function so every array-backed execution
# path — the whole-graph ArrayGrowingState below and the per-shard
# workers of repro.mr.sharded — runs the *identical* code on its node
# range, which is what makes the sharded backend bit-identical by
# construction.
# --------------------------------------------------------------------- #


def apply_merged_candidates(
    keys: np.ndarray,
    values: np.ndarray,
    *,
    center: np.ndarray,
    dist: np.ndarray,
    dacc: np.ndarray,
    frozen: np.ndarray,
    changed: np.ndarray,
    base: int = 0,
) -> Tuple[int, np.ndarray]:
    """Adopt per-target winning candidates into the state arrays.

    ``keys`` are the distinct target node ids (ascending) and ``values``
    the winning ``(nd, center, dacc)`` row per target, as produced by
    the scatter-min merge.  State arrays are indexed locally; ``base``
    is the global id of local node 0 (0 for whole-graph state).  Marks
    adopted targets in ``changed`` and returns ``(newly_assigned,
    adopted)`` — how many adopted targets were previously unassigned,
    plus the adopted local indices themselves (ascending: the next
    round's active frontier, so callers never rescan the full mask).
    """
    if not len(keys):
        return 0, np.empty(0, dtype=np.int64)
    nd = values[:, 0]
    ctr = values[:, 1].astype(np.int64)
    dc = values[:, 2]
    idx = keys - base
    adopt = (~frozen[idx]) & (nd < dist[idx])
    tgt = idx[adopt]
    newly = int(np.count_nonzero(center[tgt] == NO_CENTER))
    center[tgt] = ctr[adopt]
    dist[tgt] = nd[adopt]
    dacc[tgt] = dc[adopt]
    changed[tgt] = True
    return newly, tgt


def graph_to_pairs(graph: CSRGraph) -> List[Pair]:
    """Distribute ``graph`` as adjacency pairs plus blank states."""
    pairs: List[Pair] = []
    for u in range(graph.num_nodes):
        nbrs, ws = graph.neighbors(u)
        adj = tuple((int(v), float(w)) for v, w in zip(nbrs, ws))
        pairs.append((u, ("A", adj)))
        pairs.append(
            (u, ("S", NO_CENTER, float("inf"), False, float("inf"), False, 0))
        )
    return pairs


def extract_states(pairs: List[Pair], num_nodes: int) -> Dict[int, Tuple]:
    """Driver-side view of the current state records."""
    states: Dict[int, Tuple] = {}
    for key, value in pairs:
        if value[0] == "S":
            states[key] = value
    if len(states) != num_nodes:
        missing = num_nodes - len(states)
        raise RuntimeError(f"{missing} node states missing from pair multiset")
    return states


def states_to_pairs(pairs: List[Pair], updates: Dict[int, Tuple]) -> List[Pair]:
    """Replace the state records of the nodes in ``updates`` (driver step).

    Used by the driver for center installation and freezing — operations
    the paper also performs outside the growing steps.
    """
    out: List[Pair] = []
    for key, value in pairs:
        if value[0] == "S" and key in updates:
            out.append((key, updates[key]))
        else:
            out.append((key, value))
    return out


def _growing_reducer(
    key,
    values,
    delta: float = 0.0,
    force: bool = False,
    rescale: float = 0.0,
    iteration: int = 0,
):
    """Reducer implementing one node's share of a Δ-growing step."""
    adj = ()
    state = None
    best_nd = float("inf")
    best_center = None
    best_dacc = float("inf")
    for v in values:
        tag = v[0]
        if tag == "A":
            adj = v[1]
        elif tag == "S":
            state = v
        elif tag == "C":
            _, nd, center, dacc = v
            if (
                best_center is None
                or nd < best_nd
                or (nd == best_nd and center < best_center)
            ):
                best_nd, best_center, best_dacc = nd, center, dacc
    if state is None:
        raise RuntimeError(f"node {key} received no state record")
    center, dist, frozen, dacc = state[1], state[2], state[3], state[4]
    frozen_iter = state[6] if len(state) > 6 else 0

    changed = False
    if (not frozen) and best_center is not None and best_nd < dist:
        center, dist, dacc = best_center, best_nd, best_dacc
        changed = True

    out = [
        (key, ("A", adj)),
        (key, ("S", center, dist, frozen, dacc, changed, frozen_iter)),
    ]

    # Emit candidates when this node's contribution is new.  Frozen nodes
    # and fresh centers contribute on forced rounds (stage start / Δ
    # change); otherwise only a change propagates.
    if center != NO_CENTER and (changed or force):
        if frozen:
            # Contract (rescale = 0): boundary edges re-attach at weight
            # w; Contract2: weights shrink by `rescale` per elapsed
            # iteration (see repro/core/state.py for the equivalence).
            eff = dist - rescale * (iteration - frozen_iter) if rescale else 0.0
        else:
            eff = dist
        if eff < delta:
            for nbr, w in adj:
                if w <= delta and eff + w <= delta:
                    out.append((nbr, ("C", eff + w, center, dacc + w)))
    return out


def mr_growing_step(
    engine: MREngine,
    pairs: List[Pair],
    delta: float,
    *,
    force: bool = False,
    num_nodes: int,
    rescale: float = 0.0,
    iteration: int = 0,
) -> Tuple[List[Pair], int, int]:
    """Run one Δ-growing step (= one engine round).

    Returns ``(pairs, num_updated, num_newly_assigned)``.

    Note the off-by-one in message timing relative to the vectorized path:
    candidates emitted in round *t* are merged in round *t+1*, so a
    "growing step" in the paper's sense spans the emit/merge boundary.
    The driver therefore runs one extra flush round at the end of each
    PartialGrowth; rounds and updates still match the vectorized
    implementation step for step (tests assert this).
    """
    before = extract_states(pairs, num_nodes)
    reducer = partial(
        _growing_reducer,
        delta=delta,
        force=force,
        rescale=rescale,
        iteration=iteration,
    )
    out = engine.round(pairs, reducer)
    after = extract_states(out, num_nodes)

    updated = 0
    newly_assigned = 0
    for node, state in after.items():
        if state[5]:  # changed flag
            updated += 1
            if before[node][1] == NO_CENTER:
                newly_assigned += 1
    engine.counters.updates += updated
    engine.counters.growing_steps += 1
    return out, updated, newly_assigned


# --------------------------------------------------------------------- #
# State backends shared by the CLUSTER / CLUSTER2 drivers
# --------------------------------------------------------------------- #


class PairGrowingState:
    """Driver state over the literal pair multiset (per-key reducer path)."""

    def __init__(self, graph: CSRGraph):
        self.num_nodes = graph.num_nodes
        self.pairs: List[Pair] = graph_to_pairs(graph)

    def uncovered(self) -> np.ndarray:
        """Ascending ids of nodes Contract has not frozen yet."""
        states = extract_states(self.pairs, self.num_nodes)
        return np.array(
            sorted(u for u in range(self.num_nodes) if not states[u][3]),
            dtype=np.int64,
        )

    def begin_stage(self, picks: np.ndarray) -> None:
        """Reset every non-frozen node and install ``picks`` as centers."""
        states = extract_states(self.pairs, self.num_nodes)
        updates: Dict[int, Tuple] = {}
        for u in range(self.num_nodes):
            if states[u][3]:
                continue
            updates[u] = (
                "S", NO_CENTER, float("inf"), False, float("inf"), False, 0
            )
        for u in picks:
            updates[int(u)] = ("S", int(u), 0.0, False, 0.0, False, 0)
        self.pairs = states_to_pairs(self.pairs, updates)

    def step(
        self,
        engine: MREngine,
        delta: float,
        *,
        force: bool = False,
        rescale: float = 0.0,
        iteration: int = 0,
    ) -> Tuple[int, int]:
        self.pairs, updated, newly = mr_growing_step(
            engine,
            self.pairs,
            delta,
            force=force,
            num_nodes=self.num_nodes,
            rescale=rescale,
            iteration=iteration,
        )
        return updated, newly

    def in_flight(self) -> bool:
        """Whether candidates emitted last step await their merge round."""
        return any(p[1][0] == "C" for p in self.pairs)

    def discard_candidates(self) -> None:
        self.pairs = [p for p in self.pairs if p[1][0] != "C"]

    def freeze_assigned(self, iteration: int = 0) -> int:
        """Contract: freeze every assigned, not-yet-frozen node."""
        states = extract_states(self.pairs, self.num_nodes)
        updates: Dict[int, Tuple] = {}
        for u in range(self.num_nodes):
            c, d, frozen, dacc = (
                states[u][1], states[u][2], states[u][3], states[u][4]
            )
            if c != NO_CENTER and not frozen:
                updates[u] = ("S", c, d, True, dacc, False, iteration)
        self.pairs = states_to_pairs(self.pairs, updates)
        return len(updates)

    def make_singletons(self, iteration: int = 0) -> int:
        """Freeze every leftover node as its own singleton cluster."""
        states = extract_states(self.pairs, self.num_nodes)
        leftover = [u for u in range(self.num_nodes) if not states[u][3]]
        updates = {
            u: ("S", u, 0.0, True, 0.0, False, iteration) for u in leftover
        }
        self.pairs = states_to_pairs(self.pairs, updates)
        return len(leftover)

    def result(self) -> Tuple[np.ndarray, np.ndarray]:
        states = extract_states(self.pairs, self.num_nodes)
        center = np.array(
            [states[u][1] for u in range(self.num_nodes)], dtype=np.int64
        )
        dacc = np.array(
            [states[u][4] for u in range(self.num_nodes)], dtype=np.float64
        )
        return center, dacc

    def snapshot_arrays(self) -> Dict[str, np.ndarray]:
        """Checkpoint payload: the canonical array form of the pair states.

        Only valid at safe points (no in-flight ``"C"`` pairs) — the
        drivers guarantee that; the snapshot is then portable to any
        backend.
        """
        n = self.num_nodes
        states = extract_states(self.pairs, n)
        out = {
            "center": np.empty(n, dtype=np.int64),
            "dist": np.empty(n, dtype=np.float64),
            "dist_acc": np.empty(n, dtype=np.float64),
            "frozen": np.empty(n, dtype=bool),
            "frozen_iter": np.empty(n, dtype=np.int64),
            "changed": np.empty(n, dtype=bool),
        }
        for u in range(n):
            s = states[u]
            out["center"][u] = s[1]
            out["dist"][u] = s[2]
            out["frozen"][u] = s[3]
            out["dist_acc"][u] = s[4]
            out["changed"][u] = s[5]
            out["frozen_iter"][u] = s[6] if len(s) > 6 else 0
        return out

    def restore_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Rehydrate from a checkpoint payload, dropping in-flight pairs."""
        updates: Dict[int, Tuple] = {}
        for u in range(self.num_nodes):
            updates[u] = (
                "S",
                int(arrays["center"][u]),
                float(arrays["dist"][u]),
                bool(arrays["frozen"][u]),
                float(arrays["dist_acc"][u]),
                bool(arrays["changed"][u]),
                int(arrays["frozen_iter"][u]),
            )
        self.pairs = states_to_pairs(
            [p for p in self.pairs if p[1][0] != "C"], updates
        )


class ArrayGrowingState:
    """Driver state over NumPy arrays (batch reducer path).

    Node state is a struct-of-arrays; only relaxation candidates travel
    through the engine, as an int64 key array plus ``(nd, center, dacc)``
    value rows.  Semantically equivalent to :class:`PairGrowingState`
    step for step — the backend-equivalence tests assert bit-identical
    clusterings.

    The merge-then-emit round runs the **fused pipeline** of
    :mod:`repro.mr.emit`: candidates are written into a per-state
    :class:`~repro.mr.emit.EmitScratch`, unadoptable rows are dropped
    before their value columns are materialized (the counters and
    memory-model checks still see the full multiset), and the surviving
    rows go straight to :func:`~repro.mr.kernels.scatter_min_rows` — no
    intermediate copy, key materialization, or sort, and zero O(n)/O(m)
    allocations on non-forced rounds.  ``REPRO_EMIT_MODE`` selects
    push/pull/auto expansion.
    """

    def __init__(self, graph: CSRGraph):
        n = graph.num_nodes
        self.graph = graph
        self.num_nodes = n
        self.center = np.full(n, NO_CENTER, dtype=np.int64)
        self.dist = np.full(n, np.inf)
        self.frozen = np.zeros(n, dtype=bool)
        self.dacc = np.full(n, np.inf)
        self.changed = np.zeros(n, dtype=bool)
        self.frozen_iter = np.zeros(n, dtype=np.int64)
        #: In-flight emission: the last step's :class:`EmitBatch`.
        self._pending: Optional[EmitBatch] = None
        #: Last merge's adopted node ids (ascending) — the live frontier.
        self._active = np.empty(0, dtype=np.int64)
        self._emit_scratch = EmitScratch(
            graph.indptr,
            graph.indices,
            graph.weights,
            arc_sources=graph.rsrc,
        )
        #: Dense buffers of the merge, reused across rounds and phases.
        self._merge_scratch = ScatterScratch()

    def reset(self) -> None:
        """Return to the pristine post-``__init__`` state, keeping scratch.

        Called when a driver starts a new clustering phase on the same
        graph (CLUSTER2's second phase): state arrays are refilled in
        place and the emit scratch keeps its buffers (its frozen-emission
        cache is cleared — phase-2 freezing starts over).
        """
        self.center.fill(NO_CENTER)
        self.dist.fill(np.inf)
        self.frozen.fill(False)
        self.dacc.fill(np.inf)
        self.changed.fill(False)
        self.frozen_iter.fill(0)
        self._pending = None
        self._active = np.empty(0, dtype=np.int64)
        self._emit_scratch.reset()

    def uncovered(self) -> np.ndarray:
        return np.flatnonzero(~self.frozen).astype(np.int64)

    def begin_stage(self, picks: np.ndarray) -> None:
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
        picks = np.asarray(picks, dtype=np.int64)
        self.center[picks] = picks
        self.dist[picks] = 0.0
        self.dacc[picks] = 0.0

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
        # (nd, center, dacc) per target, with the accounting of the full
        # emission (the batch carries it).
        keys, values = self._merge_fused(engine, self._pending)
        self._pending = None
        apply_start = perf_counter()
        self.changed[self._active] = False  # O(frontier), not O(n)
        newly, self._active = apply_merged_candidates(
            keys,
            values,
            center=self.center,
            dist=self.dist,
            dacc=self.dacc,
            frozen=self.frozen,
            changed=self.changed,
        )
        updated = len(self._active)
        emit_start = perf_counter()
        engine.counters.add_time("apply", emit_start - apply_start)

        # Emit: fused expansion into the scratch banks.  Non-forced
        # rounds pass the adopted frontier straight through.  The merge
        # is order-free — the scatter breaks ties by (nd, center,
        # source) — so the frozen-emission cache is always available.
        self._pending = self._emit_scratch.emit(
            center=self.center,
            dist=self.dist,
            dacc=self.dacc,
            frozen=self.frozen,
            frozen_iter=self.frozen_iter,
            delta=delta,
            force=force,
            rescale=rescale,
            iteration=iteration,
            sources=None if force else self._active,
        )
        engine.counters.add_time("emit", perf_counter() - emit_start)

        engine.counters.updates += updated
        engine.counters.growing_steps += 1
        return updated, newly

    def _merge_fused(
        self, engine: MREngine, batch: Optional[EmitBatch]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One merge round over a fused batch, with ``round_batch``'s
        exact accounting — the shared engine cost-model helpers, fed
        the *unfiltered* multiset the batch recorded at emit time."""
        emitted = batch.emitted if batch is not None else 0
        words_per_pair = 4  # 1 key word + 3 payload words
        engine.check_total_memory(emitted, words_per_pair)
        shuffle_start = perf_counter()
        if batch is not None:
            engine.check_local_memory(
                batch.group_keys, batch.group_counts, words_per_pair
            )

        reduce_start = perf_counter()
        if batch is None or batch.count == 0:
            out_keys = np.empty(0, dtype=np.int64)
            out_values = np.empty((0, 3), dtype=np.float64)
        else:
            # No shuffle at all: the ungrouped scatter consumes the
            # scratch banks directly; the (nd, center, source)
            # tie-break equals the engine's stable-first rule for
            # deduplicated edges.
            out_keys, rows = scatter_min_rows(
                batch.keys,
                (batch.nd, batch.ctr, batch.srcf),
                domain=self.num_nodes,
                scratch=self._merge_scratch,
            )
            out_values = np.empty((len(out_keys), 3), dtype=np.float64)
            out_values[:, 0] = batch.nd[rows]
            out_values[:, 1] = batch.ctr[rows]
            out_values[:, 2] = self.dacc[batch.src[rows]]
            out_values[:, 2] += batch.w[rows]
        engine.counters.add_time("shuffle", reduce_start - shuffle_start)
        engine.counters.add_time("reduce", perf_counter() - reduce_start)

        engine.account_batch_round(
            emitted,
            batch.group_keys if batch is not None else None,
            batch.group_counts if batch is not None else None,
            1,  # the merge outputs one row per (full-multiset) group
        )
        return out_keys, out_values

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
        self.center[leftover] = leftover
        self.dist[leftover] = 0.0
        self.dacc[leftover] = 0.0
        self.frozen[leftover] = True
        self.changed[leftover] = False
        self.frozen_iter[leftover] = iteration
        return len(leftover)

    def result(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.center.copy(), self.dacc.copy()

    def snapshot_arrays(self) -> Dict[str, np.ndarray]:
        """Checkpoint payload (safe points only — ``_pending`` is empty)."""
        return {
            "center": self.center.copy(),
            "dist": self.dist.copy(),
            "dist_acc": self.dacc.copy(),
            "frozen": self.frozen.copy(),
            "frozen_iter": self.frozen_iter.copy(),
            "changed": self.changed.copy(),
        }

    def restore_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Rehydrate from a checkpoint payload.

        The active frontier is exactly the ``changed`` set at a safe
        point (all-False in practice — the drivers only snapshot between
        growths), and any pending emission or cached frozen replay is
        invalid for the restored state, so scratch is reset.
        """
        np.copyto(self.center, arrays["center"])
        np.copyto(self.dist, arrays["dist"])
        np.copyto(self.dacc, arrays["dist_acc"])
        np.copyto(self.frozen, arrays["frozen"])
        np.copyto(self.frozen_iter, arrays["frozen_iter"])
        np.copyto(self.changed, arrays["changed"])
        self._pending = None
        self._active = np.flatnonzero(self.changed).astype(np.int64)
        self._emit_scratch.reset()


def make_growing_state(graph: CSRGraph, engine: MREngine):
    """Pick the state backend matching the engine's executor.

    Executors that *own* the growing state (the sharded backend, whose
    persistent workers keep their slice resident across rounds) build it
    themselves; executors that run batch rounds natively get the array
    layout; the per-key executors keep the literal pair simulation.

    Array states are cached on the engine: when a driver starts a new
    phase on the same graph (CLUSTER2 after its base CLUSTER run), the
    existing state is :meth:`~ArrayGrowingState.reset` in place instead
    of being rebuilt — the candidate banks, emit scratch, and dense
    buffers all survive the phase boundary.
    """
    if getattr(engine.executor, "owns_growing_state", False):
        return engine.executor.growing_state(graph, engine)
    if engine.supports_batch:
        cached = getattr(engine, "_array_growing_state", None)
        if cached is not None and cached.graph is graph:
            cached.reset()
            return cached
        state = ArrayGrowingState(graph)
        engine._array_growing_state = state
        return state
    return PairGrowingState(graph)


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
    executor="serial",
    num_workers=None,
    shards=None,
) -> MREngine:
    """Engine whose spec accommodates ``graph``'s densest reducer group.

    A reducer group holds a node's adjacency plus incoming candidates:
    size ≤ 8·(deg) + 64 words is a safe envelope for both layouts.
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
