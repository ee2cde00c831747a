"""The Δ-growing step and PartialGrowth loops (vectorized).

A **Δ-growing step** (paper §3) performs, in parallel for every node ``u``
with ``d_u < Δ`` and every light edge ``(u, v)`` (weight ≤ Δ): if
``d_u + w(u, v) ≤ Δ`` and ``d_v > d_u + w(u, v)``, update
``(c_v, d_v) ← (c_u, d_u + w(u, v))``; among competing updates the one with
the smallest ``d_v`` wins, ties broken towards the smallest center index.

The implementation is a single synchronous (Jacobi-style) NumPy pass:

1. gather all arcs out of the active sources with
   :func:`~repro.util.expand_ranges`;
2. filter to light arcs whose candidate distance passes the Δ and
   improvement tests against the *old* state (synchronous semantics);
3. resolve competition per target with the O(candidates) scatter-min
   kernel (:func:`repro.mr.kernels.scatter_min_rows`) over
   ``(candidate_distance, candidate_center)`` — exactly the paper's
   tie-breaking rule, deterministically, without sorting the candidate
   batch.

Frontier maintenance: after the first full step, only nodes whose state
changed can generate new improvements (frozen nodes' contributions never
change), so subsequent steps scan only the previous step's updated set.
This matches what a real MapReduce implementation sends and is the basis
of the work counts: messages are the candidates over light arcs that
pass the Δ test into targets not yet frozen — the rule every backend
applies (``docs/mr_model.md``).
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Tuple

import numpy as np

from repro.core.state import NO_CENTER, ClusterState
from repro.graph.csr import CSRGraph
from repro.mr import native as _native
from repro.mr.kernels import ScatterScratch, scatter_min_rows
from repro.mr.metrics import Counters
from repro.util import expand_ranges

__all__ = ["delta_growing_step", "partial_growth", "GrowthResult"]


def delta_growing_step(
    graph: CSRGraph,
    state: ClusterState,
    delta: float,
    counters: Counters,
    *,
    sources: Optional[np.ndarray] = None,
    iteration: int = 0,
    rescale: float = 0.0,
    scratch: Optional[ScatterScratch] = None,
) -> Tuple[np.ndarray, int]:
    """Execute one synchronous Δ-growing step.

    Parameters
    ----------
    graph, state:
        The input graph and the mutable per-node state.
    delta:
        Current Δ (light-edge threshold and growth radius bound).
    counters:
        Accumulates one round, plus messages/updates/relaxations.
    sources:
        Candidate source nodes; ``None`` means "all assigned nodes"
        (required on the first step of a stage or after Δ changes).
    iteration, rescale:
        Contract2 rescaling parameters (see
        :meth:`~repro.core.state.ClusterState.effective_dist`); leave at
        defaults for CLUSTER semantics.
    scratch:
        Optional :class:`~repro.mr.kernels.ScatterScratch` for the
        winner-selection kernel; :func:`partial_growth` allocates one
        per growth loop so the dense buffers are reused across steps.

    Returns
    -------
    (updated, newly_assigned):
        Node ids whose state improved this step, and how many of them had
        no center before the step.
    """
    if sources is None:
        cand_src = np.flatnonzero(state.assigned_mask())
    else:
        cand_src = np.asarray(sources, dtype=np.int64)
        cand_src = cand_src[state.center[cand_src] != NO_CENTER]

    # Effective source distances (frozen nodes propagate as contracted edges).
    eff = state.dist[cand_src].copy()
    frozen_mask = state.frozen[cand_src]
    if rescale == 0.0:
        eff[frozen_mask] = 0.0
    else:
        fidx = np.flatnonzero(frozen_mask)
        eff[fidx] -= rescale * (iteration - state.frozen_iter[cand_src[fidx]])

    active = eff < delta
    srcs = cand_src[active]
    eff = eff[active]
    counters.growing_steps += 1
    if srcs.size == 0:
        counters.record_round(messages=0, updates=0)
        return np.empty(0, dtype=np.int64), 0

    emit_start = perf_counter()
    degs = graph.indptr[srcs + 1] - graph.indptr[srcs]
    if _native.use_native():
        # Fused push expansion + message count + improvement filter in
        # one C pass over the frontier's arcs (same semantics as the
        # NumPy cascade below: the message count excludes only the
        # improvement test).
        cand_t, cand_d, cand_s, cand_w, messages = _native.core_emit_push(
            graph.indptr, graph.indices, graph.weights, srcs, eff,
            delta, state.frozen, state.dist, int(degs.sum()),
        )
        if not len(cand_t):
            counters.record_round(messages=messages, updates=0)
            counters.add_time("emit", perf_counter() - emit_start)
            return np.empty(0, dtype=np.int64), 0
        cand_c = state.center[cand_s]
        cand_acc = state.dist_acc[cand_s] + cand_w
    else:
        # Gather all arcs out of the active sources.
        arc_idx = expand_ranges(graph.indptr[srcs], degs)
        tgt = graph.indices[arc_idx]
        w = graph.weights[arc_idx]
        src_rep = np.repeat(srcs, degs)
        eff_rep = np.repeat(eff, degs)

        # Messages = candidates over light arcs, within Δ, that exist in
        # the *contracted* graph: arcs into frozen targets were removed
        # by Contract (both endpoints covered → edge dropped; boundary
        # edges point outward only), so a real implementation never
        # sends along them.
        nd = eff_rep + w
        sent = (w <= delta) & (nd <= delta) & ~state.frozen[tgt]
        messages = int(np.count_nonzero(sent))
        ok = sent & (nd < state.dist[tgt])
        if not ok.any():
            counters.record_round(messages=messages, updates=0)
            counters.add_time("emit", perf_counter() - emit_start)
            return np.empty(0, dtype=np.int64), 0

        cand_t = tgt[ok]
        cand_d = nd[ok]
        cand_c = state.center[src_rep[ok]]
        cand_acc = state.dist_acc[src_rep[ok]] + w[ok]
    relaxations = len(cand_t)
    reduce_start = perf_counter()
    counters.add_time("emit", reduce_start - emit_start)

    # Winner per target: smallest distance, then smallest center index
    # (any remaining tie is a duplicate (target, distance, center) row;
    # the kernel keeps the earliest arrival).
    upd, sel = scatter_min_rows(
        cand_t,
        (cand_d, cand_c.astype(np.float64)),
        domain=len(state.center),
        scratch=scratch,
    )

    apply_start = perf_counter()
    counters.add_time("reduce", apply_start - reduce_start)
    newly_assigned = int(np.count_nonzero(state.center[upd] == NO_CENTER))
    state.dist[upd] = cand_d[sel]
    state.center[upd] = cand_c[sel]
    state.dist_acc[upd] = cand_acc[sel]
    counters.add_time("apply", perf_counter() - apply_start)

    counters.record_round(messages=messages, updates=len(upd), relaxations=relaxations)
    return upd, newly_assigned


class GrowthResult:
    """Outcome of a PartialGrowth loop.

    Attributes
    ----------
    steps:
        Δ-growing steps executed.
    newly_covered:
        Previously-unassigned nodes that received a center.
    reached_fixpoint:
        ``True`` when the loop stopped because no state changed.
    hit_cap:
        ``True`` when the §4.1 growing-step cap stopped the loop.
    """

    __slots__ = ("steps", "newly_covered", "reached_fixpoint", "hit_cap")

    def __init__(self, steps: int, newly_covered: int, reached_fixpoint: bool, hit_cap: bool):
        self.steps = steps
        self.newly_covered = newly_covered
        self.reached_fixpoint = reached_fixpoint
        self.hit_cap = hit_cap

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GrowthResult(steps={self.steps}, newly_covered={self.newly_covered}, "
            f"fixpoint={self.reached_fixpoint}, capped={self.hit_cap})"
        )


def partial_growth(
    graph: CSRGraph,
    state: ClusterState,
    delta: float,
    counters: Counters,
    *,
    cover_target: Optional[int] = None,
    step_cap: Optional[int] = None,
    iteration: int = 0,
    rescale: float = 0.0,
) -> GrowthResult:
    """Run Δ-growing steps to (near) fixpoint — Procedures PartialGrowth/2.

    Stops when a step produces no update (fixpoint; this happens after at
    most ``ℓ_Δ`` steps by the Bellman–Ford argument of Theorem 1), when
    ``cover_target`` newly covered nodes have been reached (PartialGrowth's
    half-coverage early exit), or when ``step_cap`` steps have run (§4.1's
    round-limiting variant).

    The first step scans all assigned nodes (frozen representatives
    included); later steps scan only the previous step's updated frontier.
    """
    frontier: Optional[np.ndarray] = None  # None = all assigned sources
    steps = 0
    newly_covered = 0
    scratch = ScatterScratch()  # winner-selection buffers, reused per step
    while True:
        updated, assigned_now = delta_growing_step(
            graph,
            state,
            delta,
            counters,
            sources=frontier,
            iteration=iteration,
            rescale=rescale,
            scratch=scratch,
        )
        steps += 1
        newly_covered += assigned_now
        if updated.size == 0:
            return GrowthResult(steps, newly_covered, True, False)
        if cover_target is not None and newly_covered >= cover_target:
            return GrowthResult(steps, newly_covered, False, False)
        if step_cap is not None and steps >= step_cap:
            return GrowthResult(steps, newly_covered, False, True)
        frontier = updated
