"""Algorithm 1: ``CLUSTER(G, τ)`` — progressive weighted graph decomposition.

Clusters are grown in stages.  Each stage selects a fresh random batch of
~``γ·τ·ln n`` centers among the still-uncovered nodes, then grows all
clusters (old centers included, as contracted representatives) with
Δ-growing steps, doubling the guess Δ until at least half of the uncovered
nodes are absorbed.  When fewer than ``8·τ·ln n`` nodes remain they become
singleton clusters.

Theorem 1 (reproduced by the property tests): w.h.p. the result is an
``O(τ log² n)``-clustering of radius ``O(R_G(τ) · log n)`` computed with
``O(ℓ_{R_G(τ)} · log n)`` growing steps, with ``Δ_end = O(R_G(τ))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.config import ClusterConfig
from repro.core.contract import contract
from repro.core.growing import partial_growth
from repro.core.state import ClusterState
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.graph.ops import total_weight
from repro.mr.metrics import Counters
from repro.util import as_rng

__all__ = ["cluster", "Clustering", "StageInfo"]


@dataclass(frozen=True)
class StageInfo:
    """Diagnostics for one stage (outer-loop iteration) of CLUSTER."""

    stage: int
    uncovered_before: int
    new_centers: int
    delta_start: float
    delta_end: float
    growing_steps: int
    newly_covered: int


@dataclass
class Clustering:
    """A clustering of a weighted graph, as returned by CLUSTER / CLUSTER2.

    Attributes
    ----------
    center:
        int64[n]; ``center[u]`` is the original node id of ``u``'s cluster
        center (every node is assigned on return).
    dist_to_center:
        float64[n]; upper bound on ``dist(center[u], u)`` in the input
        graph.  Defines the radius and the quotient-graph edge weights.
    centers:
        Sorted array of distinct center ids.
    radius:
        ``max_u dist_to_center[u]`` — the clustering radius R.
    delta_end:
        Final value of the Δ guess (Lemma 1: ``O(R_G(τ))`` w.h.p.).
    tau:
        The τ the algorithm ran with.
    counters:
        Rounds / messages / updates / growing steps.
    stages:
        Per-stage diagnostics (empty for CLUSTER2, which reports
        iterations through ``counters.extra`` instead).
    singleton_count:
        Clusters created by the final sweep-up of uncovered nodes.
    """

    center: np.ndarray
    dist_to_center: np.ndarray
    centers: np.ndarray
    radius: float
    delta_end: float
    tau: int
    counters: Counters
    stages: List[StageInfo] = field(default_factory=list)
    singleton_count: int = 0

    @property
    def num_clusters(self) -> int:
        return len(self.centers)

    def cluster_ids(self) -> np.ndarray:
        """Dense 0-based cluster index per node (ordered by center id).

        Centers are node ids, so one dense id → rank map answers every
        node in O(n) (no binary search per node).
        """
        rank = np.empty(len(self.center), dtype=np.intp)
        rank[self.centers] = np.arange(len(self.centers))
        return rank[self.center]

    def cluster_sizes(self) -> np.ndarray:
        """Number of nodes per cluster, aligned with :attr:`centers`."""
        return np.bincount(self.cluster_ids(), minlength=self.num_clusters)

    def validate(self) -> None:
        """Assert the partition invariants (used heavily by tests)."""
        from repro.errors import GraphValidationError

        if np.any(self.center < 0):
            raise GraphValidationError("unassigned node in final clustering")
        if not np.all(self.center[self.centers] == self.centers):
            raise GraphValidationError("a center is not in its own cluster")
        if not np.all(np.isfinite(self.dist_to_center)):
            raise GraphValidationError("non-finite distance to center")
        if np.any(self.dist_to_center[self.centers] != 0):
            raise GraphValidationError("center with nonzero self-distance")


def distinct_centers(center: np.ndarray) -> np.ndarray:
    """``np.unique(center)`` for a complete assignment over node ids.

    Every entry is a node id in ``[0, len(center))``, so one mark and
    its ``flatnonzero`` give the sorted distinct centers in O(n).
    """
    mark = np.zeros(len(center), dtype=bool)
    mark[center] = True
    return np.flatnonzero(mark).astype(center.dtype, copy=False)


def _select_new_centers(
    uncovered: np.ndarray, probability: float, rng: np.random.Generator
) -> np.ndarray:
    """Independent center sampling; guarantees at least one selection."""
    picks = uncovered[rng.random(len(uncovered)) < probability]
    if len(picks) == 0:
        picks = np.array([uncovered[int(rng.integers(len(uncovered)))]], dtype=np.int64)
    return picks


def cluster(
    graph: CSRGraph,
    tau: Optional[int] = None,
    config: Optional[ClusterConfig] = None,
    *,
    counters: Optional[Counters] = None,
) -> Clustering:
    """Run ``CLUSTER(G, τ)`` (Algorithm 1).

    Parameters
    ----------
    graph:
        Input weighted graph.  Disconnected graphs are handled: nodes
        unreachable from every sampled center become their own clusters
        once Δ stops making progress (the paper assumes connectivity; the
        guard only affects pathological inputs).
    tau:
        Cluster-count parameter τ; overrides ``config.tau`` when given.
    config:
        Remaining tunables; defaults to :class:`ClusterConfig()`.
    counters:
        Optional external counter accumulator (CL-DIAM threads one
        instance through clustering and quotient construction).

    Returns
    -------
    Clustering
    """
    config = config or ClusterConfig()
    if tau is not None:
        config = config.with_(tau=tau)
    n = graph.num_nodes
    if n == 0:
        raise ConfigurationError("cannot cluster the empty graph")
    tau_val = config.resolve_tau(n)

    counters = counters if counters is not None else Counters()
    rng = as_rng(config.seed)
    state = ClusterState(n)

    if graph.num_edges == 0:
        # Degenerate: every node is isolated; all become singletons.
        centers = np.arange(n, dtype=np.int64)
        state.start_stage(centers)
        state.freeze_assigned()
        return Clustering(
            center=state.center.copy(),
            dist_to_center=state.dist_acc.copy(),
            centers=centers,
            radius=0.0,
            delta_end=0.0,
            tau=tau_val,
            counters=counters,
            singleton_count=n,
        )

    delta = config.resolve_initial_delta(graph.min_weight, graph.mean_weight)
    threshold = config.stage_threshold(n, tau_val)
    # Any distance in the graph is below the total edge weight; once Δ
    # exceeds it, further doubling cannot reach anything new (the
    # remaining uncovered nodes are disconnected from every center).
    delta_ceiling = max(2.0 * total_weight(graph), delta)
    gamma_tau_log = config.gamma * tau_val * np.log(max(n, 2))

    stages: List[StageInfo] = []
    stage_index = 0

    while True:
        uncovered = np.flatnonzero(~state.frozen)
        num_uncovered = len(uncovered)
        if num_uncovered == 0 or num_uncovered < threshold:
            break
        stage_index += 1
        set_phase = getattr(counters, "set_phase", None)
        if set_phase is not None:
            set_phase(f"stage-{stage_index}")
        probability = min(1.0, gamma_tau_log / num_uncovered)
        new_centers = _select_new_centers(uncovered, probability, rng)
        state.start_stage(new_centers)

        delta_start = delta
        steps_this_stage = 0
        cover_target = -(-num_uncovered // 2)  # ceil
        doublings = 0
        # New centers are themselves uncovered nodes with d = 0 ≤ Δ, so
        # they count towards the stage's half-coverage goal.
        covered_so_far = len(new_centers)
        while True:
            result = partial_growth(
                graph,
                state,
                delta,
                counters,
                cover_target=cover_target - covered_so_far,
                step_cap=config.growing_step_cap,
            )
            steps_this_stage += result.steps
            covered_so_far += result.newly_covered
            if covered_so_far >= cover_target:
                break
            if result.hit_cap:
                # §4.1 variant: accept the partial coverage for this stage.
                break
            if delta >= delta_ceiling:
                # Remaining uncovered nodes are unreachable from all
                # centers (disconnected input); accept partial coverage.
                break
            doublings += 1
            if doublings > config.max_delta_doublings:
                raise ConfigurationError(
                    "exceeded max_delta_doublings; the Δ guess diverged "
                    "(check edge weights are positive and finite)"
                )
            delta *= 2.0

        newly = contract(state, stage_index)
        stages.append(
            StageInfo(
                stage=stage_index,
                uncovered_before=num_uncovered,
                new_centers=len(new_centers),
                delta_start=delta_start,
                delta_end=delta,
                growing_steps=steps_this_stage,
                newly_covered=len(newly),
            )
        )

    # Remaining uncovered nodes become singleton clusters.
    leftover = np.flatnonzero(~state.frozen)
    if len(leftover):
        state.start_stage(leftover)
        state.freeze_assigned(stage_index + 1)

    clustering = Clustering(
        center=state.center.copy(),
        dist_to_center=state.dist_acc.copy(),
        centers=distinct_centers(state.center),
        radius=state.radius(),
        delta_end=delta,
        tau=tau_val,
        counters=counters,
        stages=stages,
        singleton_count=len(leftover),
    )
    clustering.validate()
    return clustering
