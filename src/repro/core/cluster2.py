"""Algorithm 2: ``CLUSTER2(G, τ)`` — the analysis-friendly decomposition.

CLUSTER2 first runs :func:`~repro.core.cluster.cluster` to learn the radius
``R_CL(τ)``, then performs ``⌈log₂ n⌉`` iterations in which uncovered nodes
become new centers with probability ``2^i / n`` and all clusters grow with
``2·R_CL``-growing steps to fixpoint (Procedure PartialGrowth2).  After each
iteration Contract2 rescales boundary edges by ``−2·R_CL``, which caps how
far late-selected centers can reach — the property Theorem 2's
approximation bound hinges on.

Lemma 2 (reproduced by the tests): w.h.p. the result is an
``O(τ log⁴ n)``-clustering of radius ``O(R_G(τ) log² n)``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.cluster import Clustering, cluster, distinct_centers
from repro.core.config import ClusterConfig
from repro.core.contract import contract2
from repro.core.growing import partial_growth
from repro.core.state import ClusterState
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.mr.metrics import Counters
from repro.util import as_rng

__all__ = ["cluster2"]


def cluster2(
    graph: CSRGraph,
    tau: Optional[int] = None,
    config: Optional[ClusterConfig] = None,
    *,
    counters: Optional[Counters] = None,
) -> Clustering:
    """Run ``CLUSTER2(G, τ)`` (Algorithm 2).

    The returned :class:`~repro.core.cluster.Clustering` reports the final
    assignment, the accumulated (true-graph) distances to centers and the
    radius ``R_CL2``.  The embedded :class:`~repro.mr.metrics.Counters`
    include the initial CLUSTER run, matching how the paper accounts the
    algorithm's total round complexity.
    """
    config = config or ClusterConfig()
    if tau is not None:
        config = config.with_(tau=tau)
    n = graph.num_nodes
    if n == 0:
        raise ConfigurationError("cannot cluster the empty graph")
    counters = counters if counters is not None else Counters()

    # Phase 1: learn R_CL(τ) with the practical algorithm.
    base = cluster(graph, config=config, counters=counters)
    r_cl = base.radius
    if r_cl <= 0.0:
        # All nodes were singletons (τ ≥ n regime or edgeless graph); the
        # base clustering is already a legal output and growth with Δ = 0
        # could not move, so return it directly.
        counters.extra["cluster2_iterations"] = 0
        return base

    delta = 2.0 * r_cl
    rng = as_rng(None if config.seed is None else config.seed + 1)
    state = ClusterState(n)
    num_iterations = max(1, math.ceil(math.log2(max(n, 2))))

    for i in range(1, num_iterations + 1):
        uncovered = np.flatnonzero(~state.frozen)
        if len(uncovered) == 0:
            break
        probability = min(1.0, (2.0**i) / n)
        picks = uncovered[rng.random(len(uncovered)) < probability]
        if i == num_iterations:
            # The last iteration selects with probability 1 by construction
            # (2^⌈log₂ n⌉ ≥ n); enforce it exactly so every node is covered
            # even when floating-point rounding nudges the probability.
            picks = uncovered
        if len(picks) == 0 and len(uncovered) > 0:
            # No center sampled this iteration: the pseudocode proceeds
            # with only old clusters growing, which cannot cover new nodes
            # beyond their rescaled reach; that is legal, so continue.
            pass
        state.start_stage(picks)
        partial_growth(
            graph,
            state,
            delta,
            counters,
            step_cap=config.growing_step_cap,
            iteration=i,
            rescale=delta,
        )
        contract2(state, i)

    # Safety net for disconnected graphs: any node never reached becomes a
    # singleton (cannot happen for connected inputs because the last
    # iteration selects every uncovered node as a center).
    leftover = np.flatnonzero(~state.frozen)
    if len(leftover):
        state.start_stage(leftover)
        state.freeze_assigned(num_iterations + 1)

    counters.extra["cluster2_iterations"] = num_iterations
    counters.extra["cluster2_base_radius"] = int(round(r_cl)) if r_cl >= 1 else 0

    clustering = Clustering(
        center=state.center.copy(),
        dist_to_center=state.dist_acc.copy(),
        centers=distinct_centers(state.center),
        radius=state.radius(),
        delta_end=delta,
        tau=base.tau,
        counters=counters,
        stages=base.stages,
        singleton_count=len(leftover),
    )
    clustering.validate()
    return clustering
