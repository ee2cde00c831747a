"""CL-DIAM: diameter approximation through the clustered quotient graph.

The estimator (§4) runs the decomposition, builds the weighted quotient
graph ``G_C``, and returns::

    Φ_approx(G) = Φ(G_C) + 2 · R

where ``R`` is the clustering radius.  The estimate is **conservative**
(``Φ_approx ≥ Φ(G)``): any original shortest path between two nodes maps
to a quotient walk whose weight can only grow, and the ``2R`` term covers
the two endpoints' distance to their centers.  Theorem 2 bounds the
overshoot by ``O(log³ n)`` w.h.p. when CLUSTER2 is used; the experiments
(and this reproduction) observe ratios below 1.4 with plain CLUSTER.

Following §5, the default configuration is the paper's practical variant
**CL-DIAM**: decomposition via ``CLUSTER`` (not ``CLUSTER2``) and initial
Δ equal to the average edge weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.cluster import Clustering, cluster
from repro.core.config import ClusterConfig
from repro.core.quotient import quotient_graph
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.mr import native
from repro.mr.metrics import Counters

__all__ = [
    "approximate_diameter",
    "diameter_from_clustering",
    "DiameterEstimate",
    "quotient_diameter",
]


@dataclass
class DiameterEstimate:
    """Result of a CL-DIAM run.

    Attributes
    ----------
    value:
        The estimate ``Φ(G_C) + 2·R`` (an upper bound on the diameter).
    quotient_diameter:
        Φ(G_C), the (possibly approximated, still conservative) quotient
        diameter.
    radius:
        Clustering radius R.
    num_clusters:
        Nodes of the quotient graph.
    quotient_exact:
        Whether Φ(G_C) was computed exactly or by the 2·ecc upper bound.
    clustering:
        The full decomposition (centers, per-node assignments, stages).
    counters:
        Rounds / messages / updates across decomposition + quotient step.
    """

    value: float
    quotient_diameter: float
    radius: float
    num_clusters: int
    quotient_exact: bool
    clustering: Clustering
    counters: Counters


def quotient_diameter(
    g_c: CSRGraph, *, mode: str = "auto", exact_limit: int = 3000
) -> tuple:
    """Diameter of the quotient graph, exactly or conservatively.

    Returns ``(value, exact)``.  ``"exact"`` computes all-pairs max finite
    distance; ``"sweep"`` returns ``2 · ecc(s_C)`` maximised over the
    quotient's components ``C``, each swept from its highest-degree node
    ``s_C`` (lowest index on ties) — still an upper bound on every
    component's diameter, so Φ_approx stays conservative; ``"auto"``
    switches on ``exact_limit``.  The paper computes this step inside one
    reducer's memory in O(1) rounds; either variant respects that regime.

    The native tier (:func:`repro.mr.native.quotient_ecc`) runs the
    Dijkstras; the py tier calls scipy's, imported only here.  Both give
    bit-identical values.
    """
    if g_c.num_nodes <= 1 or g_c.num_edges == 0:
        return 0.0, True
    csr = (g_c.indptr, g_c.indices, g_c.weights)
    if mode == "exact" or (mode == "auto" and g_c.num_nodes <= exact_limit):
        if native.use_native():
            all_nodes = np.arange(g_c.num_nodes)
            return native.quotient_ecc(*csr, all_nodes, skip_reached=False), True
        from repro.exact.apsp import exact_diameter

        return exact_diameter(g_c), True
    if mode not in ("sweep", "auto"):
        raise ConfigurationError(f"unknown quotient mode {mode!r}")
    # Degree desc, index asc: the first node of each component in this
    # order is its np.argmax start (a cheap, central starting point;
    # 2·ecc is conservative by the triangle inequality).
    order = np.argsort(-g_c.degrees, kind="stable")
    if native.use_native():
        return 2.0 * native.quotient_ecc(*csr, order, skip_reached=True), False
    from scipy.sparse.csgraph import connected_components, dijkstra

    sp = g_c.to_scipy()
    _, labels = connected_components(sp, directed=False)
    _, first = np.unique(labels[order], return_index=True)
    # Components are disjoint, so each node's nearest start is its own
    # component's: one multi-source run gives every component's ecc.
    dist = dijkstra(sp, directed=False, indices=order[first], min_only=True)
    return 2.0 * float(dist[np.isfinite(dist)].max()), False


def diameter_from_clustering(
    graph: CSRGraph,
    clustering: Clustering,
    *,
    quotient_mode: str = "auto",
    quotient_exact_limit: int = 3000,
) -> DiameterEstimate:
    """Estimate the diameter from a *precomputed* decomposition.

    Decomposition dominates the cost at scale; callers that persist a
    clustering (:func:`repro.graph.serialize.save_clustering`) can
    re-derive estimates — e.g. with a different quotient mode — without
    re-running CLUSTER.  The estimate remains conservative as long as
    ``clustering`` was computed on this same graph.
    """
    counters = Counters()
    g_c, _centers = quotient_graph(graph, clustering)
    value, exact = quotient_diameter(
        g_c, mode=quotient_mode, exact_limit=quotient_exact_limit
    )
    counters.record_round(messages=g_c.num_arcs, updates=0)
    return DiameterEstimate(
        value=value + 2.0 * clustering.radius,
        quotient_diameter=value,
        radius=clustering.radius,
        num_clusters=clustering.num_clusters,
        quotient_exact=exact,
        clustering=clustering,
        counters=counters,
    )


def approximate_diameter(
    graph: CSRGraph,
    tau: Optional[int] = None,
    config: Optional[ClusterConfig] = None,
) -> DiameterEstimate:
    """Estimate the weighted diameter of ``graph`` with CL-DIAM.

    Parameters
    ----------
    graph:
        Input weighted graph.  For disconnected inputs the estimate refers
        to the largest finite quotient distance, matching the paper's
        per-component diameter definition.
    tau:
        Cluster-count parameter; when omitted, τ is derived from
        ``config.target_quotient_nodes`` (the paper's "quotient ≤ 100 000
        nodes" policy).
    config:
        Full configuration; ``config.use_cluster2`` switches the
        decomposition to the theoretically-analysed Algorithm 2.

    Returns
    -------
    DiameterEstimate

    Examples
    --------
    >>> from repro.generators import mesh
    >>> g = mesh(32, seed=7)
    >>> est = approximate_diameter(g, tau=16)
    >>> est.value >= 0
    True
    """
    config = config or ClusterConfig()
    if tau is not None:
        config = config.with_(tau=tau)
    counters = Counters()

    if config.use_cluster2:
        from repro.core.cluster2 import cluster2 as decompose
    else:
        decompose = cluster
    clustering = decompose(graph, config=config, counters=counters)

    g_c, _centers = quotient_graph(graph, clustering)
    value, exact = quotient_diameter(
        g_c, mode=config.quotient_mode, exact_limit=config.quotient_exact_limit
    )
    # The final quotient-diameter computation runs inside a single
    # reducer's local memory: one more round (§4.1).
    counters.record_round(messages=g_c.num_arcs, updates=0)

    return DiameterEstimate(
        value=value + 2.0 * clustering.radius,
        quotient_diameter=value,
        radius=clustering.radius,
        num_clusters=clustering.num_clusters,
        quotient_exact=exact,
        clustering=clustering,
        counters=counters,
    )
