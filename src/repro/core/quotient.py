"""The weighted quotient graph of a clustering (§4, after Lemma 2).

Given a clustering ``C`` with per-node center ``c_u`` and distance bound
``d_u``, the quotient graph ``G_C`` has one node per cluster and, for every
original edge ``(u, v)`` with ``c_u ≠ c_v``, an edge between the two
clusters of weight ``w(u, v) + d_u + d_v`` (parallel edges keep the
minimum).  By construction every quotient distance upper-bounds the
corresponding original distance between centers, which makes
``Φ(G_C) + 2·R`` a conservative diameter estimate.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.cluster import Clustering
from repro.graph.builder import (
    check_packable,
    from_pair_keys,
    min_by_key,
    pair_keys,
)
from repro.graph.csr import CSRGraph
from repro.mr import native as _native

__all__ = ["quotient_pairs", "quotient_graph"]


def quotient_pairs(
    graph: CSRGraph, ids: np.ndarray, dist: np.ndarray, num_clusters: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The quotient map side, combined: one entry per cluster pair.

    Every edge ``(u, v)`` with ``u < v`` and ``ids[u] ≠ ids[v]`` maps to
    its cluster pair packed as ``min·num_clusters + max``
    (:func:`~repro.graph.builder.pair_keys`) with the reweighted value
    ``(w + dist[u]) + dist[v]``; the pairs come back distinct and
    ascending, each with its minimum value
    (:func:`~repro.graph.builder.min_by_key`).  Both quotient
    constructions (this module's and :mod:`repro.mrimpl.quotient_mr`'s)
    start here.  The native tier is one C kernel (a CSR scan, a counting
    sort by the smaller cluster and a dense min per bucket); the NumPy
    tier masks every arc, sorts, and is its oracle.
    """
    num_clusters = check_packable(num_clusters)
    if _native.use_native():
        return _native.quotient_pairs(
            graph.indptr, graph.indices, graph.weights, ids, dist,
            num_clusters,
        )
    src = graph.arc_sources()
    dst = graph.indices
    one_dir = src < dst
    u = src[one_dir]
    v = dst[one_dir]
    cu = ids[u]
    cv = ids[v]
    cross = cu != cv
    keys = pair_keys(cu[cross], cv[cross], num_clusters)
    values = graph.weights[one_dir][cross] + dist[u[cross]] + dist[v[cross]]
    return min_by_key(keys, values)


def quotient_graph(
    graph: CSRGraph, clustering: Clustering
) -> Tuple[CSRGraph, np.ndarray]:
    """Build the weighted quotient graph of ``clustering`` over ``graph``.

    Returns
    -------
    (g_c, centers):
        ``g_c`` — the quotient :class:`~repro.graph.csr.CSRGraph`, whose
        node ``i`` represents the cluster centered at ``centers[i]``;
        ``centers`` — the sorted array of original center ids.

    Notes
    -----
    :func:`quotient_pairs` finds the crossing edges and implements the
    "retain only the minimum weight edge between two clusters" rule (a
    single cluster gives an edgeless quotient).
    """
    centers = clustering.centers
    keys, values = quotient_pairs(
        graph, clustering.cluster_ids(), clustering.dist_to_center,
        len(centers),
    )
    return from_pair_keys(keys, values, len(centers)), centers
