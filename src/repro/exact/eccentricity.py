"""Exact eccentricities and graph radius.

The eccentricity of a node is its maximum finite distance to any other
node; the diameter is the maximum eccentricity and the radius the minimum.
These are the quantities the SSSP-based 2-approximation manipulates
(twice any eccentricity upper-bounds the diameter; any eccentricity
lower-bounds it).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["eccentricity", "eccentricities", "radius"]


def eccentricity(graph: CSRGraph, node: int) -> float:
    """Eccentricity of ``node`` (max finite distance; 0 for isolated nodes)."""
    from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

    dist = _csgraph_dijkstra(graph.to_scipy(), directed=False, indices=node)
    finite = dist[np.isfinite(dist)]
    return float(finite.max()) if len(finite) else 0.0


def eccentricities(graph: CSRGraph, *, chunk: int = 512) -> np.ndarray:
    """Eccentricities of all nodes (chunked to bound memory)."""
    from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

    n = graph.num_nodes
    out = np.zeros(n, dtype=np.float64)
    if n <= 1:
        return out
    sp = graph.to_scipy()
    for lo in range(0, n, chunk):
        idx = np.arange(lo, min(lo + chunk, n))
        dist = _csgraph_dijkstra(sp, directed=False, indices=idx)
        dist[~np.isfinite(dist)] = 0.0
        out[idx] = dist.max(axis=1)
    return out


def radius(graph: CSRGraph) -> float:
    """Graph radius: the minimum eccentricity over nodes."""
    eccs = eccentricities(graph)
    return float(eccs.min()) if len(eccs) else 0.0
