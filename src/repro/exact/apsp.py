"""Exact all-pairs shortest paths and exact weighted diameter.

Used as ground truth: the paper's approximation ratios are measured
against a lower bound computed by repeated SSSP (see
:mod:`repro.baselines.double_sweep`); for the graph sizes this
reproduction runs, the *exact* diameter is also affordable, which lets the
test-suite check conservativeness (``Φ_approx ≥ Φ``) and the benches
report true ratios instead of ratio bounds.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["apsp_matrix", "exact_diameter"]


def apsp_matrix(graph: CSRGraph, indices=None) -> np.ndarray:
    """Distance matrix via scipy's multi-source Dijkstra.

    ``indices`` restricts the sources (rows); ``None`` computes all pairs.
    Unreachable entries are ``inf``.
    """
    from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

    return _csgraph_dijkstra(graph.to_scipy(), directed=False, indices=indices)


def exact_diameter(graph: CSRGraph, *, chunk: int = 512) -> float:
    """Exact weighted diameter (max finite distance between node pairs).

    For disconnected graphs this is the paper's definition: the largest
    distance within a connected component (``inf`` entries are ignored).
    Sources are processed in chunks so the distance matrix never exceeds
    ``chunk × n`` floats.
    """
    from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

    n = graph.num_nodes
    if n <= 1:
        return 0.0
    best = 0.0
    sp = graph.to_scipy()
    for lo in range(0, n, chunk):
        idx = np.arange(lo, min(lo + chunk, n))
        dist = _csgraph_dijkstra(sp, directed=False, indices=idx)
        finite = dist[np.isfinite(dist)]
        if len(finite):
            best = max(best, float(finite.max()))
    return best
