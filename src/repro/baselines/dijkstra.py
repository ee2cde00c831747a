"""Sequential Dijkstra SSSP — the correctness oracle.

Two implementations are provided: a pure-Python binary-heap Dijkstra
(:func:`dijkstra_sssp_reference`) whose simplicity makes it auditable, and
a scipy-backed one (:func:`dijkstra_sssp`) used wherever speed matters.
Tests cross-check them against each other and against Δ-stepping /
Bellman–Ford.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["dijkstra_sssp", "dijkstra_sssp_reference"]


def dijkstra_sssp(graph: CSRGraph, source: int) -> np.ndarray:
    """Single-source shortest-path distances from ``source`` (scipy).

    Unreachable nodes get ``inf``.
    """
    from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

    return _csgraph_dijkstra(graph.to_scipy(), directed=False, indices=source)


def dijkstra_sssp_reference(graph: CSRGraph, source: int) -> np.ndarray:
    """Textbook binary-heap Dijkstra (lazy deletion), for cross-checking."""
    n = graph.num_nodes
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    heap = [(0.0, source)]
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue  # stale entry
        lo, hi = indptr[u], indptr[u + 1]
        for v, w in zip(indices[lo:hi], weights[lo:hi]):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, int(v)))
    return dist
