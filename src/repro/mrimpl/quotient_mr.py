"""The quotient-graph construction as an MR program.

§4.1 argues the quotient construction and its diameter fit the model's
budgets: crossing edges are keyed by their (ordered) cluster pair, one
reduce keeps the minimum reweighted copy, and the surviving edges — at
most one per cluster pair, `O(τ² polylog)` total — fit a single reducer's
local memory for the final diameter computation.  This module expresses
exactly that pipeline on the engine, one
:func:`~repro.mr.primitives.mr_reduce_by_key` round, and is checked
against the vectorized :func:`~repro.core.quotient.quotient_graph` in
tests.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.cluster import Clustering
from repro.graph.builder import from_edges, min_by_key, pair_keys
from repro.graph.csr import CSRGraph
from repro.mr.batch import group_min
from repro.mr.engine import MREngine
from repro.mr.primitives import mr_reduce_by_key

__all__ = ["mr_quotient_graph"]


def _batch_quotient(
    engine: MREngine, graph: CSRGraph, ids: np.ndarray, d: np.ndarray,
    num_centers: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized map side + one batch reduce round.

    Cluster pairs are packed into a single int64 key
    (``min·num_centers + max``, :func:`~repro.graph.builder.pair_keys`),
    so the shuffle groups crossing edges by unordered cluster pair
    exactly as the tuple keys do.  The map side combines before the
    shuffle, to one pair per cluster pair
    (:func:`~repro.graph.builder.min_by_key`: one sort, a ``min`` per
    run): a popular cluster pair can own far more crossing edges than
    any node has neighbours, so without combining its reducer group
    could exceed an ``M_L`` sized for the growing rounds.  ``min`` is
    order-free, so neither the sort nor the reducer needs a tie-break.
    """
    srcs, tgts, w = graph.edge_arrays()
    cu, cv = ids[srcs], ids[tgts]
    crossing = cu != cv
    keys = pair_keys(cu[crossing], cv[crossing], num_centers)
    values = w[crossing] + d[srcs[crossing]] + d[tgts[crossing]]
    keys, values = min_by_key(keys, values)
    out_keys, out_values = engine.round_batch(keys, values, group_min)
    return (
        out_keys // num_centers,
        out_keys % num_centers,
        out_values[:, 0],
    )


def mr_quotient_graph(
    engine: MREngine, graph: CSRGraph, clustering: Clustering
) -> Tuple[CSRGraph, np.ndarray]:
    """Build the weighted quotient graph with one reduce-by-key round.

    Map side (driver): every original edge ``(u, v)`` with
    ``cluster(u) ≠ cluster(v)`` becomes a pair keyed by the ordered
    cluster-id pair carrying the reweighted value ``w + d_u + d_v``.
    Reduce side: ``min`` per key.  Returns the same ``(G_C, centers)`` as
    the vectorized constructor.

    On a batch-capable engine the whole pipeline is array-valued: keys
    are packed cluster pairs and the reduce is one
    :meth:`~repro.mr.engine.MREngine.round_batch`; per-key engines run
    the legacy tuple-keyed :func:`~repro.mr.primitives.mr_reduce_by_key`.
    """
    ids = clustering.cluster_ids()
    d = clustering.dist_to_center
    centers = clustering.centers

    if engine.supports_batch:
        qu, qv, qw = _batch_quotient(engine, graph, ids, d, len(centers))
        return from_edges(qu, qv, qw, len(centers)), centers

    pairs = []
    for u, v, w in graph.iter_edges():
        cu, cv = int(ids[u]), int(ids[v])
        if cu == cv:
            continue
        key = (cu, cv) if cu < cv else (cv, cu)
        pairs.append((key, float(w + d[u] + d[v])))

    reduced = mr_reduce_by_key(engine, pairs, min, combine=True)

    if not reduced:
        return (
            from_edges(
                np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0),
                len(centers),
            ),
            centers,
        )
    qu = np.array([k[0] for k, _ in reduced], dtype=np.int64)
    qv = np.array([k[1] for k, _ in reduced], dtype=np.int64)
    qw = np.array([w for _, w in reduced], dtype=np.float64)
    return from_edges(qu, qv, qw, len(centers)), centers
