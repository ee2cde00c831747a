"""The quotient-graph construction as an MR program.

§4.1 argues the quotient construction and its diameter fit the model's
budgets: crossing edges are keyed by their (ordered) cluster pair, one
reduce keeps the minimum reweighted copy, and the surviving edges — at
most one per cluster pair, `O(τ² polylog)` total — fit a single reducer's
local memory for the final diameter computation.  This module expresses
exactly that pipeline on the engine, one
:meth:`~repro.mr.engine.MREngine.round_batch` reduce-by-key round, and
is checked against the vectorized
:func:`~repro.core.quotient.quotient_graph` in tests.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.cluster import Clustering
from repro.core.quotient import crossing_edges
from repro.graph.builder import from_pair_keys, min_by_key
from repro.graph.csr import CSRGraph
from repro.mr.batch import group_min
from repro.mr.engine import MREngine

__all__ = ["mr_quotient_graph"]


def _batch_quotient(
    engine: MREngine, graph: CSRGraph, ids: np.ndarray, d: np.ndarray,
    num_centers: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Map side (:func:`~repro.core.quotient.crossing_edges`) + one
    batch reduce round; returns the distinct packed pairs and their
    minimum values.

    Cluster pairs are packed into a single int64 key
    (``min·num_centers + max``, :func:`~repro.graph.builder.pair_keys`),
    so the shuffle groups crossing edges by unordered cluster pair.
    The map side combines before the shuffle, to one pair per cluster
    pair (:func:`~repro.graph.builder.min_by_key`: one sort, a ``min``
    per run): a popular cluster pair can own far more crossing edges than
    any node has neighbours, so without combining its reducer group
    could exceed an ``M_L`` sized for the growing rounds.  ``min`` is
    order-free, so neither the sort nor the reducer needs a tie-break.
    """
    keys, values = crossing_edges(graph, ids, d, num_centers)
    keys, values = min_by_key(keys, values)
    out_keys, out_values = engine.round_batch(keys, values, group_min)
    return out_keys, out_values[:, 0]


def mr_quotient_graph(
    engine: MREngine, graph: CSRGraph, clustering: Clustering
) -> Tuple[CSRGraph, np.ndarray]:
    """Build the weighted quotient graph with one reduce-by-key round.

    Map side (driver): every original edge ``(u, v)`` with
    ``cluster(u) ≠ cluster(v)`` becomes a pair keyed by the packed
    cluster-id pair carrying the reweighted value ``w + d_u + d_v``.
    Reduce side: ``min`` per key, one
    :meth:`~repro.mr.engine.MREngine.round_batch` on any engine.
    Returns the same ``(G_C, centers)`` as the vectorized constructor.
    """
    centers = clustering.centers
    keys, qw = _batch_quotient(
        engine, graph, clustering.cluster_ids(), clustering.dist_to_center,
        len(centers),
    )
    return from_pair_keys(keys, qw, len(centers)), centers
