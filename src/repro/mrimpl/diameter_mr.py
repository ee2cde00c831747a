"""CL-DIAM on the MR engine.

Runs the decomposition with :func:`~repro.mrimpl.cluster_mr.mr_cluster`
(every growing step an engine round under M_L enforcement), builds the
quotient graph with the engine's reduce-by-key round
(:func:`~repro.mrimpl.quotient_mr.mr_quotient_graph`), and finishes with
the quotient-graph diameter exactly as the paper prescribes for the
final step: the quotient is small enough to fit one reducer's local
memory, so it is processed "in one round" by a single sequential
computation (§4.1).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.config import ClusterConfig
from repro.core.diameter import DiameterEstimate, quotient_diameter
from repro.graph.csr import CSRGraph
from repro.mr.engine import MREngine
from repro.mrimpl.cluster_mr import mr_cluster
from repro.mrimpl.growing_mr import owned_engine
from repro.mrimpl.quotient_mr import mr_quotient_graph

__all__ = ["mr_approximate_diameter"]


def mr_approximate_diameter(
    graph: CSRGraph,
    tau: Optional[int] = None,
    config: Optional[ClusterConfig] = None,
    *,
    engine: Optional[MREngine] = None,
    num_workers: Optional[int] = None,
    checkpoint=None,
    resume: Optional[Dict[str, Any]] = None,
) -> DiameterEstimate:
    """Estimate the weighted diameter with the MR-engine code path.

    Semantically identical to
    :func:`repro.core.diameter.approximate_diameter` (same seed → same
    estimate); integration tests assert the equivalence.  The engine —
    built from ``config.executor`` when not supplied — runs the whole
    pipeline, so the estimate, round count, and update counts are
    identical on every backend.  An engine constructed here has its
    executor closed before returning (the ``sharded`` backend holds
    shard maps and may own a temp store).  ``num_workers`` sets the
    constructed engine's simulated machine count (the shard count for
    ``sharded``; ``None`` means the backend default); it is ignored when
    an ``engine`` is passed.  ``checkpoint``/``resume`` are forwarded
    to the decomposition driver (the only long-running part of the
    pipeline) as in :func:`~repro.mrimpl.cluster_mr.mr_cluster`.
    """
    config = config or ClusterConfig()
    if tau is not None:
        config = config.with_(tau=tau)

    with owned_engine(graph, config, engine, num_workers=num_workers) as eng:
        if config.use_cluster2:
            from repro.mrimpl.cluster2_mr import mr_cluster2 as decompose
        else:
            decompose = mr_cluster
        clustering = decompose(
            graph,
            config=config,
            engine=eng,
            checkpoint=checkpoint,
            resume=resume,
        )
        g_c, _centers = mr_quotient_graph(eng, graph, clustering)

    value, exact = quotient_diameter(
        g_c, mode=config.quotient_mode, exact_limit=config.quotient_exact_limit
    )

    return DiameterEstimate(
        value=value + 2.0 * clustering.radius,
        quotient_diameter=value,
        radius=clustering.radius,
        num_clusters=clustering.num_clusters,
        quotient_exact=exact,
        clustering=clustering,
        counters=clustering.counters,
    )
