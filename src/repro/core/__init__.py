"""The paper's core contribution: weighted graph decomposition and CL-DIAM.

Layout
------
* :mod:`~repro.core.config` — tunables (τ, initial-Δ strategy, caps).
* :mod:`~repro.core.state` — per-node ``(c_u, d_u)`` state arrays.
* :mod:`~repro.core.growing` — the vectorized Δ-growing step.
* :mod:`~repro.core.contract` — Contract / Contract2 as freeze operations.
* :mod:`~repro.core.cluster` — Algorithm 1, ``CLUSTER(G, τ)``.
* :mod:`~repro.core.cluster2` — Algorithm 2, ``CLUSTER2(G, τ)``.
* :mod:`~repro.core.quotient` — the weighted quotient graph.
* :mod:`~repro.core.diameter` — CL-DIAM: ``Φ_approx = Φ(G_C) + 2·R``.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ClusterConfig": "repro.core.config",
    "cluster": "repro.core.cluster",
    "cluster2": "repro.core.cluster2",
    "Clustering": "repro.core.cluster",
    "quotient_graph": "repro.core.quotient",
    "approximate_diameter": "repro.core.diameter",
    "diameter_from_clustering": "repro.core.diameter",
    "DiameterEstimate": "repro.core.diameter",
    "eccentricity_bounds": "repro.core.eccentricity",
    "EccentricityBounds": "repro.core.eccentricity",
    "tune_tau": "repro.core.tuning",
    "TauTuningResult": "repro.core.tuning",
    "per_component_diameters": "repro.core.components",
    "ComponentDiameter": "repro.core.components",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
