"""repro — reproduction of "A Practical Parallel Algorithm for Diameter
Approximation of Massive Weighted Graphs" (Ceccarello, Pietracaprina,
Pucci, Upfal — IPPS 2016).

Public API
----------
Graphs
    :class:`~repro.graph.CSRGraph`, :func:`~repro.graph.from_edges`,
    :func:`~repro.graph.read_dimacs`, generators in :mod:`repro.generators`.
Core algorithm (the paper's contribution)
    :func:`~repro.core.cluster` (Algorithm 1),
    :func:`~repro.core.cluster2` (Algorithm 2),
    :func:`~repro.core.quotient_graph`,
    :func:`~repro.core.approximate_diameter` (CL-DIAM),
    :class:`~repro.core.ClusterConfig`.
Baselines
    :func:`~repro.baselines.delta_stepping_sssp`,
    :func:`~repro.baselines.sssp_diameter_approx`,
    :func:`~repro.baselines.diameter_lower_bound`,
    :func:`~repro.baselines.dijkstra_sssp`.
MR model
    :class:`~repro.mr.MRSpec`, :class:`~repro.mr.MREngine`,
    :class:`~repro.mr.Counters`.
Runtime layer
    :class:`~repro.runtime.GraphStore` (memory-mapped graph cache),
    :func:`~repro.runtime.get_graph`, and :func:`repro.run_algorithm`
    (the unified dispatcher over the algorithm registry — see
    ``docs/architecture.md``).

Quickstart
----------
>>> from repro import mesh, approximate_diameter, diameter_lower_bound
>>> g = mesh(64, seed=1)                  # 64x64 grid, uniform weights
>>> est = approximate_diameter(g, tau=32)
>>> lb = diameter_lower_bound(g, seed=1)
>>> est.value >= lb                       # conservative estimate
True
"""

from repro._lazy import lazy_exports
from repro._version import __version__

_EXPORTS = {
    # errors
    "ReproError": "repro.errors",
    "GraphFormatError": "repro.errors",
    "GraphValidationError": "repro.errors",
    "MemoryLimitExceeded": "repro.errors",
    "ConfigurationError": "repro.errors",
    # graphs
    "CSRGraph": "repro.graph",
    "from_edges": "repro.graph",
    "from_edge_list": "repro.graph",
    "read_dimacs": "repro.graph",
    "write_dimacs": "repro.graph",
    "read_edge_list": "repro.graph",
    "write_edge_list": "repro.graph",
    # generators
    "mesh": "repro.generators",
    "torus": "repro.generators",
    "rmat": "repro.generators",
    "road_network": "repro.generators",
    "roads": "repro.generators",
    "gnm_random_graph": "repro.generators",
    "path_graph": "repro.generators",
    "powerlaw_cluster_like": "repro.generators",
    # core
    "ClusterConfig": "repro.core",
    "Clustering": "repro.core",
    "DiameterEstimate": "repro.core",
    "cluster": "repro.core",
    "cluster2": "repro.core",
    "quotient_graph": "repro.core",
    "approximate_diameter": "repro.core",
    # baselines
    "dijkstra_sssp": "repro.baselines",
    "bellman_ford_sssp": "repro.baselines",
    "delta_stepping_sssp": "repro.baselines",
    "sssp_diameter_approx": "repro.baselines",
    "diameter_lower_bound": "repro.baselines",
    "exact_diameter": "repro.exact",
    # MR model
    "MRSpec": "repro.mr",
    "MREngine": "repro.mr",
    "Counters": "repro.mr",
    # runtime layer
    "GraphStore": "repro.runtime",
    "get_graph": "repro.runtime",
    "run_algorithm": "repro.runtime:run",
    "RunResult": "repro.runtime",
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
