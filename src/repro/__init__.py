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

from repro._version import __version__
from repro.errors import (
    ConfigurationError,
    GraphFormatError,
    GraphValidationError,
    MemoryLimitExceeded,
    ReproError,
)
from repro.graph import (
    CSRGraph,
    from_edges,
    from_edge_list,
    read_dimacs,
    read_edge_list,
    write_dimacs,
    write_edge_list,
)
from repro.generators import (
    gnm_random_graph,
    mesh,
    path_graph,
    powerlaw_cluster_like,
    rmat,
    road_network,
    roads,
    torus,
)
from repro.core import (
    ClusterConfig,
    Clustering,
    DiameterEstimate,
    approximate_diameter,
    cluster,
    cluster2,
    quotient_graph,
)
from repro.baselines import (
    bellman_ford_sssp,
    delta_stepping_sssp,
    diameter_lower_bound,
    dijkstra_sssp,
    sssp_diameter_approx,
)
from repro.exact import exact_diameter
from repro.mr import Counters, MREngine, MRSpec
from repro.runtime import GraphStore, RunResult, get_graph
from repro.runtime import run as run_algorithm

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "GraphFormatError",
    "GraphValidationError",
    "MemoryLimitExceeded",
    "ConfigurationError",
    # graphs
    "CSRGraph",
    "from_edges",
    "from_edge_list",
    "read_dimacs",
    "write_dimacs",
    "read_edge_list",
    "write_edge_list",
    # generators
    "mesh",
    "torus",
    "rmat",
    "road_network",
    "roads",
    "gnm_random_graph",
    "path_graph",
    "powerlaw_cluster_like",
    # core
    "ClusterConfig",
    "Clustering",
    "DiameterEstimate",
    "cluster",
    "cluster2",
    "quotient_graph",
    "approximate_diameter",
    # baselines
    "dijkstra_sssp",
    "bellman_ford_sssp",
    "delta_stepping_sssp",
    "sssp_diameter_approx",
    "diameter_lower_bound",
    "exact_diameter",
    # MR model
    "MRSpec",
    "MREngine",
    "Counters",
    # runtime layer
    "GraphStore",
    "get_graph",
    "run_algorithm",
    "RunResult",
]
