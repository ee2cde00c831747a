"""Benchmark graph generators (Table 1's synthetic families and stand-ins).

* :func:`mesh` — the paper's ``mesh(S)``: an S×S grid, the canonical
  bounded-doubling-dimension family (b = 2) for Corollary 1.
* :func:`rmat` — the paper's ``R-MAT(S)``: power-law, small-diameter graphs
  standing in for social networks (and, at suitable scale, for the
  livejournal/twitter real datasets that cannot be downloaded offline).
* :func:`road_network` / :func:`roads` — synthetic road networks (perturbed
  near-planar grids with integer travel-time weights) replacing the DIMACS
  roads-USA/roads-CAL inputs, and the paper's ``roads(S)`` cartesian-product
  family built on top of them.
* :func:`gnm_random_graph` / :func:`powerlaw_cluster_like` — generic random
  families used by tests.
* :mod:`~repro.generators.weights` — weight assignment strategies (uniform
  (0,1], integer ranges, the bimodal {1, 1e-6} mix of the initial-Δ
  experiment).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "mesh": "repro.generators.mesh",
    "torus": "repro.generators.mesh",
    "rmat": "repro.generators.rmat",
    "road_network": "repro.generators.roads",
    "roads": "repro.generators.roads",
    "gnm_random_graph": "repro.generators.random_graphs",
    "path_graph": "repro.generators.random_graphs",
    "cycle_graph": "repro.generators.random_graphs",
    "star_graph": "repro.generators.random_graphs",
    "complete_graph": "repro.generators.random_graphs",
    "random_tree": "repro.generators.random_graphs",
    "powerlaw_cluster_like": "repro.generators.random_graphs",
    "grid3d": "repro.generators.spatial",
    "random_geometric": "repro.generators.spatial",
    "watts_strogatz": "repro.generators.spatial",
    "uniform_weights": "repro.generators.weights",
    "integer_weights": "repro.generators.weights",
    "bimodal_weights": "repro.generators.weights",
    "unit_weights": "repro.generators.weights",
    "reweighted": "repro.generators.weights",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
