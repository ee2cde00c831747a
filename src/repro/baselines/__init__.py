"""Baseline algorithms the paper compares against (or uses as references).

* :mod:`~repro.baselines.dijkstra` — sequential SSSP (heap-based and a
  scipy wrapper), the correctness oracle for every other SSSP.
* :mod:`~repro.baselines.bellman_ford` — round-synchronous Bellman–Ford,
  the "Δ = ∞" extreme of the Δ-stepping tradeoff.
* :mod:`~repro.baselines.delta_stepping` — the Meyer–Sanders Δ-stepping
  algorithm with bucket phases and MR round/work accounting: the paper's
  only practical linear-space competitor.
* :mod:`~repro.baselines.sssp_diameter` — the SSSP-based diameter
  2-approximation (twice the heaviest shortest-path weight).
* :mod:`~repro.baselines.double_sweep` — iterated farthest-node SSSP
  producing the diameter *lower bound* the paper's approximation ratios
  are measured against (caption of Table 2).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "dijkstra_with_parents": "repro.baselines.paths",
    "extract_path": "repro.baselines.paths",
    "approximate_diametral_path": "repro.baselines.paths",
    "dijkstra_sssp": "repro.baselines.dijkstra",
    "dijkstra_sssp_reference": "repro.baselines.dijkstra",
    "dial_sssp": "repro.baselines.dial",
    "bellman_ford_sssp": "repro.baselines.bellman_ford",
    "delta_stepping_sssp": "repro.baselines.delta_stepping",
    "DeltaSteppingResult": "repro.baselines.delta_stepping",
    "sssp_diameter_approx": "repro.baselines.sssp_diameter",
    "SSSPDiameterResult": "repro.baselines.sssp_diameter",
    "diameter_lower_bound": "repro.baselines.double_sweep",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
