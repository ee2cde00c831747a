"""Exact reference computations (small-graph ground truth for tests/benches)."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "exact_diameter": "repro.exact.apsp",
    "apsp_matrix": "repro.exact.apsp",
    "eccentricities": "repro.exact.eccentricity",
    "eccentricity": "repro.exact.eccentricity",
    "radius": "repro.exact.eccentricity",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
