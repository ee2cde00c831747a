"""MR(M_T, M_L) implementations of the paper's algorithms.

The production code path (:mod:`repro.core`) executes Δ-growing steps as
vectorized NumPy kernels that *account* MR rounds.  This package expresses
the same algorithms as actual reducer programs on the
:class:`~repro.mr.engine.MREngine`, with one engine round per growing
step and the model's ``M_L``/``M_T`` budgets enforced.

Every driver runs batch rounds over the growing state
:func:`~repro.mrimpl.growing_mr.make_growing_state` builds for the
engine: int64-keyed candidate arrays merged by the scatter-min kernel
under the engine's batch cost model, which makes the MR path fast
enough for ≥100k-node instances while staying bit-identical to
:mod:`repro.core` seed for seed.  The paper-literal per-key pair layout
of the same programs — the graph distributed as key-value pairs, one
Python reducer call per node — is kept in the test suite as the oracle
the parity suites compare against.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ArrayGrowingState": "repro.mrimpl.growing_mr",
    "make_growing_state": "repro.mrimpl.growing_mr",
    "default_engine": "repro.mrimpl.growing_mr",
    "owned_engine": "repro.mrimpl.growing_mr",
    "mr_cluster": "repro.mrimpl.cluster_mr",
    "mr_cluster2": "repro.mrimpl.cluster2_mr",
    "mr_approximate_diameter": "repro.mrimpl.diameter_mr",
    "mr_quotient_graph": "repro.mrimpl.quotient_mr",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
