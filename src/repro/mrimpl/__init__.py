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

from repro.mrimpl.growing_mr import (
    ArrayGrowingState,
    default_engine,
    make_growing_state,
    owned_engine,
)
from repro.mrimpl.cluster_mr import mr_cluster
from repro.mrimpl.cluster2_mr import mr_cluster2
from repro.mrimpl.diameter_mr import mr_approximate_diameter
from repro.mrimpl.quotient_mr import mr_quotient_graph

__all__ = [
    "ArrayGrowingState",
    "make_growing_state",
    "default_engine",
    "owned_engine",
    "mr_cluster",
    "mr_cluster2",
    "mr_approximate_diameter",
    "mr_quotient_graph",
]
