"""MR(M_T, M_L) implementations of the paper's algorithms.

The production code path (:mod:`repro.core`) executes Δ-growing steps as
vectorized NumPy kernels that *account* MR rounds.  This package expresses
the same algorithms as actual reducer programs on the
:class:`~repro.mr.engine.MREngine`, with one engine round per growing
step and the model's ``M_L``/``M_T`` budgets enforced.

Two interchangeable data layouts implement every driver (selected by the
engine's executor, see :func:`~repro.mrimpl.growing_mr.make_growing_state`):

* the **per-key pair layout** — the graph distributed as key-value
  pairs, deliberately simple and slow; its purpose is cross-validation
  and demonstrating that every step fits the memory budgets;
* the **batch array layout** — int64-keyed candidate arrays merged by
  the scatter-min kernel under the engine's batch cost model, which
  makes the MR path fast enough for ≥100k-node instances while remaining
  bit-identical to the pair layout (and to :mod:`repro.core`) seed for
  seed.
"""

from repro.mrimpl.growing_mr import (
    ArrayGrowingState,
    PairGrowingState,
    default_engine,
    extract_states,
    graph_to_pairs,
    make_growing_state,
    mr_growing_step,
    owned_engine,
)
from repro.mrimpl.cluster_mr import mr_cluster
from repro.mrimpl.cluster2_mr import mr_cluster2
from repro.mrimpl.diameter_mr import mr_approximate_diameter
from repro.mrimpl.quotient_mr import mr_quotient_graph

__all__ = [
    "graph_to_pairs",
    "mr_growing_step",
    "extract_states",
    "PairGrowingState",
    "ArrayGrowingState",
    "make_growing_state",
    "default_engine",
    "owned_engine",
    "mr_cluster",
    "mr_cluster2",
    "mr_approximate_diameter",
    "mr_quotient_graph",
]
