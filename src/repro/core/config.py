"""Configuration of the clustering / diameter-approximation algorithms.

Every tunable the paper discusses is surfaced here:

* ``tau`` — the target number of clusters (τ), which trades round
  complexity against quotient-graph size (§4.1);
* ``initial_delta`` — the starting guess for Δ.  The pseudocode uses the
  minimum edge weight; §5 shows the *average* edge weight "reduces the
  round complexity without affecting the approximation quality
  significantly" and adopts it for all experiments, so it is the default;
* ``gamma`` — the center-selection constant (γ = 4 ln 2 in Algorithm 1);
* ``stage_threshold_factor`` — the ``8`` in the ``|V_i − C_i| ≥ 8 τ ln n``
  outer-loop guard;
* ``growing_step_cap`` — the §4.1 extension that caps the number of
  growing steps per PartialGrowth at O(n/τ), bounding round complexity on
  skewed topologies at the price of approximation quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar, Optional, Union

from repro.errors import ConfigurationError

__all__ = ["ClusterConfig"]

#: γ = 4 ln 2 from Algorithm 1's center-selection probability.
DEFAULT_GAMMA = 4.0 * math.log(2.0)


@dataclass(frozen=True)
class ClusterConfig:
    """Parameters of ``CLUSTER`` / ``CLUSTER2`` / CL-DIAM.

    Attributes
    ----------
    tau:
        Target cluster-count parameter τ.  ``None`` lets CL-DIAM derive τ
        from ``target_quotient_nodes`` (the paper sets τ so the quotient
        graph has at most 100 000 nodes).
    initial_delta:
        ``"mean"`` (paper's experimental default), ``"min"`` (pseudocode
        default), or an explicit positive float.
    gamma:
        Center-selection constant γ.
    stage_threshold_factor:
        The outer while loop runs while more than
        ``stage_threshold_factor · τ · ln n`` nodes are uncovered.
    growing_step_cap:
        Optional cap on Δ-growing steps per PartialGrowth invocation
        (§4.1's O(n/τ) variant).  ``None`` disables the cap.
    max_delta_doublings:
        Safety bound on Δ doublings per stage; on connected graphs
        Lemma 1 keeps the count small, on adversarial/disconnected inputs
        the guard prevents unbounded looping.
    seed:
        Seed for the center-selection randomness.
    use_cluster2:
        Run the theoretically-analysed ``CLUSTER2`` instead of the
        practical ``CLUSTER`` inside CL-DIAM (the paper's CL-DIAM uses
        CLUSTER "for efficiency").
    target_quotient_nodes:
        When ``tau`` is ``None``, τ is chosen so the expected number of
        clusters is about this value.
    quotient_mode:
        ``"auto"`` — exact quotient diameter up to
        ``quotient_exact_limit`` nodes, 2-approximation beyond;
        ``"exact"`` or ``"sweep"`` force one behaviour.
    quotient_exact_limit:
        Node-count threshold for the exact quotient diameter in ``auto``.
    executor:
        MR execution backend the ``mrimpl`` drivers build their default
        engine with: ``"vector"`` (vectorized batch engine, single
        process) or ``"sharded"`` (owner-compute persistent shard
        workers with boundary-only exchange).  Both run batch rounds
        and produce identical clusterings and counters; they differ
        only in wall-clock speed and memory placement (see
        ``docs/mr_model.md`` and ``docs/architecture.md``).  Ignored by
        the vectorized ``repro.core`` path, which does not run an
        engine at all.
    shards:
        Shard count for the ``sharded`` executor (``None`` = CPU
        count).  Ignored by the other backends.
    kernel_impl:
        Kernel tier for the hot Δ-growing loops: ``"auto"`` (compiled C
        kernels when a toolchain is available, pure NumPy otherwise),
        ``"py"`` (force the pure tier — the parity oracle), or
        ``"native"`` (request the C tier; degrades to ``"py"`` with a
        warning when it cannot build).  Both tiers are bit-identical.
        Overrides ``REPRO_KERNEL_IMPL`` for the run.
    """

    tau: Optional[int] = None
    initial_delta: Union[str, float] = "mean"
    gamma: float = DEFAULT_GAMMA
    stage_threshold_factor: float = 8.0
    growing_step_cap: Optional[int] = None
    max_delta_doublings: int = 96
    seed: Optional[int] = 0
    use_cluster2: bool = False
    target_quotient_nodes: int = 1000
    quotient_mode: str = "auto"
    quotient_exact_limit: int = 3000
    executor: str = "vector"
    shards: Optional[int] = None
    kernel_impl: str = "auto"
    # Not a field: a constant perfbench/traced.py still reads.
    emit_threads: ClassVar[None] = None

    def __post_init__(self):
        if self.tau is not None and self.tau < 1:
            raise ConfigurationError("tau must be >= 1")
        if isinstance(self.initial_delta, str):
            if self.initial_delta not in ("mean", "min"):
                raise ConfigurationError(
                    "initial_delta must be 'mean', 'min', or a positive number"
                )
        elif self.initial_delta <= 0:
            raise ConfigurationError("numeric initial_delta must be positive")
        if self.gamma <= 0:
            raise ConfigurationError("gamma must be positive")
        if self.stage_threshold_factor <= 0:
            raise ConfigurationError("stage_threshold_factor must be positive")
        if self.growing_step_cap is not None and self.growing_step_cap < 1:
            raise ConfigurationError("growing_step_cap must be >= 1")
        if self.max_delta_doublings < 1:
            raise ConfigurationError("max_delta_doublings must be >= 1")
        if self.target_quotient_nodes < 1:
            raise ConfigurationError("target_quotient_nodes must be >= 1")
        if self.quotient_mode not in ("auto", "exact", "sweep"):
            raise ConfigurationError("quotient_mode must be auto|exact|sweep")
        if self.quotient_exact_limit < 1:
            raise ConfigurationError("quotient_exact_limit must be >= 1")
        from repro.mr.executor import EXECUTOR_NAMES

        if self.executor not in EXECUTOR_NAMES:
            raise ConfigurationError(
                "executor must be " + "|".join(EXECUTOR_NAMES)
            )
        if self.shards is not None and self.shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if self.kernel_impl not in ("auto", "py", "native"):
            raise ConfigurationError("kernel_impl must be auto|py|native")

    # ------------------------------------------------------------------ #

    def resolve_tau(self, num_nodes: int) -> int:
        """Concrete τ for a graph of ``num_nodes`` nodes.

        When ``tau`` is unset, τ is sized so the expected number of
        clusters (Θ(τ log² n) in theory, ≈ τ·ln n per stage in practice)
        stays near ``target_quotient_nodes`` — the paper's "number of nodes
        in the quotient graph ≤ 100 000" policy, scaled down.
        """
        if self.tau is not None:
            return self.tau
        log_n = max(math.log(max(num_nodes, 2)), 1.0)
        tau = max(1, int(self.target_quotient_nodes / log_n))
        return min(tau, max(num_nodes, 1))

    def resolve_initial_delta(self, min_weight: float, mean_weight: float) -> float:
        """Concrete starting Δ from the configured strategy."""
        if self.initial_delta == "mean":
            value = mean_weight
        elif self.initial_delta == "min":
            value = min_weight
        else:
            value = float(self.initial_delta)
        if not value > 0:
            raise ConfigurationError(
                "resolved initial delta must be positive (edgeless graph?)"
            )
        return value

    def stage_threshold(self, num_nodes: int, tau: int) -> float:
        """Uncovered-node threshold below which remaining nodes become singletons."""
        return self.stage_threshold_factor * tau * math.log(max(num_nodes, 2))

    def with_(self, **changes) -> "ClusterConfig":
        """Functional update helper (frozen dataclass)."""
        return replace(self, **changes)
