"""The algorithm registry: one name → one way to run it.

Before this layer existed, every CLI subcommand, benchmark, and example
hand-wired the same orchestration — load the graph, build a
``ClusterConfig``, pick the core vectorized path or an MR engine
backend, run, collect counters.  :class:`AlgorithmRegistry` centralizes
that wiring: an :class:`AlgorithmSpec` declares how an algorithm runs
from a :class:`~repro.runtime.runner.RunContext`, and
:func:`repro.runtime.runner.run` is the single dispatcher every caller
goes through.

The built-in registry covers the whole reproduction surface::

    diameter              CL-DIAM weighted-diameter estimate
    cluster               CLUSTER (Algorithm 1) decomposition
    cluster2              CLUSTER2 (Algorithm 2) decomposition
    sssp                  Δ-stepping single-source shortest paths
    eccentricity          certified per-node eccentricity bounds
    components            per-component diameter estimates
    unweighted-diameter   hop-diameter via the unweighted decomposition

Specs with ``supports_executor=True`` honour ``RunContext.executor``
(``vector``/``sharded``) by routing
through the ``mrimpl`` engine drivers; with ``executor=None`` they run
the vectorized :mod:`repro.core` path.  All paths are bit-identical
from a shared seed — the integration tests assert it — so the executor
choice is purely an execution-platform knob (``sharded`` additionally
reads ``ClusterConfig.shards`` for its owner-compute shard count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Tuple

import numpy as np

__all__ = ["AlgorithmSpec", "AlgorithmRegistry", "REGISTRY", "register"]


@dataclass(frozen=True)
class AlgorithmSpec:
    """How to run one named algorithm.

    Attributes
    ----------
    name:
        Registry key (also the CLI name, e.g. ``repro run diameter``).
    summary:
        One-line human description (shown by ``repro algorithms``).
    fn:
        ``fn(ctx) -> RunResult`` — the implementation, taking a
        :class:`~repro.runtime.runner.RunContext`.
    supports_executor:
        Whether ``ctx.executor`` selects an MR-engine backend; specs
        without support reject a non-``None`` executor early instead of
        silently ignoring it.
    supports_checkpoint:
        Whether the spec forwards ``ctx.checkpoint``/``ctx.resume`` to a
        driver with safe-point snapshots (the clustering family).  The
        runner rejects explicit checkpoint arguments on other specs and
        silently skips an env-armed cadence.
    option_names:
        Extra keyword options the algorithm understands (validated by
        the runner so typos fail fast).
    """

    name: str
    summary: str
    fn: Callable
    supports_executor: bool = False
    supports_checkpoint: bool = False
    option_names: Tuple[str, ...] = ()


class AlgorithmRegistry:
    """Name → :class:`AlgorithmSpec` mapping with validation."""

    def __init__(self):
        self._specs: Dict[str, AlgorithmSpec] = {}

    def register(self, spec: AlgorithmSpec) -> AlgorithmSpec:
        if spec.name in self._specs:
            raise ValueError(f"algorithm {spec.name!r} already registered")
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> AlgorithmSpec:
        try:
            return self._specs[name]
        except KeyError:
            known = ", ".join(sorted(self._specs))
            raise KeyError(
                f"unknown algorithm {name!r}; registered: {known}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._specs))

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[AlgorithmSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)


#: The process-wide registry the CLI and benchmarks dispatch through.
REGISTRY = AlgorithmRegistry()


def register(
    name: str,
    summary: str,
    *,
    supports_executor: bool = False,
    supports_checkpoint: bool = False,
    option_names: Tuple[str, ...] = (),
):
    """Decorator registering ``fn`` under ``name`` in :data:`REGISTRY`."""

    def decorate(fn):
        REGISTRY.register(
            AlgorithmSpec(
                name=name,
                summary=summary,
                fn=fn,
                supports_executor=supports_executor,
                supports_checkpoint=supports_checkpoint,
                option_names=option_names,
            )
        )
        return fn

    return decorate


# --------------------------------------------------------------------- #
# Built-in algorithms
# --------------------------------------------------------------------- #


def _decompose(ctx, *, use_cluster2: bool):
    """Run the decomposition on the path ``ctx`` selects.

    The single place that encodes the core-vs-engine dispatch for every
    clustering-based algorithm: ``executor=None`` is the vectorized
    :mod:`repro.core` path, anything else an MR engine built from the
    config.  Both produce identical clusterings from a shared seed.
    """
    config = ctx.config.with_(use_cluster2=use_cluster2)
    if ctx.executor is None:
        from repro.core.cluster import cluster
        from repro.core.cluster2 import cluster2

        decompose = cluster2 if use_cluster2 else cluster
        return decompose(graph=ctx.graph, config=config, counters=ctx.counters)
    from repro.mrimpl.cluster2_mr import mr_cluster2
    from repro.mrimpl.cluster_mr import mr_cluster
    from repro.mrimpl.growing_mr import owned_engine

    decompose = mr_cluster2 if use_cluster2 else mr_cluster
    with owned_engine(
        ctx.graph,
        config.with_(executor=ctx.executor),
        ctx.engine,
        num_workers=ctx.workers,
    ) as engine:
        clustering = decompose(
            ctx.graph,
            config=config,
            engine=engine,
            checkpoint=ctx.checkpoint,
            resume=ctx.resume,
        )
    ctx.counters.merge(clustering.counters)
    return clustering


@register(
    "diameter",
    "CL-DIAM weighted-diameter estimate (quotient diameter + 2R)",
    supports_executor=True,
    supports_checkpoint=True,
    option_names=("exact", "use_cluster2"),
)
def _run_diameter(ctx):
    from repro.runtime.runner import RunResult

    use_cluster2 = bool(ctx.options.get("use_cluster2", ctx.config.use_cluster2))
    if ctx.executor is None:
        from repro.core.diameter import approximate_diameter

        est = approximate_diameter(
            ctx.graph, config=ctx.config.with_(use_cluster2=use_cluster2)
        )
    else:
        from repro.mrimpl.diameter_mr import mr_approximate_diameter

        est = mr_approximate_diameter(
            ctx.graph,
            config=ctx.config.with_(
                executor=ctx.executor, use_cluster2=use_cluster2
            ),
            engine=ctx.engine,
            num_workers=ctx.workers,
            checkpoint=ctx.checkpoint,
            resume=ctx.resume,
        )
    ctx.counters.merge(est.counters)
    metrics = {
        "estimate": est.value,
        "quotient_diameter": est.quotient_diameter,
        "radius": est.radius,
        "clusters": est.num_clusters,
        "quotient_exact": est.quotient_exact,
    }
    if ctx.options.get("exact"):
        from repro.exact import exact_diameter

        exact = exact_diameter(ctx.graph)
        metrics["exact"] = exact
        metrics["true_ratio"] = est.value / exact if exact > 0 else 1.0
    return RunResult(value=est.value, raw=est, metrics=metrics)


def _clustering_result(ctx, *, use_cluster2: bool):
    from repro.runtime.runner import RunResult

    clustering = _decompose(ctx, use_cluster2=use_cluster2)
    return RunResult(
        value=clustering.radius,
        raw=clustering,
        metrics={
            "clusters": clustering.num_clusters,
            "radius": clustering.radius,
            "singletons": clustering.singleton_count,
            "delta_end": clustering.delta_end,
            "tau": clustering.tau,
        },
    )


@register(
    "cluster",
    "CLUSTER (Algorithm 1) decomposition: centers, radius, quotient input",
    supports_executor=True,
    supports_checkpoint=True,
)
def _run_cluster(ctx):
    return _clustering_result(ctx, use_cluster2=False)


@register(
    "cluster2",
    "CLUSTER2 (Algorithm 2) decomposition with the analysed guarantees",
    supports_executor=True,
    supports_checkpoint=True,
)
def _run_cluster2(ctx):
    return _clustering_result(ctx, use_cluster2=True)


@register(
    "sssp",
    "Δ-stepping single-source shortest paths (baseline)",
    option_names=("source", "delta"),
)
def _run_sssp(ctx):
    from repro.baselines.delta_stepping import delta_stepping_sssp
    from repro.runtime.runner import RunResult

    source = int(ctx.options.get("source", 0))
    delta = ctx.options.get("delta", "mean")
    result = delta_stepping_sssp(ctx.graph, source, delta)
    ctx.counters.merge(result.counters)
    finite = result.dist[np.isfinite(result.dist)]
    ecc = float(finite.max()) if len(finite) else 0.0
    return RunResult(
        value=ecc,
        raw=result,
        metrics={
            "source": source,
            "delta": result.delta,
            "reached": int(len(finite)),
            "eccentricity": ecc,
            "buckets": result.num_buckets,
        },
    )


@register(
    "eccentricity",
    "certified per-node eccentricity intervals from one decomposition",
    supports_executor=True,
    supports_checkpoint=True,
)
def _run_eccentricity(ctx):
    from repro.core.eccentricity import eccentricity_bounds
    from repro.runtime.runner import RunResult

    clustering = _decompose(ctx, use_cluster2=False)
    bounds = eccentricity_bounds(ctx.graph, clustering)
    lo, hi = bounds.diameter_bounds()
    return RunResult(
        value=hi,
        raw=bounds,
        metrics={
            "diameter_lower": lo,
            "diameter_upper": hi,
            "clusters": clustering.num_clusters,
        },
    )


@register(
    "components",
    "per-connected-component diameter estimates",
)
def _run_components(ctx):
    from repro.core.components import per_component_diameters
    from repro.runtime.runner import RunResult

    results = per_component_diameters(
        ctx.graph, tau=ctx.config.tau, config=ctx.config,
        counters=ctx.counters,
    )
    # Results are sorted descending by estimate; the global diameter
    # estimate is the max over components (the first entry).
    return RunResult(
        value=results[0].estimate if results else 0.0,
        raw=results,
        metrics={
            "components": len(results),
            "estimate": results[0].estimate if results else 0.0,
            "largest_size": max((r.size for r in results), default=0),
        },
    )


@register(
    "unweighted-diameter",
    "hop-diameter estimate via the unweighted (BFS) decomposition",
)
def _run_unweighted_diameter(ctx):
    from repro.runtime.runner import RunResult
    from repro.unweighted.diameter import unweighted_approximate_diameter

    value = unweighted_approximate_diameter(
        ctx.graph, config=ctx.config, counters=ctx.counters
    )
    return RunResult(value=value, raw=value, metrics={"estimate": value})
