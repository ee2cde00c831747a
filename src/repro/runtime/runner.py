"""The unified runtime entry point: ``run(name, graph_or_path, ...)``.

One dispatcher replaces the orchestration that used to be duplicated in
every CLI subcommand, benchmark, and example:

1. resolve the graph — a :class:`~repro.graph.csr.CSRGraph` passes
   through, a path goes via the :class:`~repro.runtime.store.GraphStore`
   (memory-mapped, converted once, LRU-cached);
2. build the :class:`~repro.core.config.ClusterConfig` from the common
   knobs (``seed``, ``tau``) unless a full config is supplied;
3. validate executor/worker/option arguments against the algorithm's
   :class:`~repro.runtime.registry.AlgorithmSpec`;
4. run the spec on a :class:`RunContext` and return a :class:`RunResult`
   carrying the headline value, the raw result object, shared
   :class:`~repro.mr.metrics.Counters`, and wall-clock time.

Example
-------
>>> from repro.runtime import run
>>> from repro.generators import mesh
>>> result = run("diameter", mesh(16, seed=1), tau=4, seed=1)
>>> result.value >= 0
True
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.core.config import ClusterConfig
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.mr.metrics import Counters
from repro.runtime import CHECKPOINT_EVERY_ENV
from repro.runtime.registry import REGISTRY, AlgorithmRegistry
from repro.runtime.store import GraphStore, default_store

__all__ = ["RunContext", "RunResult", "run"]

GraphLike = Union[CSRGraph, str, Path]

#: Options every algorithm accepts (handled by the runner itself).
_COMMON_OPTIONS = frozenset()


@dataclass
class RunContext:
    """Everything an :class:`AlgorithmSpec` needs to execute.

    One context = one run: the ``counters`` accumulate across the
    stages an algorithm performs (decomposition + quotient + finish),
    and ``options`` carries the spec-specific extras (``source`` for
    sssp, ``exact`` for diameter, ...).
    """

    graph: CSRGraph
    config: ClusterConfig
    executor: Optional[str] = None
    workers: Optional[int] = None
    options: Mapping[str, Any] = field(default_factory=dict)
    counters: Counters = field(default_factory=Counters)
    #: Caller-owned MR engine to reuse (``repro serve`` keeps one warm
    #: per resident graph so scratch buffers and shard workers
    #: survive across queries).  ``None`` builds a per-run engine whose
    #: executor is closed when the run ends.
    engine: Optional[Any] = None
    #: :class:`~repro.runtime.checkpoint.RunCheckpointer` armed for this
    #: run (``None`` = checkpointing off).  Built by :func:`run` from
    #: ``checkpoint_every``/``REPRO_CHECKPOINT_EVERY``; specs forward it
    #: to the MR drivers, which snapshot at their safe points.
    checkpoint: Optional[Any] = None
    #: Checkpoint payload to resume from (``run(resume=True)`` loads the
    #: newest valid round), or ``None`` to start at round 0.
    resume: Optional[Dict[str, Any]] = None

    @property
    def seed(self) -> Optional[int]:
        return self.config.seed


@dataclass
class RunResult:
    """What every registry algorithm returns.

    ``value`` is the headline scalar (estimate, radius, eccentricity);
    ``raw`` the full result object (``DiameterEstimate``, ``Clustering``,
    ...); ``metrics`` an ordered, JSON-friendly summary.  The runner
    fills in ``algorithm``, ``counters``, ``executor``/``workers`` and
    ``elapsed`` after the spec returns.
    """

    value: float
    raw: Any
    metrics: Dict[str, Any] = field(default_factory=dict)
    algorithm: str = ""
    counters: Counters = field(default_factory=Counters)
    executor: Optional[str] = None
    workers: Optional[int] = None
    elapsed: float = 0.0
    graph: Optional[CSRGraph] = None

    @property
    def timings(self) -> Dict[str, float]:
        """Per-phase wall-clock seconds (emit / shuffle / reduce / apply).

        Accumulated by the growing-step pipeline across every round of
        the run; phases a backend never recorded read 0.0.  Kept out of
        :meth:`snapshot` — snapshots are compared bit-for-bit across
        backends, wall-clock never is.
        """
        return self.counters.timing_snapshot()

    @property
    def kernel_impl(self) -> Optional[str]:
        """Resolved kernel tier of the run (``"py"`` or ``"native"``)."""
        impl = self.counters.impl.get("kernel_impl")
        return str(impl) if impl is not None else None

    def snapshot(self) -> Dict[str, Any]:
        """Flat dict view: metrics + counters + run metadata."""
        return {
            "algorithm": self.algorithm,
            "value": self.value,
            **self.metrics,
            **self.counters.snapshot(),
            "executor": self.executor or "core",
            "elapsed_s": self.elapsed,
            **self.counters.impl_snapshot(),
        }


def _resolve_graph(graph: GraphLike, store: Optional[GraphStore]) -> CSRGraph:
    if isinstance(graph, CSRGraph):
        return graph
    if store is None:  # NB: an empty GraphStore is falsy (len == 0)
        store = default_store()
    return store.get(graph)


def _resolve_config(
    config: Optional[ClusterConfig],
    seed: Optional[int],
    tau: Optional[int],
    shards: Optional[int] = None,
    kernel_impl: Optional[str] = None,
) -> ClusterConfig:
    if config is None:
        # The CLI's historical defaults: practical stage threshold, the
        # given seed.  Callers needing other knobs pass a full config.
        config = ClusterConfig(seed=0, stage_threshold_factor=1.0)
    if seed is not None:
        config = config.with_(seed=seed)
    if tau is not None:
        config = config.with_(tau=tau)
    if shards is not None:
        config = config.with_(shards=shards)
    if kernel_impl is not None:
        config = config.with_(kernel_impl=kernel_impl)
    return config


def run(
    name: str,
    graph: GraphLike,
    *,
    config: Optional[ClusterConfig] = None,
    seed: Optional[int] = None,
    tau: Optional[int] = None,
    executor: Optional[str] = None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    kernel_impl: Optional[str] = None,
    engine: Optional[Any] = None,
    checkpoint_every: Optional[str] = None,
    resume: bool = False,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    store: Optional[GraphStore] = None,
    registry: Optional[AlgorithmRegistry] = None,
    **options: Any,
) -> RunResult:
    """Run registered algorithm ``name`` on ``graph`` and return the result.

    Parameters
    ----------
    name:
        A registry key (``repro algorithms`` lists them).
    graph:
        A :class:`CSRGraph`, or a path to any supported graph file —
        paths are opened through the :class:`GraphStore` (memory-mapped,
        converted once, cached), so repeated runs start in milliseconds.
    config, seed, tau:
        ``config`` wins when given; otherwise a CLI-equivalent default
        config is built and ``seed``/``tau`` applied on top.
    executor, workers:
        MR-engine backend selection for specs that support it
        (``vector``/``sharded``);
        ``None`` runs the vectorized core path.  Specs without executor
        support reject a non-``None`` value.
    shards:
        Shard count for ``executor="sharded"`` (default: ``workers``,
        falling back to the CPU count).  Rejected with any other
        executor.
    kernel_impl:
        Kernel-tier override applied on top of the config (see
        :class:`~repro.core.config.ClusterConfig`): ``"py"``/``"native"``
        /``"auto"``.  The resolved tier is stamped on
        ``result.counters.impl``.
    engine:
        A caller-owned :class:`~repro.mr.engine.MREngine` for the spec
        to reuse instead of building (and closing) one per run.  The
        engine must have been built for *this* graph and executor kind;
        its per-run counters are reset before the spec executes, but its
        scratch buffers, growing state, and shard workers stay warm —
        this is how ``repro serve`` amortizes engine start-up across
        queries.  Requires a non-``None`` ``executor``.
    checkpoint_every, resume, checkpoint_dir:
        Fault tolerance for specs with ``supports_checkpoint``:
        ``checkpoint_every`` is the :class:`CheckpointPolicy` cadence
        (``"5"`` rounds / ``"2.5s"``; default from
        ``REPRO_CHECKPOINT_EVERY``), ``resume=True`` restarts from the
        newest valid snapshot (fresh run when none exists), and
        ``checkpoint_dir`` overrides the ``<store>.ckpt`` default
        location.  Explicit values require an MR ``executor`` and a
        checkpoint-capable spec; an env-armed cadence on other runs is
        silently ignored.  The resolved resume round and saved rounds
        are stamped on ``result.counters.impl``.
    store, registry:
        Override the process-wide defaults (mostly for tests).
    **options:
        Spec-specific extras, validated against the spec's
        ``option_names``.

    Raises
    ------
    KeyError
        Unknown algorithm name.
    ConfigurationError
        Executor passed to a spec that does not support it, an unknown
        option, or an invalid worker count.
    """
    spec = (registry or REGISTRY).get(name)
    if executor is not None and not spec.supports_executor:
        raise ConfigurationError(
            f"algorithm {name!r} does not support --executor"
        )
    if workers is not None and workers < 1:
        raise ConfigurationError("workers must be >= 1")
    if workers is not None and executor is None:
        raise ConfigurationError("workers requires an executor")
    if engine is not None and executor is None:
        raise ConfigurationError("engine requires an executor")
    if shards is not None and executor != "sharded":
        raise ConfigurationError("shards requires executor='sharded'")
    if shards is not None and shards < 1:
        raise ConfigurationError("shards must be >= 1")
    if executor == "sharded":
        # The owner-compute backend's machine count is its shard count.
        # Explicit kwargs win; a caller-supplied config's shards is
        # preserved (shards stays None so _resolve_config keeps it).
        if workers is not None and shards is not None and workers != shards:
            raise ConfigurationError(
                "executor='sharded' has workers == shards by definition; "
                f"got workers={workers}, shards={shards}"
            )
        if shards is None and workers is not None:
            shards = workers
        workers = (
            shards
            or (config.shards if config is not None else None)
            or os.cpu_count()
            or 1
        )
    elif executor is not None and workers is None:
        # Resolve the engine default here so RunResult.workers reports
        # the count the run actually used.
        workers = 1
    unknown = set(options) - set(spec.option_names) - _COMMON_OPTIONS
    if unknown:
        raise ConfigurationError(
            f"algorithm {name!r} does not understand option(s): "
            + ", ".join(sorted(unknown))
        )

    if executor == "sharded" and not isinstance(graph, CSRGraph):
        # Partition through the GraphStore so the shard directories are
        # written (and trimmed) under the cache's byte budget; the
        # executor then finds a fresh manifest and reuses it.
        (store if store is not None else default_store()).get_partitioned(
            graph, workers
        )

    if engine is not None:
        # A reused engine accumulates counters/simulated-time across
        # runs; each run must start from zero so the RunResult's
        # counters stay bit-comparable with a fresh-engine run.  Every
        # component reads ``engine.counters`` live, so swapping the
        # object is safe.
        engine.counters = Counters()
        engine.simulated_time = 0

    resolved_config = _resolve_config(config, seed, tau, shards, kernel_impl)

    explicit_ckpt = (
        checkpoint_every is not None or resume or checkpoint_dir is not None
    )
    if explicit_ckpt and not spec.supports_checkpoint:
        raise ConfigurationError(
            f"algorithm {name!r} does not support checkpointing"
        )
    if explicit_ckpt and executor is None:
        raise ConfigurationError(
            "checkpointing runs on the MR drivers; pass an executor"
        )
    checkpointer = None
    resume_payload = None
    # The checkpoint module loads only when a checkpoint is asked for or
    # the cadence knob is set (a malformed value then fails in parse).
    armed = explicit_ckpt or os.environ.get(CHECKPOINT_EVERY_ENV)
    if spec.supports_checkpoint and executor is not None and armed:
        from repro.runtime.checkpoint import (
            CheckpointPolicy,
            RunCheckpointer,
            checkpoint_dir_for,
        )

        policy = (
            CheckpointPolicy.parse(str(checkpoint_every))
            if checkpoint_every is not None
            else CheckpointPolicy.from_env()
        )
        if policy.enabled or resume:
            if isinstance(graph, CSRGraph):
                signature = ("memory", graph.num_nodes, graph.num_edges)
                store_path = None
            else:
                signature = (
                    store if store is not None else default_store()
                ).signature(graph)
                store_path = signature[0]
            ckpt_dir = checkpoint_dir_for(
                name,
                resolved_config,
                store_path=store_path,
                directory=checkpoint_dir,
            )
            if ckpt_dir is None:
                if explicit_ckpt:
                    raise ConfigurationError(
                        "no checkpoint directory derivable for an "
                        "in-memory graph; pass checkpoint_dir or set "
                        "REPRO_CHECKPOINT_DIR"
                    )
                # Env-armed cadence with nowhere to write: skip.
            else:
                checkpointer = RunCheckpointer(
                    ckpt_dir,
                    algorithm=name,
                    config=resolved_config,
                    signature=signature,
                    policy=policy,
                )
                if resume:
                    resume_payload = checkpointer.load_latest()

    ctx = RunContext(
        graph=_resolve_graph(graph, store),
        config=resolved_config,
        executor=executor,
        workers=workers,
        options=dict(options),
        engine=engine,
        checkpoint=checkpointer,
        resume=resume_payload,
    )
    from repro.mr import native

    start = time.perf_counter()
    # The config's kernel tier applies for the whole run
    # (environment-scoped so shard workers run with the same setting);
    # the resolved tier is stamped on the counters for reporting —
    # never into the snapshot, which stays tier-invariant.
    with native.impl_overrides(ctx.config.kernel_impl):
        result = spec.fn(ctx)
        ctx.counters.impl.update(native.resolved_info())
    from repro.integrity import verify_level

    ctx.counters.impl["store_verify"] = verify_level()
    if checkpointer is not None:
        ctx.counters.impl["checkpoint_rounds"] = list(checkpointer.saved_rounds)
        if checkpointer.resumed_round is not None:
            ctx.counters.impl["resume_round"] = int(checkpointer.resumed_round)
    result.elapsed = time.perf_counter() - start
    result.algorithm = name
    result.counters = ctx.counters
    result.executor = executor
    result.workers = workers
    result.graph = ctx.graph
    return result
