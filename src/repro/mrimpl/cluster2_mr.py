"""``CLUSTER2(G, τ)`` as a driver program over the MR engine.

Mirrors :func:`repro.core.cluster2.cluster2` iteration for iteration —
same RNG stream (``seed + 1`` after the base CLUSTER run, as in the
vectorized path), same selection probabilities ``2^i / n``, same
PartialGrowth2-to-fixpoint growth — with every growing step an engine
round carrying the Contract2 ``(rescale, iteration)`` parameters.  From a
shared seed the vectorized and MR clusterings must be identical, which
the cross-validation tests assert; this closes the loop on the one piece
of the paper's machinery (weight rescaling) the CLUSTER cross-check does
not exercise.

Like :func:`~repro.mrimpl.cluster_mr.mr_cluster`, the driver runs batch
rounds on ``vector`` and ``sharded`` alike — same results either way.

Fault tolerance mirrors the CLUSTER driver: phase 1 runs through the
internal ``_mr_cluster`` with the same checkpointer, and phase 2 adds
its own safe point at the top of each iteration.  A phase-2 cursor
carries the only facts phase 1 feeds forward — the base radius, τ, and
stage list — so resuming a phase-2 checkpoint skips phase 1 entirely.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, Optional

import numpy as np

from repro.core.cluster import Clustering, StageInfo, distinct_centers
from repro.core.config import ClusterConfig
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.mr.engine import MREngine
from repro.mr.faults import maybe_kill_driver
from repro.mrimpl.cluster_mr import _mr_cluster
from repro.mrimpl.growing_mr import make_growing_state, owned_engine
from repro.util import as_rng

__all__ = ["mr_cluster2"]


def mr_cluster2(
    graph: CSRGraph,
    tau: Optional[int] = None,
    config: Optional[ClusterConfig] = None,
    *,
    engine: Optional[MREngine] = None,
    checkpoint=None,
    resume: Optional[Dict[str, Any]] = None,
) -> Clustering:
    """Run Algorithm 2 on the MR engine (validation path).

    Returns a :class:`~repro.core.cluster.Clustering` equal to the
    vectorized :func:`repro.core.cluster2.cluster2` result for the same
    seed.  ``checkpoint``/``resume`` as in
    :func:`~repro.mrimpl.cluster_mr.mr_cluster`.
    """
    config = config or ClusterConfig()
    if tau is not None:
        config = config.with_(tau=tau)
    if graph.num_nodes == 0:
        raise ConfigurationError("cannot cluster the empty graph")

    with owned_engine(graph, config, engine) as eng:
        clustering = _mr_cluster2(
            graph, config, eng, checkpoint=checkpoint, resume=resume
        )
        if checkpoint is not None:
            # Drain the write-behind thread: the run's checkpoints are
            # durable by the time the driver returns.
            checkpoint.flush()
        return clustering


def _mr_cluster2(
    graph: CSRGraph,
    config: ClusterConfig,
    engine: MREngine,
    checkpoint=None,
    resume: Optional[Dict[str, Any]] = None,
) -> Clustering:
    n = graph.num_nodes
    resume_c2: Optional[Dict[str, Any]] = None
    if resume is not None and resume["cursor"].get("phase") == "c2":
        resume_c2, resume = resume, None

    if resume_c2 is None:
        # Phase 1: base CLUSTER for R_CL (same engine, so rounds
        # accumulate; a "base"-phase resume payload replays into it).
        base = _mr_cluster(
            graph, config, engine, checkpoint=checkpoint, resume=resume
        )
        r_cl = base.radius
        if r_cl <= 0.0:
            base.counters.extra["cluster2_iterations"] = 0
            return base
        base_tau = base.tau
        base_stages = base.stages
    else:
        cursor = resume_c2["cursor"]
        r_cl = float(cursor["r_cl"])
        base_tau = int(cursor["tau"])
        base_stages = [StageInfo(**s) for s in cursor["stages"]]

    delta = 2.0 * r_cl
    rng = as_rng(None if config.seed is None else config.seed + 1)
    state = make_growing_state(graph, engine)
    num_iterations = max(1, math.ceil(math.log2(max(n, 2))))

    start_iteration = 1
    if resume_c2 is not None:
        from repro.runtime.checkpoint import restore_run_state

        restore_run_state(state, engine, rng, resume_c2)
        start_iteration = int(resume_c2["cursor"]["iteration"])
        if checkpoint is not None:
            checkpoint.note_restored(engine.counters.rounds)
            checkpoint.resumed_round = int(resume_c2["round"])

    c2_stages = [dataclasses.asdict(s) for s in base_stages]
    for i in range(start_iteration, num_iterations + 1):
        # ---- safe point: iteration top --------------------------------- #
        if checkpoint is not None:
            checkpoint.maybe_save(
                state,
                engine,
                rng,
                {
                    "phase": "c2",
                    "iteration": i,
                    "r_cl": r_cl,
                    "tau": base_tau,
                    "stages": c2_stages,
                    "delta": delta,
                    "num_iterations": num_iterations,
                },
            )
        uncovered = state.uncovered()
        if len(uncovered) == 0:
            break
        probability = min(1.0, (2.0**i) / n)
        picks = uncovered[rng.random(len(uncovered)) < probability]
        if i == num_iterations:
            picks = uncovered  # probability 1 on the last iteration

        # Iteration init: reset non-frozen nodes, install new centers.
        state.begin_stage(picks)

        # PartialGrowth2: grow to fixpoint under Contract2 rescaling.
        force = True
        steps = 0
        while True:
            maybe_kill_driver(engine.counters.growing_steps + 1, checkpoint)
            updated, _newly = state.step(
                engine, delta, force=force, rescale=delta, iteration=i
            )
            force = False
            steps += 1
            if updated == 0 and not state.in_flight():
                break
            if config.growing_step_cap is not None and steps >= config.growing_step_cap + 1:
                state.discard_candidates()
                break

        # Contract2: freeze assigned nodes, recording the iteration.
        state.freeze_assigned(i)

    # Singletons for anything unreachable (disconnected inputs only).
    leftover = state.make_singletons(num_iterations + 1)
    center, dacc = state.result()

    engine.counters.extra["cluster2_iterations"] = num_iterations
    engine.counters.extra["cluster2_base_radius"] = (
        int(round(r_cl)) if r_cl >= 1 else 0
    )

    clustering = Clustering(
        center=center,
        dist_to_center=dacc,
        centers=distinct_centers(center),
        radius=float(dacc.max()) if n else 0.0,
        delta_end=delta,
        tau=base_tau,
        counters=engine.counters,
        stages=base_stages,
        singleton_count=leftover,
    )
    clustering.validate()
    return clustering
