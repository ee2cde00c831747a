"""``CLUSTER(G, τ)`` as a driver program over the MR engine.

Mirrors :func:`repro.core.cluster.cluster` stage for stage — same RNG
stream, same center-selection order, same Δ-doubling policy — but executes
every Δ-growing step as an engine round with the model's memory limits
enforced.  From the same seed the two implementations must return the
*identical* clustering (an integration test asserts this), which is the
strongest evidence that the vectorized kernels implement the pseudocode.

The driver is backend-agnostic: it runs over whatever growing state
:func:`~repro.mrimpl.growing_mr.make_growing_state` builds — the
whole-graph :class:`~repro.mrimpl.growing_mr.ArrayGrowingState` on
``vector``, the shard workers on ``sharded`` — with bit-identical
results, which the backend-equivalence tests assert against the test
suite's paper-literal per-key reducer program.

Fault tolerance: checkpoints are taken at the driver's **safe points**
— the top of each stage and the top of each Δ-growth phase — where no
candidates are in flight, the ``changed`` mask is clear, and the
previous round emitted nothing, so a snapshot is just the state arrays
plus this driver's loop cursor and restores onto any backend; a killed
driver resumes from the newest one.  The :mod:`~repro.mr.faults`
driver-kill schedule fires at growing-step ordinals inside the growth
loops, which is what makes the resume test matrix deterministic.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.cluster import Clustering, StageInfo, distinct_centers
from repro.core.config import ClusterConfig
from repro.errors import CheckpointError, ConfigurationError
from repro.graph.csr import CSRGraph
from repro.graph.ops import total_weight
from repro.mr.engine import MREngine
from repro.mr.faults import maybe_kill_driver
from repro.mrimpl.growing_mr import make_growing_state, owned_engine
from repro.util import as_rng

__all__ = ["mr_cluster"]


def mr_cluster(
    graph: CSRGraph,
    tau: Optional[int] = None,
    config: Optional[ClusterConfig] = None,
    *,
    engine: Optional[MREngine] = None,
    checkpoint=None,
    resume: Optional[Dict[str, Any]] = None,
) -> Clustering:
    """Run Algorithm 1 on the MR engine.

    Parameters
    ----------
    graph:
        Input graph.
    tau, config:
        As in :func:`repro.core.cluster.cluster`; ``config.executor``
        selects the backend when no ``engine`` is supplied.
    engine:
        Optional pre-configured engine; defaults to
        :func:`~repro.mrimpl.growing_mr.default_engine` with enough local
        memory for the densest node's reducer group.
    checkpoint:
        Optional :class:`~repro.runtime.checkpoint.RunCheckpointer`;
        enables safe-point snapshots.
    resume:
        Optional checkpoint payload (from
        :meth:`~repro.runtime.checkpoint.RunCheckpointer.load_latest`)
        to restart from instead of round 0.

    Returns
    -------
    Clustering
        With counters taken from the engine (rounds = engine rounds).
    """
    config = config or ClusterConfig()
    if tau is not None:
        config = config.with_(tau=tau)
    if graph.num_nodes == 0:
        raise ConfigurationError("cannot cluster the empty graph")

    with owned_engine(graph, config, engine) as eng:
        clustering = _mr_cluster(
            graph, config, eng, checkpoint=checkpoint, resume=resume
        )
        if checkpoint is not None:
            # Drain the write-behind thread: the run's checkpoints are
            # durable by the time the driver returns.
            checkpoint.flush()
        return clustering


def _growth_cursor(
    stage_index: int,
    delta: float,
    stages: List[StageInfo],
    *,
    delta_start: float,
    steps_this_stage: int,
    cover_target: int,
    covered_so_far: int,
    doublings: int,
    num_uncovered: int,
    num_picks: int,
) -> Dict[str, Any]:
    return {
        "phase": "base",
        "point": "growth",
        "stage_index": stage_index,
        "delta": delta,
        "stages": [dataclasses.asdict(s) for s in stages],
        "delta_start": delta_start,
        "steps_this_stage": steps_this_stage,
        "cover_target": cover_target,
        "covered_so_far": covered_so_far,
        "doublings": doublings,
        "num_uncovered": num_uncovered,
        "num_picks": num_picks,
    }


def _mr_cluster(
    graph: CSRGraph,
    config: ClusterConfig,
    engine: MREngine,
    checkpoint=None,
    resume: Optional[Dict[str, Any]] = None,
) -> Clustering:
    n = graph.num_nodes
    tau_val = config.resolve_tau(n)
    rng = as_rng(config.seed)
    state = make_growing_state(graph, engine)

    if graph.num_edges == 0:
        centers = np.arange(n, dtype=np.int64)
        return Clustering(
            center=centers.copy(),
            dist_to_center=np.zeros(n),
            centers=centers,
            radius=0.0,
            delta_end=0.0,
            tau=tau_val,
            counters=engine.counters,
            singleton_count=n,
        )

    delta = config.resolve_initial_delta(graph.min_weight, graph.mean_weight)
    threshold = config.stage_threshold(n, tau_val)
    delta_ceiling = max(2.0 * total_weight(graph), delta)
    gamma_tau_log = config.gamma * tau_val * math.log(max(n, 2))

    stages: List[StageInfo] = []
    stage_index = 0
    growth_resume: Optional[Dict[str, Any]] = None

    if resume is not None:
        from repro.runtime.checkpoint import restore_run_state

        cursor = resume["cursor"]
        if cursor.get("phase") != "base":
            raise CheckpointError(
                f"checkpoint cursor phase {cursor.get('phase')!r} does not "
                "belong to the CLUSTER driver"
            )
        restore_run_state(state, engine, rng, resume)
        stage_index = int(cursor["stage_index"])
        delta = float(cursor["delta"])
        stages = [StageInfo(**s) for s in cursor["stages"]]
        if cursor["point"] == "growth":
            growth_resume = cursor
        if checkpoint is not None:
            checkpoint.note_restored(engine.counters.rounds)
            checkpoint.resumed_round = int(resume["round"])

    while True:
        if growth_resume is None:
            # ---- safe point: stage top --------------------------------- #
            if checkpoint is not None:
                checkpoint.maybe_save(
                    state,
                    engine,
                    rng,
                    {
                        "phase": "base",
                        "point": "stage",
                        "stage_index": stage_index,
                        "delta": delta,
                        "stages": [dataclasses.asdict(s) for s in stages],
                    },
                )
            uncovered = state.uncovered()
            num_uncovered = len(uncovered)
            if num_uncovered == 0 or num_uncovered < threshold:
                break
            stage_index += 1
            probability = min(1.0, gamma_tau_log / num_uncovered)
            picks = uncovered[rng.random(num_uncovered) < probability]
            if len(picks) == 0:
                picks = np.array(
                    [uncovered[int(rng.integers(num_uncovered))]],
                    dtype=np.int64,
                )

            # Stage initialization: reset non-frozen nodes, install centers.
            state.begin_stage(picks)

            delta_start = delta
            steps_this_stage = 0
            cover_target = -(-num_uncovered // 2)
            covered_so_far = len(picks)
            doublings = 0
            num_picks = len(picks)
        else:
            # Mid-stage resume: the arrays already hold the stage state
            # (centers installed, earlier growths applied); rebuild only
            # the loop counters and rejoin at the growth top below.
            g, growth_resume = growth_resume, None
            delta_start = float(g["delta_start"])
            steps_this_stage = int(g["steps_this_stage"])
            cover_target = int(g["cover_target"])
            covered_so_far = int(g["covered_so_far"])
            doublings = int(g["doublings"])
            num_uncovered = int(g["num_uncovered"])
            num_picks = int(g["num_picks"])
        while True:
            # ---- safe point: growth top (stage start or post-doubling) - #
            if checkpoint is not None:
                checkpoint.maybe_save(
                    state,
                    engine,
                    rng,
                    _growth_cursor(
                        stage_index,
                        delta,
                        stages,
                        delta_start=delta_start,
                        steps_this_stage=steps_this_stage,
                        cover_target=cover_target,
                        covered_so_far=covered_so_far,
                        doublings=doublings,
                        num_uncovered=num_uncovered,
                        num_picks=num_picks,
                    ),
                )
            # PartialGrowth: forced first round (emit from all assigned),
            # then changed-only rounds.  Engine round r+1 merges the
            # candidates of vectorized growing step r, so termination
            # checks against the vectorized semantics only apply from the
            # second round on.
            force = True
            newly_in_growth = 0
            rounds_in_growth = 0
            while True:
                maybe_kill_driver(
                    engine.counters.growing_steps + 1, checkpoint
                )
                updated, newly = state.step(engine, delta, force=force)
                steps_this_stage += 1
                rounds_in_growth += 1
                force = False
                newly_in_growth += newly
                if updated == 0 and not state.in_flight():
                    break
                if (
                    rounds_in_growth >= 2
                    and covered_so_far + newly_in_growth >= cover_target
                ):
                    # Early exit: candidates emitted this round correspond
                    # to a growing step the vectorized algorithm never
                    # executes — discard them (see the off-by-one note in
                    # repro.mrimpl.growing_mr) so both implementations
                    # freeze the same node set.
                    state.discard_candidates()
                    break
                if (
                    config.growing_step_cap is not None
                    and rounds_in_growth >= config.growing_step_cap + 1
                ):
                    # cap + 1 engine rounds = cap vectorized steps.
                    state.discard_candidates()
                    break
            covered_so_far += newly_in_growth
            if covered_so_far >= cover_target:
                break
            if config.growing_step_cap is not None:
                break
            if delta >= delta_ceiling:
                break
            doublings += 1
            if doublings > config.max_delta_doublings:
                raise ConfigurationError("exceeded max_delta_doublings in mr_cluster")
            delta *= 2.0

        # Contract: freeze every assigned node.
        newly_frozen = state.freeze_assigned(stage_index)
        stages.append(
            StageInfo(
                stage=stage_index,
                uncovered_before=num_uncovered,
                new_centers=num_picks,
                delta_start=delta_start,
                delta_end=delta,
                growing_steps=steps_this_stage,
                newly_covered=newly_frozen,
            )
        )

    # Singletons.
    singleton_count = state.make_singletons()
    center, dacc = state.result()

    clustering = Clustering(
        center=center,
        dist_to_center=dacc,
        centers=distinct_centers(center),
        radius=float(dacc.max()) if n else 0.0,
        delta_end=delta,
        tau=tau_val,
        counters=engine.counters,
        stages=stages,
        singleton_count=singleton_count,
    )
    clustering.validate()
    return clustering
