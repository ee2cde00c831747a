"""Checkpoint overhead on R-MAT(16) LCC.

Fault tolerance must be close to free when it is armed and strictly
free when it is off.  This bench runs CLUSTER on a stored R-MAT LCC
(same workload family as ``bench_sharded``) three ways and records one
``BENCH_faults.json`` row per configuration:

* ``checkpoint-off``   — the plain vector run; the baseline every other
  row (and the ``check_regression.py`` gate) compares against.  The
  checkpoint machinery is compiled in but disarmed, so any wall-clock
  drift here is pure code-path overhead and the CI gate holds it to
  the regression tolerance.
* ``checkpoint-5r``    — the same run snapshotting every 5 growing
  rounds; the acceptance bar is **<10% overhead** over
  ``checkpoint-off`` at bench scale.
* ``sharded-faultfree``— the sharded backend, no faults, on the same
  workload.

A killed driver is covered by ``--resume``
(``tests/mr/test_fault_recovery.py``); shard workers run inside the
driver, so there is no separate worker death to recover from and no
recovery row.

Every run must produce a clustering bit-identical to the baseline —
the fault-tolerance layer is only admissible as an oracle-equal
drop-in.

Run on demand::

    PYTHONPATH=src python -m pytest benchmarks/bench_faults.py -q

``REPRO_BENCH_SCALE`` shrinks the instance for CI smoke runs.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from conftest import write_bench_records, write_result
from repro.bench.reporting import bench_record, format_table
from repro.core.config import ClusterConfig
from repro.generators import rmat
from repro.graph.ops import largest_connected_component
from repro.graph.serialize import open_store, write_store
from repro.mr.faults import FAULT_PLAN_ENV, reset_fault_plan
from repro.mrimpl.cluster_mr import mr_cluster
from repro.runtime.checkpoint import CheckpointPolicy, RunCheckpointer

#: R-MAT scale 16 (edge factor 8): the LCC has ~40k nodes / ~580k edges.
SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "16"))
SHARDS = 2
CFG = ClusterConfig(
    seed=42, stage_threshold_factor=1.0, tau=64, growing_step_cap=6
)
#: Acceptance bar: checkpointing every 5 rounds costs <10% wall clock.
CHECKPOINT_OVERHEAD_BAR = 0.10
#: The ratio bars only mean anything once a run takes real time; smoke
#: scales just exercise the harness end to end.
RATIO_SCALE_FLOOR = 14
#: The acceptance cadence.  Smoke instances finish in a handful of
#: growing steps, so there the cadence drops to every round — the point
#: at smoke scale is exercising the save path, not the ratio.
CHECKPOINT_EVERY = 5 if SCALE >= RATIO_SCALE_FLOOR else 1


@pytest.fixture(scope="module")
def stored_workload(tmp_path_factory):
    graph = largest_connected_component(rmat(SCALE, edge_factor=8, seed=11))[0]
    path = tmp_path_factory.mktemp("faults-bench") / f"rmat{SCALE}.rcsr"
    write_store(graph, path)
    return open_store(path)


def _timed_run(graph, config, *, checkpoint=None, repeats=1, make_checkpoint=None):
    """Best-of-``repeats`` wall clock (vector runs finish in ~80ms, so a
    single sample is scheduler noise; best-of-N isolates the code path).

    ``make_checkpoint`` builds a *fresh* checkpointer per repeat —
    re-using one would skip already-published rounds and undercount the
    save cost.  The last repeat's checkpointer is returned so callers
    can inspect ``saved_rounds``/``resumed_round``.
    """
    best = None
    for _ in range(repeats):
        ckpt = make_checkpoint() if make_checkpoint is not None else checkpoint
        start = time.perf_counter()
        clustering = mr_cluster(graph, config=config, checkpoint=ckpt)
        wall = time.perf_counter() - start
        best = wall if best is None else min(best, wall)
    return clustering, best, ckpt


def _checkpointer(tmp_path, graph, config, *, every):
    return RunCheckpointer(
        tmp_path / "ckpt",
        algorithm="cluster",
        config=config,
        signature=("bench", graph.num_nodes, graph.num_edges),
        policy=CheckpointPolicy(every_rounds=every),
    )


def test_fault_tolerance_overhead(stored_workload, tmp_path, monkeypatch):
    graph = stored_workload
    vector_cfg = CFG.with_(executor="vector")
    sharded_cfg = CFG.with_(executor="sharded", shards=SHARDS)

    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    reset_fault_plan()

    repeats = 3 if SCALE >= RATIO_SCALE_FLOOR else 1
    baseline, base_wall, _ = _timed_run(graph, vector_cfg, repeats=repeats)

    counter = [0]

    def fresh_ckpt():
        counter[0] += 1
        return _checkpointer(
            tmp_path / f"armed{counter[0]}", graph, vector_cfg,
            every=CHECKPOINT_EVERY,
        )

    armed, armed_wall, ckpt = _timed_run(
        graph, vector_cfg, repeats=repeats, make_checkpoint=fresh_ckpt
    )
    assert ckpt.saved_rounds, "the checkpoint cadence never fired"

    faultfree, ff_wall, _ = _timed_run(graph, sharded_cfg)

    # Every path lands on the identical clustering and counters.
    for other in (armed, faultfree):
        assert np.array_equal(other.center, baseline.center)
        assert np.allclose(other.dist_to_center, baseline.dist_to_center)
        assert other.counters.rounds == baseline.counters.rounds
        assert other.counters.messages == baseline.counters.messages

    runs = [
        ("checkpoint-off", baseline, base_wall, base_wall),
        (f"checkpoint-{CHECKPOINT_EVERY}r", armed, armed_wall, base_wall),
        ("sharded-faultfree", faultfree, ff_wall, ff_wall),
    ]
    rows = []
    bench_rows = []
    for name, clustering, wall, denom in runs:
        rows.append(
            {
                "backend": name,
                "wall_s": round(wall, 3),
                "overhead": f"{wall / denom - 1:+.1%}" if denom else "-",
                "rounds": clustering.counters.rounds,
            }
        )
        bench_rows.append(
            bench_record(
                workload=f"rmat{SCALE}_lcc_cluster_stored",
                n=graph.num_nodes,
                m=graph.num_edges,
                backend=name,
                wall_s=wall,
                rounds=clustering.counters.rounds,
                bytes_shipped=0,
                shards=SHARDS if name.startswith("sharded") else 0,
                overhead_vs_base=round(wall / denom - 1, 4) if denom else None,
            )
        )
    write_bench_records("BENCH_faults.json", bench_rows)
    write_result(
        "fault_overhead.txt",
        format_table(
            rows,
            title=(
                f"Fault-tolerance overhead on stored R-MAT({SCALE}) LCC "
                f"(n={graph.num_nodes}, m={graph.num_edges})"
            ),
        ),
    )

    if SCALE >= RATIO_SCALE_FLOOR:
        assert armed_wall < base_wall * (1 + CHECKPOINT_OVERHEAD_BAR), (
            f"checkpoint-every-5-rounds wall {armed_wall:.2f}s is "
            f">{CHECKPOINT_OVERHEAD_BAR:.0%} over the "
            f"checkpoint-off wall {base_wall:.2f}s"
        )
