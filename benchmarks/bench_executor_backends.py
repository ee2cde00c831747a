"""Executor backends — vectorized shuffle vs the dict-based hot path.

The Figure-4 scalability experiment varies machines; this bench varies
the *engine* on a fixed Figure-4-family workload (the largest connected
component of an R-MAT graph with ≥ 100 000 nodes) and measures

* ``serial``   — the paper-literal per-key simulation: every pair a
  Python tuple, every shuffle a dict-of-lists;
* ``vector``   — the same algorithm on the batch path: int64 key arrays,
  the fused emit pipeline and the scatter-min merge per round.

PR 7 adds a ``vector-native`` row — the same batch backend on the
native C kernel tier — when a toolchain is available.
Every combination must return the *identical* clustering (same centers,
same radius, same round/step counts — asserted below); the point of the
bench is the wall-clock column.  Expected shape: ``vector`` beats ``serial``
by an order of magnitude (the engine stops being the bottleneck).

This is the slowest module in the suite (the dict-based path alone needs
minutes on 148k nodes); run it on demand, not by default::

    PYTHONPATH=src python -m pytest benchmarks/bench_executor_backends.py -q
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
from repro.mr import native
from repro.mrimpl.cluster_mr import mr_cluster
from repro.mrimpl.growing_mr import default_engine

BACKENDS = ("serial", "vector")
#: The batch backend additionally runs on the native C kernel tier when
#: a toolchain is available (the per-key dict path has no array kernels
#: for the native tier to replace, so ``serial`` stays py-only).
NATIVE_BACKENDS = ("vector",) if native.native_available() else ()
#: R-MAT scale 18 (edge factor 8): the LCC has ~148k nodes / ~1.97M edges.
#: ``REPRO_BENCH_SCALE`` shrinks the instance for CI smoke runs.
SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "18"))
WORKERS = 4
CFG = ClusterConfig(
    seed=42, stage_threshold_factor=1.0, tau=64, growing_step_cap=6
)


@pytest.fixture(scope="module")
def workload():
    return largest_connected_component(rmat(SCALE, edge_factor=8, seed=11))[0]


def _run_backend(graph, backend: str, impl: str = "py"):
    with native.impl_overrides(impl, None):
        engine = default_engine(graph, executor=backend, num_workers=WORKERS)
        start = time.perf_counter()
        try:
            clustering = mr_cluster(graph, config=CFG, engine=engine)
        finally:
            if hasattr(engine.executor, "close"):
                engine.executor.close()
        elapsed = time.perf_counter() - start
    return clustering, engine, elapsed


def test_backend_speedup_report(benchmark, workload):
    if SCALE >= 18:
        assert workload.num_nodes >= 100_000, (
            "Figure-4 instance must be >= 100k nodes"
        )

    def sweep():
        results = {b: _run_backend(workload, b) for b in BACKENDS}
        for b in NATIVE_BACKENDS:
            results[f"{b}-native"] = _run_backend(workload, b, "native")
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    reference, _, serial_time = results["serial"]
    rows = []
    bench_rows = []
    names = list(BACKENDS) + [f"{b}-native" for b in NATIVE_BACKENDS]
    for backend in names:
        clustering, engine, elapsed = results[backend]
        impl = "native" if backend.endswith("-native") else "py"
        # Identical results on every backend — the speedup is free.
        assert np.array_equal(clustering.center, reference.center)
        assert np.allclose(clustering.dist_to_center, reference.dist_to_center)
        assert clustering.radius == pytest.approx(reference.radius)
        assert clustering.counters.rounds == reference.counters.rounds
        assert (
            clustering.counters.growing_steps
            == reference.counters.growing_steps
        )
        rows.append(
            {
                "backend": backend,
                "impl": impl,
                "wall_s": round(elapsed, 2),
                "speedup": round(serial_time / elapsed, 2),
                "rounds": clustering.counters.rounds,
                "growing_steps": clustering.counters.growing_steps,
                "sim_time": engine.simulated_time,
                "radius": round(clustering.radius, 4),
            }
        )
        bench_rows.append(
            bench_record(
                workload=f"rmat{SCALE}_lcc_cluster",
                n=workload.num_nodes,
                m=workload.num_edges,
                backend=backend,
                wall_s=elapsed,
                rounds=clustering.counters.rounds,
                bytes_shipped=getattr(engine.executor, "bytes_shipped", 0),
                speedup=round(serial_time / elapsed, 2),
                impl=impl,
                growing_steps=clustering.counters.growing_steps,
                timings=engine.counters.timing_snapshot(),
            )
        )
    write_bench_records("BENCH_executor_backends.json", bench_rows)

    write_result(
        "executor_backends.txt",
        format_table(
            rows,
            title=(
                f"Executor backends on R-MAT({SCALE}) LCC "
                f"(n={workload.num_nodes}, m={workload.num_edges}, "
                f"{WORKERS} simulated workers)"
            ),
        ),
    )

    # The headline claim: the vectorized shuffle beats the dict path.
    vector_time = results["vector"][2]
    assert vector_time < serial_time
