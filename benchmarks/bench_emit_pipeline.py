"""Fused emit pipeline across the batch backends and kernel tiers.

PR 4 moved the reduce side to O(candidates); this bench measures the
emit side's fused pipeline (``repro.mr.emit``): scratch-buffered
candidate generation, push expansion into open targets, and the
improvement pre-filter.  A Figure-4-family workload (R-MAT LCC,
CLUSTER with capped growth) runs on every fused backend
(``<backend>-auto`` rows: push expansion, forced rounds as a push over
every emitting row) and on the serial core (``serial-core``).

Every row runs once on the pure-NumPy tier (``py`` — rows keep their
PR 5 names) and once on the native C tier (``-native`` suffix) when a
toolchain is available.  Both tiers must produce the identical
clustering *and* identical rounds/messages/updates counters (asserted
below and by ``tests/mr/test_native_kernels.py``); the wall-clock
column is the point.  Acceptance bars (enforced at full scale):
``auto`` beats the recorded PR 4 scatter baselines by ≥ 2x on
``vector`` and ≥ 1.3x on ``sharded``; the native
tier's ``vector-auto`` beats the serial core on the py tier AND lands
≥ 3x under the 0.8724s PR 5 ``vector-auto`` baseline (the native bar
is calibrated by the same-process serial-core wall against its PR 5
recording, so a slow or fast host moves the bar, not the verdict).

Run on demand (CI runs it at ``REPRO_BENCH_SCALE=12`` for smoke,
artifact regeneration, and the bench-regression gate)::

    PYTHONPATH=src python -m pytest benchmarks/bench_emit_pipeline.py -q
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from conftest import write_bench_records, write_result
from repro.bench.reporting import bench_record, format_table
from repro.core.cluster import cluster
from repro.core.config import ClusterConfig
from repro.generators import rmat
from repro.graph.ops import largest_connected_component
from repro.mr import native
from repro.mrimpl.cluster_mr import mr_cluster
from repro.mrimpl.growing_mr import default_engine

BACKENDS = ("vector", "sharded")
IMPLS = ("py", "native") if native.native_available() else ("py",)
SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "18"))
WORKERS = 4
CFG = ClusterConfig(
    seed=42, stage_threshold_factor=1.0, tau=64, growing_step_cap=6
)

#: PR 4's recorded R-MAT(18) scatter baselines (BENCH_growing_kernels
#: .json at the time this bench was introduced) — what the acceptance
#: bars are measured against.
PR4_SCATTER_BASELINE = {"vector": 3.7918, "sharded": 13.5934}

#: Required speedup of ``auto`` over the PR 4 baseline, per backend.
ACCEPTANCE = {"vector": 2.0, "sharded": 1.3}

#: PR 5's recorded ``vector-auto`` and ``serial-core`` walls
#: (BENCH_emit_pipeline.json at the time the native tier was
#: introduced) and the required speedup of ``vector-auto`` on the
#: native tier over the former.  The serial-core wall calibrates
#: machine speed — like ``check_regression.py --normalize`` — so the
#: bar tracks the host the baseline was recorded on instead of
#: penalizing (or flattering) a slower/faster run.
PR5_VECTOR_AUTO_BASELINE = 0.8724
PR5_SERIAL_CORE_BASELINE = 0.3235
NATIVE_ACCEPTANCE = 3.0


@pytest.fixture(scope="module")
def workload():
    return largest_connected_component(rmat(SCALE, edge_factor=8, seed=11))[0]


def _run(graph, backend: str, impl: str = "py", repeats: int = 1):
    """One timed run (best wall of ``repeats``) under ``impl``'s tier."""
    best = None
    for _ in range(repeats):
        with native.impl_overrides(impl, None):
            if backend == "serial-core":
                start = time.perf_counter()
                clustering = cluster(graph, config=CFG)
                engine, elapsed = None, time.perf_counter() - start
            else:
                engine = default_engine(
                    graph, executor=backend, num_workers=WORKERS
                )
                start = time.perf_counter()
                try:
                    clustering = mr_cluster(graph, config=CFG, engine=engine)
                finally:
                    if hasattr(engine.executor, "close"):
                        engine.executor.close()
                elapsed = time.perf_counter() - start
        if best is None or elapsed < best[2]:
            best = (clustering, engine, elapsed)
    return best


def test_emit_pipeline_report(benchmark, workload):
    def sweep():
        results = {}
        # The acceptance rows run first, best-of-3: they feed the
        # native bars, and measuring them before the multi-gigabyte
        # sharded runs perturb allocator and page-cache state
        # keeps them comparable to a standalone run.
        results[("serial-core", "py")] = _run(
            workload, "serial-core", "py", repeats=3
        )
        if "native" in IMPLS:
            results[("vector", "native")] = _run(
                workload, "vector", "native", repeats=3
            )
        for impl in IMPLS:
            if ("serial-core", impl) not in results:
                results[("serial-core", impl)] = _run(
                    workload, "serial-core", impl, repeats=3
                )
            for backend in BACKENDS:
                if (backend, impl) in results:
                    continue
                repeats = 3 if backend == "vector" else 1
                results[(backend, impl)] = _run(
                    workload, backend, impl, repeats=repeats
                )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    reference = results[("vector", "py")][0]
    rows = []
    bench_rows = []
    core_time = results[("serial-core", "py")][2]
    for (backend, impl), (clustering, engine, elapsed) in results.items():
        if backend != "serial-core":
            # Backends and kernel tiers may only
            # move time, never results: identical clustering AND
            # identical counters on every combination.
            assert np.array_equal(clustering.center, reference.center)
            assert np.array_equal(
                clustering.dist_to_center, reference.dist_to_center
            )
            assert clustering.counters.rounds == reference.counters.rounds
            assert clustering.counters.messages == reference.counters.messages
            assert clustering.counters.updates == reference.counters.updates
        timings = (
            engine.counters.timing_snapshot()
            if engine is not None
            else clustering.counters.timing_snapshot()
        )
        rows.append(
            {
                "backend": backend,
                "impl": impl,
                "wall_s": round(elapsed, 3),
                "emit_s": timings.get("emit", 0.0),
                "reduce_s": timings.get("reduce", 0.0),
                "rounds": clustering.counters.rounds,
            }
        )
        name = f"{backend}-auto" if backend != "serial-core" else backend
        if impl == "native":
            name += "-native"
        bench_rows.append(
            bench_record(
                workload=f"rmat{SCALE}_lcc_cluster",
                n=workload.num_nodes,
                m=workload.num_edges,
                backend=name,
                wall_s=elapsed,
                rounds=clustering.counters.rounds,
                bytes_shipped=getattr(
                    getattr(engine, "executor", None), "bytes_shipped", 0
                )
                if engine is not None
                else 0,
                impl=impl,
                timings=timings,
            )
        )
    write_bench_records("BENCH_emit_pipeline.json", bench_rows)

    write_result(
        "emit_pipeline.txt",
        format_table(
            rows,
            title=(
                f"Fused emit pipeline on R-MAT({SCALE}) LCC "
                f"(n={workload.num_nodes}, m={workload.num_edges}, "
                f"{WORKERS} workers; serial-core wall {core_time:.2f}s; "
                f"auto = push into open targets + improvement pre-filter)"
            ),
        ),
    )

    # Acceptance bars apply at full scale only: at smoke scales the
    # per-round constants dominate and wall-clock inverts on noise.
    if SCALE >= 16:
        for backend, factor in ACCEPTANCE.items():
            auto_time = results[(backend, "py")][2]
            bar = PR4_SCATTER_BASELINE[backend] / factor
            assert auto_time <= bar, (
                f"{backend}-auto took {auto_time:.2f}s, acceptance "
                f"bar is {bar:.2f}s ({factor}x over the PR 4 baseline "
                f"{PR4_SCATTER_BASELINE[backend]:.2f}s)"
            )
        if "native" in IMPLS:
            nat_time = results[("vector", "native")][2]
            machine = core_time / PR5_SERIAL_CORE_BASELINE
            bar = PR5_VECTOR_AUTO_BASELINE / NATIVE_ACCEPTANCE * machine
            assert nat_time <= bar, (
                f"vector-auto-native took {nat_time:.2f}s, acceptance bar "
                f"is {bar:.2f}s ({NATIVE_ACCEPTANCE}x over the PR 5 "
                f"baseline {PR5_VECTOR_AUTO_BASELINE:.2f}s, machine "
                f"calibration x{machine:.2f} via serial-core)"
            )
            assert nat_time <= core_time, (
                f"vector-auto-native ({nat_time:.2f}s) must beat the "
                f"serial core on the py tier ({core_time:.2f}s)"
            )
