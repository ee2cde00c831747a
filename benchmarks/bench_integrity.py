"""Verify-on-open overhead and admission-shed latency on R-MAT LCC.

Data-plane integrity must be close to free at its default setting.
This bench runs CLUSTER on a stored R-MAT LCC under each
``REPRO_STORE_VERIFY`` tier and records one ``BENCH_integrity.json``
row per configuration:

* ``verify-off``    — structural open only; the baseline every other
  row (and the ``check_regression.py`` gate) compares against.
* ``verify-header`` — the default O(1) tier (digest-block bounds plus a
  64-byte header re-hash).  The acceptance bar is **<=1% overhead**
  over ``verify-off`` at bench scale — verification that costs more
  than noise would get turned off in production.
* ``verify-full``   — every section re-hashed on open; the recorded
  ratio documents what paranoia costs (it scales with file size and is
  intended for post-transfer / post-recovery opens, not the hot path).
* ``serve-admitted`` / ``serve-shed`` — one resident-budget daemon:
  wall of an admitted cached query vs an over-budget shed (the 503
  path).  Shedding is the daemon protecting itself under pressure, so
  it must stay in the same order of magnitude as a cache hit — *far*
  under actually running the query.

Every verified run must produce a clustering bit-identical to the
``verify-off`` baseline — integrity checking is read-only by
construction and this bench asserts it.

Run on demand::

    PYTHONPATH=src python -m pytest benchmarks/bench_integrity.py -q

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
from repro.graph.csr import CSRGraph
from repro.graph.ops import largest_connected_component
from repro.graph.serialize import write_store
from repro.integrity import VERIFY_ENV
from repro.mrimpl.cluster_mr import mr_cluster

SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "16"))
CFG = ClusterConfig(
    seed=42, stage_threshold_factor=1.0, tau=64, growing_step_cap=6,
    executor="vector",
)
#: Acceptance bar: the default header tier costs <=1% wall clock.
HEADER_OVERHEAD_BAR = 0.01
#: The ratio bars only mean anything once a run takes real time; smoke
#: scales just exercise the harness end to end.
RATIO_SCALE_FLOOR = 14
#: Over-budget sheds answer from the event loop in O(1); hold them to a
#: generous absolute bound so a loaded CI runner doesn't flake.
SHED_LATENCY_BAR_S = 0.25


@pytest.fixture(scope="module")
def stored_workload(tmp_path_factory):
    graph = largest_connected_component(rmat(SCALE, edge_factor=8, seed=11))[0]
    path = tmp_path_factory.mktemp("integrity-bench") / f"rmat{SCALE}.rcsr"
    write_store(graph, path)
    return graph, path


def _timed_open_run(path, *, repeats):
    """Best-of-``repeats`` wall of (verified open + CLUSTER run)."""
    best = None
    clustering = None
    for _ in range(repeats):
        start = time.perf_counter()
        graph = CSRGraph.open_mmap(path)
        clustering = mr_cluster(graph, config=CFG)
        wall = time.perf_counter() - start
        best = wall if best is None else min(best, wall)
    return clustering, best


def test_verify_on_open_overhead(stored_workload, monkeypatch):
    graph, path = stored_workload
    repeats = 3 if SCALE >= RATIO_SCALE_FLOOR else 1

    # One untimed warm-up: imports, page cache, and allocator pools all
    # land here instead of inside whichever level happens to run first.
    monkeypatch.setenv(VERIFY_ENV, "off")
    _timed_open_run(path, repeats=1)

    results = {}
    for level in ("off", "header", "full"):
        monkeypatch.setenv(VERIFY_ENV, level)
        results[level] = _timed_open_run(path, repeats=repeats)
    monkeypatch.delenv(VERIFY_ENV)

    baseline, base_wall = results["off"]
    # Integrity checks are read-only: bit-identical outputs, always.
    for level in ("header", "full"):
        other, _ = results[level]
        assert np.array_equal(other.center, baseline.center)
        assert other.counters.rounds == baseline.counters.rounds
        assert other.counters.messages == baseline.counters.messages

    rows = []
    bench_rows = []
    for level in ("off", "header", "full"):
        clustering, wall = results[level]
        rows.append(
            {
                "backend": f"verify-{level}",
                "wall_s": round(wall, 3),
                "overhead": f"{wall / base_wall - 1:+.1%}",
                "rounds": clustering.counters.rounds,
            }
        )
        bench_rows.append(
            bench_record(
                workload=f"rmat{SCALE}_lcc_cluster_stored",
                n=graph.num_nodes,
                m=graph.num_edges,
                backend=f"verify-{level}",
                wall_s=wall,
                rounds=clustering.counters.rounds,
                bytes_shipped=0,
                overhead_vs_off=round(wall / base_wall - 1, 4),
            )
        )

    write_bench_records("BENCH_integrity.json", bench_rows)
    write_result(
        "integrity_overhead.txt",
        format_table(
            rows,
            title=(
                f"Verify-on-open overhead on stored R-MAT({SCALE}) LCC "
                f"(n={graph.num_nodes}, m={graph.num_edges}, "
                f"store {path.stat().st_size} bytes)"
            ),
        ),
    )

    if SCALE >= RATIO_SCALE_FLOOR:
        _, header_wall = results["header"]
        assert header_wall < base_wall * (1 + HEADER_OVERHEAD_BAR), (
            f"verify=header wall {header_wall:.3f}s is "
            f">{HEADER_OVERHEAD_BAR:.0%} over the verify=off wall "
            f"{base_wall:.3f}s"
        )


def test_admission_shed_latency(stored_workload, tmp_path):
    """One memory-budgeted daemon: admitted cache hit vs over-budget shed."""
    from repro.serve import ServeClient, ServerConfig, start_server_thread
    from repro.serve.admission import estimate_query_cost
    from repro.serve.client import ServeRemoteError

    graph, path = stored_workload
    budget = estimate_query_cost(str(path)) + 1024
    handle = start_server_thread(
        ServerConfig(
            socket_path=str(tmp_path / "bench.sock"),
            port=0,
            max_workers=2,
            memory_budget=budget,
        )
    )
    too_big = tmp_path / "toobig.rcsr"
    # Same workload family, one scale up: costs past the budget.
    big = largest_connected_component(
        rmat(min(SCALE + 1, 18), edge_factor=8, seed=12)
    )[0]
    write_store(big, too_big)
    assert estimate_query_cost(str(too_big)) > budget

    shed_walls = []
    try:
        with ServeClient(socket_path=handle.socket_path) as client:
            client.query(str(path), "cluster", tau=64, seed=42,
                         growing_step_cap=6)
            start = time.perf_counter()
            admitted = client.query(str(path), "cluster", tau=64, seed=42,
                                    growing_step_cap=6)
            admitted_wall = time.perf_counter() - start
            assert admitted["serve"]["cache_hit"] is True
            for _ in range(10):
                start = time.perf_counter()
                with pytest.raises(ServeRemoteError) as excinfo:
                    client.query(str(too_big), "cluster", tau=64, seed=42)
                shed_walls.append(time.perf_counter() - start)
                assert excinfo.value.kind == "over-budget"
            stats = client.stats()["admission"]
    finally:
        handle.stop()

    assert stats["shed_over_budget"] == 10
    shed_wall = min(shed_walls)
    assert shed_wall < SHED_LATENCY_BAR_S

    bench_rows = [
        bench_record(
            workload=f"rmat{SCALE}_lcc_serve_admission",
            n=graph.num_nodes,
            m=graph.num_edges,
            backend=name,
            wall_s=wall,
            rounds=0,
            bytes_shipped=0,
        )
        for name, wall in (
            ("serve-admitted", admitted_wall),
            ("serve-shed", shed_wall),
        )
    ]
    # Append to the artifact the overhead test wrote (module order runs
    # that test first; guard anyway for single-test invocations).
    import json
    from conftest import RESULTS_DIR

    artifact = RESULTS_DIR / "BENCH_integrity.json"
    existing = (
        json.loads(artifact.read_text()) if artifact.exists() else []
    )
    existing = [
        r for r in existing
        if r["workload"] != f"rmat{SCALE}_lcc_serve_admission"
    ]
    write_bench_records("BENCH_integrity.json", existing + bench_rows)
    write_result(
        "integrity_admission.txt",
        format_table(
            [
                {"backend": r["backend"], "wall_s": round(r["wall_s"], 5)}
                for r in bench_rows
            ],
            title=(
                f"Serve admission latency (budget {budget} bytes, "
                "10 sheds, best-of)"
            ),
        ),
    )
