"""Owner-compute sharding vs the model's ship-everything shuffle.

A MapReduce round ships every relaxation message to its reducer:
per-round traffic scales with total frontier state wherever it lives.
The ``sharded`` backend keeps each shard's state resident in a
persistent worker and exchanges only the candidates that cross a shard
boundary, so per-round traffic scales with the *boundary* frontier.

This bench runs CLUSTER on a **stored** R-MAT(16) LCC (the graph is
memory-mapped from a ``.rcsr`` store, so shard workers open their rows
zero-copy) on the ``vector`` and ``sharded`` backends and records, per
round, the bytes the sharded backend moved to its workers
(``bytes_shipped``: cross-shard candidate blocks).

Acceptance: the sharded exchange must stay under 10% of the *model
shuffle volume* — the bytes a MapReduce round would charge for
shipping every relaxation message (``counters.messages`` x the 32-byte
candidate row).  Results are identical on both backends (asserted
against the ``vector`` reference), and the per-round byte profile plus
a ``BENCH_sharded.json`` record are written under
``benchmarks/results/``.

Run on demand::

    PYTHONPATH=src python -m pytest benchmarks/bench_sharded.py -q

``REPRO_BENCH_SCALE`` shrinks the instance for CI smoke runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import write_bench_records, write_result
from repro.bench.reporting import bench_record, format_table
from repro.core.config import ClusterConfig
from repro.generators import rmat
from repro.graph.ops import largest_connected_component
from repro.graph.serialize import open_store, write_store
from repro.mrimpl.cluster_mr import mr_cluster
from repro.mrimpl.growing_mr import default_engine

#: R-MAT scale 16 (edge factor 8): the LCC has ~40k nodes / ~580k edges.
SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "16"))
SHARDS = 4
CFG = ClusterConfig(
    seed=42, stage_threshold_factor=1.0, tau=64, growing_step_cap=6
)
#: Rounds to skip before the steady-state byte comparison: each stage's
#: first engine round is a forced full broadcast.
WARMUP_ROUNDS = 2
#: Acceptance bar: sharded exchange < 10% of the model shuffle volume.
SHIPPED_FRACTION_BAR = 0.10
#: int64/float64 words per candidate row on the wire.
CANDIDATE_WORDS = 4
#: Big-graph instance for the memory-capped out-of-core bench.  Tracks
#: the smoke scale when one is set; R-MAT(22) otherwise.
BIG_SCALE = int(
    os.environ.get("REPRO_BENCH_SCALE_BIG")
    or os.environ.get("REPRO_BENCH_SCALE", "22")
)

#: All tests in this module accumulate into one BENCH_sharded.json so
#: the exchange, partition-locality, kernel-tier, partition-tier and
#: big-graph records land in a single artifact (tests append in file
#: order).
_BENCH_ROWS: list = []


def _flush_records(rows) -> None:
    _BENCH_ROWS.extend(rows)
    write_bench_records("BENCH_sharded.json", _BENCH_ROWS)


@pytest.fixture(scope="module")
def stored_workload(tmp_path_factory):
    """The benchmark graph written to (and re-opened from) a store."""
    graph = largest_connected_component(rmat(SCALE, edge_factor=8, seed=11))[0]
    path = tmp_path_factory.mktemp("sharded-bench") / f"rmat{SCALE}.rcsr"
    write_store(graph, path)
    return open_store(path)


def _after_warmup(moved):
    """Bytes moved after the warm-up rounds.  The last round is never
    skipped, so a run shorter than the warm-up (the smoke scale's
    2-round CLUSTER) still reports its steady-state traffic."""
    return sum(moved[min(WARMUP_ROUNDS, max(len(moved) - 1, 0)):])


def _moved_bytes_per_round(executor):
    """Bytes a backend moved to workers each round (none in-process)."""
    return list(getattr(executor, "bytes_shipped_per_round", []))


def _run_backend(graph, backend: str):
    engine = default_engine(
        graph, executor=backend, num_workers=SHARDS, shards=SHARDS
    )
    start = time.perf_counter()
    try:
        clustering = mr_cluster(graph, config=CFG, engine=engine)
    finally:
        if hasattr(engine.executor, "close"):
            engine.executor.close()
    elapsed = time.perf_counter() - start
    return clustering, engine, elapsed


def test_boundary_exchange_report(benchmark, stored_workload):
    graph = stored_workload
    assert graph.is_mmap, "the sharded bench must run on a stored graph"

    def sweep():
        return {b: _run_backend(graph, b) for b in ("vector", "sharded")}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    reference = results["vector"][0]
    rows = []
    bench_rows = []
    for backend in ("vector", "sharded"):
        clustering, engine, elapsed = results[backend]
        # Identical results on every backend — sharding is free.
        assert np.array_equal(clustering.center, reference.center)
        assert np.allclose(clustering.dist_to_center, reference.dist_to_center)
        assert clustering.counters.rounds == reference.counters.rounds
        moved = _moved_bytes_per_round(engine.executor)
        rows.append(
            {
                "backend": backend,
                "wall_s": round(elapsed, 2),
                "rounds": clustering.counters.rounds,
                "moved_total": sum(moved),
                "moved_after_warmup": _after_warmup(moved),
                "peak_round": max(moved, default=0),
            }
        )
        bench_rows.append(
            bench_record(
                workload=f"rmat{SCALE}_lcc_cluster_stored",
                n=graph.num_nodes,
                m=graph.num_edges,
                backend=backend,
                wall_s=elapsed,
                rounds=clustering.counters.rounds,
                bytes_shipped=sum(moved),
                bytes_shipped_after_warmup=_after_warmup(moved),
                shards=SHARDS if backend == "sharded" else 0,
                timings=engine.counters.timing_snapshot(),
            )
        )
    _flush_records(bench_rows)

    sharded_exec = results["sharded"][1].executor
    plan = sharded_exec.plan
    write_result(
        "sharded_exchange.txt",
        format_table(
            rows,
            title=(
                f"Boundary exchange on stored R-MAT({SCALE}) LCC "
                f"(n={graph.num_nodes}, m={graph.num_edges}, "
                f"{SHARDS} shards, edge cut {plan.cut_fraction:.1%})"
            ),
        ),
    )

    # The headline claim: owner-compute turns all-but-boundary messages
    # into local memory traffic, so the whole exchange (ghost broadcast
    # included) is a small fraction of the shuffle volume the MR model
    # charges for the same rounds — messages x the 32-byte candidate
    # row.  Tiny smoke instances have too little volume for the ratio
    # to be meaningful, so the bar only applies at bench scale.
    model_shuffle = reference.counters.messages * 8 * CANDIDATE_WORDS
    sharded_moved = sum(_moved_bytes_per_round(sharded_exec))
    if SCALE >= 14:
        assert model_shuffle > 0
        assert sharded_moved < SHIPPED_FRACTION_BAR * model_shuffle, (
            f"sharded moved {sharded_moved} bytes total, >= "
            f"{SHIPPED_FRACTION_BAR:.0%} of the model's shuffle volume "
            f"{model_shuffle}"
        )


def test_partitioner_locality_report(stored_workload):
    """The lp partition's locality, against a contiguous split.

    The contiguous arc-balanced split's cut on an R-MAT ordering is
    close to random; the multilevel LP plan assigns whole communities
    to shards.  The contiguous cut is computed, not run: it is one of
    lp's own candidates, so lp can never cut more, and at bench scale
    it must cut less by a real margin.
    """
    from repro.mr.partitioner import _range_owner, assignment_cut_fraction

    graph = stored_workload
    clustering, engine, elapsed = _run_backend(graph, "sharded")
    moved = _moved_bytes_per_round(engine.executor)
    cut = engine.executor.plan.cut_fraction
    range_cut = assignment_cut_fraction(graph, _range_owner(graph, SHARDS))
    assert cut <= range_cut + 1e-12
    if SCALE >= 14:
        assert cut <= range_cut - 0.10, (
            f"lp cut {cut:.1%} not meaningfully below the contiguous "
            f"split's {range_cut:.1%}"
        )

    _flush_records(
        [
            bench_record(
                workload=f"rmat{SCALE}_lcc_cluster_stored",
                n=graph.num_nodes,
                m=graph.num_edges,
                backend="sharded-lp",
                wall_s=elapsed,
                rounds=clustering.counters.rounds,
                bytes_shipped=sum(moved),
                bytes_shipped_after_warmup=_after_warmup(moved),
                shards=SHARDS,
                cut_fraction=round(cut, 4),
                range_cut_fraction=round(range_cut, 4),
            )
        ]
    )
    write_result(
        "sharded_partitioner.txt",
        format_table(
            [
                {
                    "partitioner": "lp",
                    "edge_cut": f"{cut:.1%}",
                    "contiguous_cut": f"{range_cut:.1%}",
                    "wall_s": round(elapsed, 2),
                    "moved_total": sum(moved),
                    "moved_after_warmup": _after_warmup(moved),
                }
            ],
            title=(
                f"lp partition locality on stored R-MAT({SCALE}) LCC "
                f"({SHARDS} shards)"
            ),
        ),
    )


def test_kernel_tier_report(stored_workload, monkeypatch):
    """Pure-NumPy vs native kernels under the sharded backend.

    Bit-identical results (the native tier is only admissible as an
    oracle-equal drop-in); the record carries the resolved impl stamp
    so the BENCH row is self-describing.
    """
    from repro.mr import native

    graph = stored_workload
    tiers = ["py"]
    if native.native_available():
        tiers.append("native")
    runs = {}
    for tier in tiers:
        monkeypatch.setenv("REPRO_KERNEL_IMPL", tier)
        clustering, engine, elapsed = _run_backend(graph, "sharded")
        runs[tier] = (clustering, engine, elapsed)

    reference = runs["py"][0]
    bench_rows = []
    for tier in tiers:
        clustering, engine, elapsed = runs[tier]
        assert np.array_equal(clustering.center, reference.center)
        assert clustering.counters.rounds == reference.counters.rounds
        assert clustering.counters.messages == reference.counters.messages
        impl = engine.counters.impl_snapshot()
        assert impl.get("kernel_impl") == tier
        bench_rows.append(
            bench_record(
                workload=f"rmat{SCALE}_lcc_cluster_stored",
                n=graph.num_nodes,
                m=graph.num_edges,
                backend=f"sharded-kernel-{tier}",
                wall_s=elapsed,
                rounds=clustering.counters.rounds,
                bytes_shipped=sum(
                    _moved_bytes_per_round(engine.executor)
                ),
                shards=SHARDS,
                impl=impl,
            )
        )
    _flush_records(bench_rows)


#: Timed ``plan_partition`` calls per kernel tier; the row keeps the best.
PARTITION_REPEATS = 3


def test_partition_tier_report(stored_workload, monkeypatch):
    """The lp partitioner on the NumPy tier vs the native row scans.

    ``plan_partition`` is the sharded path's set-up cost.
    Both tiers must return the byte-identical assignment; each row's
    ``wall_s`` is the best of :data:`PARTITION_REPEATS` plans, so the
    vector-normalised gate guards the native speedup.
    """
    from repro.graph.partition import plan_partition
    from repro.mr import native

    graph = stored_workload
    tiers = ["py"]
    if native.native_available():
        tiers.append("native")
    bench_rows = []
    assignments = {}
    for tier in tiers:
        monkeypatch.setenv("REPRO_KERNEL_IMPL", tier)
        walls = []
        for _ in range(PARTITION_REPEATS):
            start = time.perf_counter()
            plan = plan_partition(graph, SHARDS)
            walls.append(time.perf_counter() - start)
        assignments[tier] = plan.assignment
        bench_rows.append(
            bench_record(
                workload=f"rmat{SCALE}_lcc_partition_stored",
                n=graph.num_nodes,
                m=graph.num_edges,
                backend=f"partition-lp-{tier}",
                wall_s=min(walls),
                rounds=0,
                bytes_shipped=0,
                shards=SHARDS,
                cut_fraction=round(plan.cut_fraction, 4),
                impl={"kernel_impl": tier},
            )
        )
    for tier in tiers:
        assert np.array_equal(assignments[tier], assignments["py"])
    _flush_records(bench_rows)


def _spawn_big_graph_child(store_path, backend, cap_bytes, shards, resident_mb):
    child = Path(__file__).parent / "_big_graph_child.py"
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable, str(child), str(store_path), backend,
            str(int(cap_bytes)), str(shards), str(resident_mb),
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        raise AssertionError(
            f"big-graph child {backend} produced no record: "
            f"rc={proc.returncode} stderr={proc.stderr[-500:]}"
        )
    return json.loads(lines[-1])


def test_big_graph_out_of_core(tmp_path_factory):
    """The regime the distributed model exists for: graph > memory.

    Every backend runs CLUSTER on a stored R-MAT(BIG_SCALE) in a child
    process.  Unconstrained, both complete bit-identically and the
    in-RAM ``vector`` backend is naturally fastest.  Then the address
    space is capped between the out-of-core footprint and the
    full-graph footprint — a machine the graph does not fit on — and
    ``vector`` fails while ``sharded-ooc`` completes: the out-of-core
    tier is the only backend that finishes there.
    """
    graph = rmat(BIG_SCALE, edge_factor=8, seed=11)
    path = tmp_path_factory.mktemp("big-graph") / f"rmat{BIG_SCALE}.rcsr"
    write_store(graph, path)
    del graph
    store_bytes = os.path.getsize(path)
    stored = open_store(path)
    n, m = stored.num_nodes, stored.num_edges
    workload = f"rmat{BIG_SCALE}_cluster_stored"

    # Partition once, outside any cap, so the sharded children reuse
    # the cached shards and walls compare execution, not planning.
    from repro.graph.partition import ensure_partitioned

    ensure_partitioned(path, SHARDS, graph=stored)
    shard_dir = Path(str(path) + ".shards") / f"{SHARDS}-lp"
    shard_sizes = [
        os.path.getsize(p) for p in shard_dir.glob("part-*.rcsr")
    ]
    # Budget: one shard comfortably, two never.
    resident_mb = max(1.0, 1.25 * max(shard_sizes) / 2**20)

    backends = ("vector", "sharded-ooc")
    unconstrained = {
        b: _spawn_big_graph_child(path, b, 0, SHARDS, resident_mb)
        for b in backends
    }
    for b, rec in unconstrained.items():
        assert rec["ok"], f"{b} failed unconstrained: {rec}"
    checksums = {rec["checksum"] for rec in unconstrained.values()}
    assert len(checksums) == 1, (
        f"backends disagree on big graph: "
        f"{ {b: r['checksum'][:12] for b, r in unconstrained.items()} }"
    )

    rows = []
    bench_rows = []
    for b, rec in unconstrained.items():
        rows.append(
            {
                "backend": b,
                "phase": "unconstrained",
                "wall_s": round(rec["wall_s"], 2),
                "vm_peak_gb": round(rec["vm_peak_bytes"] / 2**30, 2),
                "status": "ok",
            }
        )
        bench_rows.append(
            bench_record(
                workload=workload,
                n=n,
                m=m,
                backend=b,
                wall_s=rec["wall_s"],
                rounds=rec["rounds"],
                bytes_shipped=0,
                shards=SHARDS if b.startswith("sharded") else 0,
                vm_peak_bytes=rec["vm_peak_bytes"],
                memory_capped=False,
            )
        )

    # The cap only separates footprints once the graph dwarfs the
    # interpreter baseline; smoke scales just exercise the harness.
    if BIG_SCALE >= 20:
        ooc_peak = unconstrained["sharded-ooc"]["vm_peak_bytes"]
        full_peak = unconstrained["vector"]["vm_peak_bytes"]
        assert ooc_peak < full_peak, (
            f"out-of-core footprint {ooc_peak} not below full-graph "
            f"minimum {full_peak}; no cap can separate them"
        )
        cap = (ooc_peak + full_peak) // 2
        capped = {
            b: _spawn_big_graph_child(path, b, cap, SHARDS, resident_mb)
            for b in backends
        }
        assert capped["sharded-ooc"]["ok"], (
            f"out-of-core run died under its own cap: "
            f"{capped['sharded-ooc']}"
        )
        assert capped["sharded-ooc"]["checksum"] in checksums
        assert not capped["vector"]["ok"], (
            f"vector unexpectedly fit under the {cap} byte cap"
        )
        for b, rec in capped.items():
            rows.append(
                {
                    "backend": b,
                    "phase": f"cap={cap / 2**30:.2f}GiB",
                    "wall_s": round(rec["wall_s"], 2),
                    "vm_peak_gb": round(
                        rec["vm_peak_bytes"] / 2**30, 2
                    ),
                    "status": "ok" if rec["ok"] else (
                        f"DNF ({rec.get('error', '?')})"
                    ),
                }
            )
            bench_rows.append(
                bench_record(
                    workload=f"{workload}_capped",
                    n=n,
                    m=m,
                    backend=b,
                    wall_s=rec["wall_s"],
                    rounds=rec.get("rounds", 0),
                    bytes_shipped=0,
                    shards=SHARDS if b.startswith("sharded") else 0,
                    vm_peak_bytes=rec["vm_peak_bytes"],
                    memory_capped=True,
                    cap_bytes=cap,
                    completed=rec["ok"],
                    error=rec.get("error"),
                )
            )

    _flush_records(bench_rows)
    write_result(
        "sharded_big_graph.txt",
        format_table(
            rows,
            title=(
                f"Big-graph tier on stored R-MAT({BIG_SCALE}) "
                f"(n={n}, m={m}, store {store_bytes / 2**30:.2f} GiB, "
                f"{SHARDS} shards, residency budget "
                f"{resident_mb:.0f} MiB)"
            ),
        ),
    )
