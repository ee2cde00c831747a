"""Child process for the memory-capped big-graph benchmark.

Runs CLUSTER on a stored graph with one executor backend, optionally
under a hard ``RLIMIT_AS`` address-space cap (the "machine smaller than
the graph" regime the out-of-core sharded tier exists for), and prints
a single JSON line with the outcome: wall clock, round counters, a
checksum of the clustering (so the parent can assert bit-identity
across backends), the peak virtual footprint (``VmPeak``), and — on
failure — the error class, which under a cap is how ship-everything
backends report that they simply do not fit.

Invoked by ``bench_sharded.py``; not a pytest module.

Usage::

    python benchmarks/_big_graph_child.py <store> <backend> <cap_bytes> \
        <shards> <resident_mb>

``backend`` is ``vector`` or ``sharded-ooc`` (the sharded backend with
the ``<resident_mb>`` residency budget applied).  Plain ``sharded`` is
not offered: its shards all stay mapped in this one process, so under
a cap it measures nothing the two rows do not.  ``cap_bytes`` 0 means
unconstrained.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def _vm_peak_bytes() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmPeak:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


BACKENDS = ("vector", "sharded-ooc")


def main(argv) -> int:
    store_path, backend, cap_bytes, shards, resident_mb = argv[:5]
    if backend not in BACKENDS:
        raise SystemExit(f"backend must be one of {BACKENDS}, not {backend!r}")
    cap = int(cap_bytes)
    shards = int(shards)
    out = {"backend": backend, "ok": False, "cap_bytes": cap}
    if cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    start = time.perf_counter()
    try:
        from repro.core.config import ClusterConfig
        from repro.graph.serialize import open_store
        from repro.mrimpl.cluster_mr import mr_cluster
        from repro.mrimpl.growing_mr import default_engine

        executor = "vector"
        if backend == "sharded-ooc":
            executor = "sharded"
            os.environ["REPRO_SHARD_RESIDENT_MB"] = resident_mb

        graph = open_store(store_path)
        cfg = ClusterConfig(
            seed=42, stage_threshold_factor=1.0, tau=64, growing_step_cap=6
        )
        engine = default_engine(
            graph, executor=executor, num_workers=shards, shards=shards
        )
        try:
            clustering = mr_cluster(graph, config=cfg, engine=engine)
        finally:
            if hasattr(engine.executor, "close"):
                engine.executor.close()
        out.update(
            ok=True,
            wall_s=time.perf_counter() - start,
            rounds=int(clustering.counters.rounds),
            messages=int(clustering.counters.messages),
            updates=int(clustering.counters.updates),
            checksum=hashlib.sha256(
                clustering.center.tobytes()
                + clustering.dist_to_center.tobytes()
            ).hexdigest(),
            impl=getattr(clustering.counters, "impl", None),
        )
        if executor == "sharded":
            pool_peaks = {
                "max_resident_bytes": engine.executor.max_resident_bytes,
                "max_open_shards": engine.executor.max_open_shards,
            }
            out.update({k: v for k, v in pool_peaks.items() if v is not None})
    except BaseException as exc:  # OOM may surface as any error type
        out.update(
            wall_s=time.perf_counter() - start,
            error=type(exc).__name__,
            detail=str(exc)[:200],
        )
    out["vm_peak_bytes"] = _vm_peak_bytes()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
