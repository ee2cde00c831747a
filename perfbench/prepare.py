"""One cold set-up of a benchmark workload, run in its own process.

Usage::

    python3 perfbench/prepare.py --out report.json \
        --graph input.npz graph.rcsr [--graph ...] [--shards K]

For every ``--graph SOURCE STORE`` pair it converts the generated input
into a GraphStore file through the program's public converter, and with
``--shards K`` it writes the K-way ``lp`` partition the sharded executor
reuses.  It then builds and loads the native kernels.  The caller points
``REPRO_STORE_DIR``/``REPRO_NATIVE_DIR`` at an empty private directory,
so every step starts cold.  The report holds each step's wall time,
measured around the public call that performs it.
"""

from __future__ import annotations

import argparse
import json
import os
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--graph", action="append", required=True, nargs=2,
                        metavar=("SOURCE", "STORE"))
    parser.add_argument("--shards", type=int, default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from repro.mr.native import native_available
    from repro.runtime.store import GraphStore

    store = GraphStore()
    report = {"convert_s": 0.0, "store_bytes": 0, "partition_s": 0.0,
              "cut_fraction": 0.0}
    for source, destination in args.graph:
        start = time.perf_counter()
        store.convert(source, destination)
        report["convert_s"] += time.perf_counter() - start
        report["store_bytes"] += os.path.getsize(destination)
        if args.shards:
            start = time.perf_counter()
            partitioned = store.get_partitioned(
                destination, args.shards, partitioner="lp"
            )
            report["partition_s"] += time.perf_counter() - start
            report["cut_fraction"] = float(partitioned.plan.cut_fraction)
    start = time.perf_counter()
    report["native_available"] = bool(native_available())
    report["native_build_s"] = time.perf_counter() - start
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
