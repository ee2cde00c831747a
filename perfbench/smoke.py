"""Smoke test of the benchmark: every workload, both modes, small graphs.

Usage (from the repository root)::

    python3 perfbench/smoke.py

Runs ``perfbench/run.py --scale small --seconds 1`` for every workload in
``BENCHMARK.json`` with ``--trace 0`` and ``--trace 1`` and checks that the
last output line is the result object, that it names exactly the
declared metrics with their declared units, and that no operation failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in declared["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, "perfbench/run.py", "--workload",
                   workload["name"], "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--scale", "small"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=180)
            label = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-1500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in declared[kind]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if printed != expected:
                problems.append(f"{label}: metrics {printed} != {expected}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['attempted']} attempted, "
                                f"{result['failed']} failed, correct={result['correct']}")
            print(f"ok {label}: {result['attempted']} operations", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
