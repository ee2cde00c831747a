"""Figure 4 — scalability of CL-DIAM with the number of machines.

The paper runs CL-DIAM on 2..16 machines and observes near-ideal scaling
on both an R-MAT and a roads instance of comparable node counts.  Without
a cluster, this reproduction measures the *simulated critical path* of
the MR-engine execution: each round costs its most-loaded worker's load,
so the per-round maximum — summed over rounds — is exactly the quantity
that shrinks as machines are added.  The MR implementation of CLUSTER
runs unchanged on the ``vector`` engine (batch rounds, hash-partitioned
critical path); only `num_workers` varies.
"""

from __future__ import annotations

import pytest

from conftest import write_result
from repro.bench.reporting import format_table
from repro.core.config import ClusterConfig
from repro.generators import rmat, road_network
from repro.graph.ops import largest_connected_component
from repro.mr.engine import MREngine
from repro.mr.model import MRSpec
from repro.mrimpl.cluster_mr import mr_cluster

MACHINE_COUNTS = (1, 2, 4, 8, 16)
CFG = ClusterConfig(seed=42, stage_threshold_factor=1.0, tau=6)


def _graphs():
    return {
        "R-MAT(9)": largest_connected_component(
            rmat(9, edge_factor=8, seed=11)
        )[0],
        "road(22)": road_network(22, seed=11),
    }


def _simulated_time(graph, workers: int) -> int:
    ml = max(64, 8 * int(graph.degrees.max()) + 64)
    spec = MRSpec(
        total_memory=max(64 * graph.memory_words(), ml),
        local_memory=ml,
        num_workers=workers,
    )
    engine = MREngine(spec)  # no executor object: the vector engine
    mr_cluster(graph, config=CFG, engine=engine)
    return engine.simulated_time


@pytest.mark.parametrize("workers", MACHINE_COUNTS)
def test_simulated_scaling_rmat(benchmark, workers):
    graph = _graphs()["R-MAT(9)"]
    t = benchmark.pedantic(
        lambda: _simulated_time(graph, workers), rounds=1, iterations=1
    )
    assert t > 0


def test_fig4_report(benchmark):
    def sweep():
        rows = []
        for name, graph in _graphs().items():
            times = {w: _simulated_time(graph, w) for w in MACHINE_COUNTS}
            base = times[MACHINE_COUNTS[0]]
            for w in MACHINE_COUNTS:
                rows.append(
                    {
                        "graph": name,
                        "machines": w,
                        "sim_time": times[w],
                        "speedup": base / times[w],
                    }
                )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_result(
        "fig4_scalability.txt",
        format_table(
            rows,
            title="Figure 4: simulated critical-path time vs machines "
            "(speedup relative to 1 machine)",
        ),
    )
    # Shape: adding machines shrinks the critical path on both families.
    for name in ("R-MAT(9)", "road(22)"):
        series = [r for r in rows if r["graph"] == name]
        assert series[-1]["sim_time"] < series[0]["sim_time"]
        assert series[-1]["speedup"] > 2.0
