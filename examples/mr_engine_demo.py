#!/usr/bin/env python
"""The MR(M_T, M_L) engine: batch rounds, memory budgets, and the MR
implementation of CLUSTER.

This example shows the substrate the paper's analysis runs on:

1. a word-count round on the engine — one batch round, integer keys and
   a vectorized reducer over every group;
2. the local-memory budget ``M_L`` refusing a reducer group too large
   for one machine;
3. the MR implementation of Algorithm 1 producing the exact same
   clustering as the vectorized production path;
4. the simulated critical path shrinking as machines are added
   (the Figure 4 scalability mechanism).

Run:  python examples/mr_engine_demo.py
"""

import numpy as np

from repro import MREngine, MRSpec, mesh
from repro.core.cluster import cluster
from repro.core.config import ClusterConfig
from repro.errors import MemoryLimitExceeded
from repro.mr.batch import group_count
from repro.mrimpl.cluster_mr import mr_cluster


def main() -> None:
    # --- 1. a classic MapReduce round -----------------------------------
    words = "the quick brown fox jumps over the lazy dog the end".split()
    vocab, keys = np.unique(words, return_inverse=True)
    engine = MREngine(MRSpec(total_memory=10_000, local_memory=100))
    out_keys, out_values = engine.round_batch(
        keys, np.ones(len(keys)), group_count
    )
    counts = {str(vocab[k]): int(c) for k, c in zip(out_keys, out_values[:, 0])}
    print(f"word count: {counts}")
    print(f"rounds so far: {engine.counters.rounds}\n")

    # --- 2. the local-memory budget -------------------------------------
    # Each pair costs a key word plus a value word; "the" x3 = 6 > M_L.
    engine = MREngine(MRSpec(total_memory=10_000, local_memory=4))
    try:
        engine.round_batch(keys, np.ones(len(keys)), group_count)
    except MemoryLimitExceeded as exc:
        print(f"M_L = 4 words refuses the hot key: {exc}\n")

    # --- 3. MR CLUSTER == vectorized CLUSTER ----------------------------
    graph = mesh(10, seed=4)
    cfg = ClusterConfig(tau=3, seed=4, stage_threshold_factor=1.0)
    vec = cluster(graph, config=cfg)
    mr = mr_cluster(graph, config=cfg.with_(executor="vector"))
    assert np.array_equal(vec.center, mr.center)
    print(
        f"CLUSTER on a 10x10 mesh: vectorized and MR-engine paths agree "
        f"({mr.num_clusters} clusters, radius {mr.radius:.4f}); "
        f"the MR path used {mr.counters.rounds} engine rounds with M_L "
        f"enforced on every reducer."
    )

    # --- 4. scalability of the simulated critical path ------------------
    print("\nsimulated critical-path time vs machines (same computation):")
    for workers in (1, 2, 4, 8, 16):
        ml = max(64, 8 * int(graph.degrees.max()) + 64)
        spec = MRSpec(
            total_memory=max(64 * graph.memory_words(), ml),
            local_memory=ml,
            num_workers=workers,
        )
        engine = MREngine(spec)
        mr_cluster(graph, config=cfg, engine=engine)
        print(f"  {workers:>2} machines: {engine.simulated_time:>7} load units")


if __name__ == "__main__":
    main()
