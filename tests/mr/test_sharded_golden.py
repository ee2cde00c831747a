"""Golden parity of the ``sharded`` backend against a recorded fixture.

``data/sharded_golden.json`` holds, for CLUSTER and CLUSTER2 on a
road grid (several stages, frozen cut nodes, Contract2 ghosts), at
K = 1, 2 and 7 shards and on both kernel tiers:

* the clustering (digests of ``center`` and ``dist_to_center``, plus
  radius, Δ and center count);
* ``Counters.snapshot()`` and ``simulated_time``;
* ``bytes_shipped_per_round``;
* the digest of every checkpoint payload the run published (state
  arrays, cursor, counters, simulated time and RNG state).

The clustering entries date from the process-per-shard pipe pool that
the in-driver pool replaced.  The other fields were re-recorded when
``messages`` became the candidates into open targets and shards
stopped shipping candidates into frozen halo nodes; the clustering
entries did not move.  Each run must reproduce its record exactly,
with every shard mapped and under a residency budget that keeps one
shard mapped at a time.
Regenerate the fixture (only when a change is *meant* to alter these
figures) with::

    PYTHONPATH=src python tests/mr/test_sharded_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ClusterConfig
from repro.generators import road_network
from repro.mr import native
from repro.mr.sharded import RESIDENT_ENV
from repro.mrimpl.cluster2_mr import mr_cluster2
from repro.mrimpl.cluster_mr import mr_cluster
from repro.mrimpl.growing_mr import default_engine
from repro.runtime.checkpoint import (
    _ARRAY_FIELDS,
    CheckpointPolicy,
    RunCheckpointer,
)

FIXTURE = Path(__file__).resolve().parent / "data" / "sharded_golden.json"

CFG = ClusterConfig(tau=1, seed=1, stage_threshold_factor=1.0)
DRIVERS = {"cluster": mr_cluster, "cluster2": mr_cluster2}
SHARD_COUNTS = (1, 2, 7)
IMPLS = ("py", "native")


def _graph():
    return road_network(16, seed=1)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


class _RecordingCheckpointer(RunCheckpointer):
    """Publishes as usual and keeps a digest of every payload."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.digests = []

    def _publish(self, rounds, **payload):
        scalars = {
            key: payload[key]
            for key in ("cursor", "counters", "simulated_time", "rng_state")
        }
        self.digests.append(
            [
                int(rounds),
                hashlib.sha256(
                    bytes.fromhex(
                        _digest(*(payload["arrays"][k] for k in _ARRAY_FIELDS))
                    )
                    + json.dumps(scalars, sort_keys=True).encode()
                ).hexdigest(),
            ]
        )
        return super()._publish(rounds, **payload)


def golden_record(algorithm: str, shards: int, impl: str) -> dict:
    """One run's comparable figures, in the fixture's JSON shape."""
    graph = _graph()
    with tempfile.TemporaryDirectory() as tmp, native.impl_overrides(
        impl, None
    ):
        ckpt = _RecordingCheckpointer(
            Path(tmp) / "ckpt",
            algorithm=algorithm,
            config=CFG,
            signature=("golden", graph.num_nodes, graph.num_edges),
            policy=CheckpointPolicy(every_rounds=1),
        )
        engine = default_engine(graph, executor="sharded", shards=shards)
        try:
            result = DRIVERS[algorithm](
                graph, config=CFG, engine=engine, checkpoint=ckpt
            )
            shipped = list(engine.executor.bytes_shipped_per_round)
        finally:
            engine.executor.close()
    return {
        "center_sha256": _digest(result.center),
        "dist_to_center_sha256": _digest(result.dist_to_center),
        "radius": float(result.radius),
        "delta_end": float(result.delta_end),
        "num_clusters": int(len(np.unique(result.center))),
        "counters": result.counters.snapshot(),
        "simulated_time": int(engine.simulated_time),
        "bytes_shipped_per_round": [int(b) for b in shipped],
        "checkpoints": ckpt.digests,
    }


def _key(algorithm, shards, impl):
    return f"{algorithm}/K={shards}/{impl}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("budget", [None, "0.001"], ids=["mapped", "budget"])
@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("algorithm", sorted(DRIVERS))
def test_matches_golden_fixture(
    golden, monkeypatch, algorithm, shards, impl, budget
):
    if impl == "native" and not native.native_available():
        pytest.skip("native kernel tier unavailable (no C toolchain)")
    if budget is None:
        monkeypatch.delenv(RESIDENT_ENV, raising=False)
    else:
        monkeypatch.setenv(RESIDENT_ENV, budget)
    expected = golden[_key(algorithm, shards, impl)]
    got = golden_record(algorithm, shards, impl)
    assert got["checkpoints"], "the checkpoint cadence never fired"
    for field in expected:
        assert got[field] == expected[field], field


if __name__ == "__main__":
    os.environ.pop(RESIDENT_ENV, None)
    records = {
        _key(algorithm, shards, impl): golden_record(algorithm, shards, impl)
        for algorithm in sorted(DRIVERS)
        for shards in SHARD_COUNTS
        for impl in IMPLS
    }
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {FIXTURE}")
