"""Sharded-executor parity: owner-compute must equal ship-everything.

The ``sharded`` backend re-architects execution — persistent workers,
partitioned on-disk stores, boundary-only exchange with map-side
combining, halo filtering, and frozen-replica regeneration — and every
one of those mechanisms is only admissible because it provably cannot
change the result.  This suite is the enforcement: across shard counts
(1 / 2 / 7), weighted and unweighted graphs, CLUSTER and CLUSTER2,
capped and uncapped growth, the sharded clustering must be *bit
identical* to the ``serial``/``vector`` backends — same centers, same
distances, and the same round/message/update counters.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ClusterConfig
from repro.core.diameter import approximate_diameter
from repro.errors import ConfigurationError
from repro.generators import gnm_random_graph, mesh, path_graph
from repro.graph.serialize import open_store, write_store
from repro.mr.sharded import (
    RESIDENT_ENV,
    ShardedExecutor,
    _check_fd_budget,
)
from repro.mrimpl.cluster2_mr import mr_cluster2
from repro.mrimpl.cluster_mr import mr_cluster
from repro.mrimpl.diameter_mr import mr_approximate_diameter

SHARD_COUNTS = (1, 2, 7)


def assert_same_clustering(result, reference):
    """Bit-identical state and the counters every backend shares."""
    assert np.array_equal(result.center, reference.center)
    assert np.array_equal(result.dist_to_center, reference.dist_to_center)
    assert result.radius == reference.radius
    assert result.delta_end == reference.delta_end
    assert result.counters.rounds == reference.counters.rounds
    assert result.counters.updates == reference.counters.updates
    assert result.counters.growing_steps == reference.counters.growing_steps


def assert_identical(result, reference):
    """Full parity, message counters included.

    Only meaningful against the batch backend (``vector``):
    the per-key ``serial`` simulation also counts its adjacency/state
    pairs as shuffled messages, a known representation difference.
    """
    assert_same_clustering(result, reference)
    assert result.counters.messages == reference.counters.messages
    assert (
        result.counters.peak_round_messages
        == reference.counters.peak_round_messages
    )


@pytest.fixture(scope="module")
def graphs():
    return {
        "mesh": mesh(8, seed=7),
        "gnm": gnm_random_graph(120, 400, seed=9, connect=True),
        "mesh-unit": mesh(7, seed=3, weights="unit"),
        "path-unit": path_graph(40, weights="unit"),
    }


CFG = ClusterConfig(tau=3, seed=1, stage_threshold_factor=1.0)


class TestClusterParity:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize(
        "name", ["mesh", "gnm", "mesh-unit", "path-unit"]
    )
    def test_bit_identical_to_serial_and_vector(self, graphs, name, shards):
        serial = mr_cluster(
            graphs[name], config=CFG.with_(executor="serial")
        )
        vector = mr_cluster(
            graphs[name], config=CFG.with_(executor="vector")
        )
        result = mr_cluster(
            graphs[name],
            config=CFG.with_(executor="sharded", shards=shards),
        )
        assert_same_clustering(result, serial)
        assert_identical(result, vector)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_capped_growth_discard_path(self, graphs, shards):
        """The growing-step cap exercises discard_candidates + the halo
        cache reset, where a stale shipped-best entry would suppress a
        candidate the unsharded path delivers."""
        cfg = CFG.with_(growing_step_cap=2)
        reference = mr_cluster(
            graphs["gnm"], config=cfg.with_(executor="vector")
        )
        result = mr_cluster(
            graphs["gnm"],
            config=cfg.with_(executor="sharded", shards=shards),
        )
        assert_identical(result, reference)

    def test_disconnected(self, disconnected_graph):
        cfg = ClusterConfig(tau=1, seed=7, stage_threshold_factor=0.1)
        reference = mr_cluster(
            disconnected_graph, config=cfg.with_(executor="serial")
        )
        result = mr_cluster(
            disconnected_graph,
            config=cfg.with_(executor="sharded", shards=3),
        )
        assert_same_clustering(result, reference)


class TestCluster2Parity:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_bit_identical_to_serial(self, graphs, shards):
        """CLUSTER2 adds Contract2 rescaling — frozen replicas must carry
        (dist, frozen_iter) so ghosts rescale identically."""
        serial = mr_cluster2(
            graphs["mesh"], config=CFG.with_(executor="serial")
        )
        vector = mr_cluster2(
            graphs["mesh"], config=CFG.with_(executor="vector")
        )
        result = mr_cluster2(
            graphs["mesh"],
            config=CFG.with_(executor="sharded", shards=shards),
        )
        assert_same_clustering(result, serial)
        assert_identical(result, vector)


class TestDiameterParity:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_estimate_identical(self, graphs, shards):
        cfg = ClusterConfig(seed=3, stage_threshold_factor=1.0, tau=4)
        reference = approximate_diameter(graphs["gnm"], config=cfg)
        result = mr_approximate_diameter(
            graphs["gnm"],
            config=cfg.with_(executor="sharded", shards=shards),
        )
        assert result.value == reference.value
        assert result.radius == reference.radius
        assert result.num_clusters == reference.num_clusters


class TestShardedMachinery:
    def test_workers_persist_across_phases(self, graphs):
        """CLUSTER2 runs two full growing phases on one engine; the
        shard workers must spawn once and stay resident throughout."""
        from repro.mrimpl.growing_mr import default_engine

        engine = default_engine(graphs["mesh"], executor="sharded", shards=3)
        try:
            mr_cluster2(graphs["mesh"], config=CFG, engine=engine)
            assert engine.executor.spawn_count == 1
            assert len(engine.executor.bytes_shipped_per_round) == (
                engine.counters.growing_steps
            )
        finally:
            engine.executor.close()

    def test_runs_from_store_without_temp_spill(self, graphs, tmp_path):
        """A memory-mapped graph partitions next to its own store file."""
        path = tmp_path / "mesh.rcsr"
        write_store(graphs["mesh"], path)
        stored = open_store(path)
        reference = mr_cluster(
            graphs["mesh"], config=CFG.with_(executor="vector")
        )
        result = mr_cluster(
            stored, config=CFG.with_(executor="sharded", shards=2)
        )
        assert_identical(result, reference)
        leaf = "2-lp" if ShardedExecutor().partitioner == "lp" else "2"
        assert (tmp_path / "mesh.rcsr.shards" / leaf / "part-0.rcsr").exists()

    def test_boundary_traffic_stays_small_on_path(self):
        """On a path graph split in two, only the single cut edge can
        ever carry candidates: per-round exchange must stay O(1) rows,
        not O(frontier)."""
        graph = path_graph(64, weights="uniform", seed=5)
        executor = ShardedExecutor(num_shards=2)
        from repro.mr.engine import MREngine
        from repro.mr.model import MRSpec

        engine = MREngine(
            MRSpec(total_memory=10**9, local_memory=10**6, num_workers=2),
            executor=executor,
        )
        try:
            mr_cluster(
                graph,
                config=ClusterConfig(
                    tau=2, seed=0, stage_threshold_factor=0.5
                ),
                engine=engine,
            )
            per_round = executor.bytes_shipped_per_round
            assert len(per_round) == engine.counters.growing_steps
            # 2 workers x 64B fixed framing, plus at most a couple of
            # 40-byte candidate rows and one frozen replica in any round.
            assert max(per_round) <= 64 * 2 + 6 * 40 + 200
        finally:
            executor.close()

    def test_close_terminates_workers(self, graphs):
        from repro.mrimpl.growing_mr import default_engine

        engine = default_engine(graphs["mesh"], executor="sharded", shards=2)
        mr_cluster(graphs["mesh"], config=CFG, engine=engine)
        procs = list(engine.executor._pool._procs)
        assert all(p.is_alive() for p in procs)
        engine.executor.close()
        assert all(not p.is_alive() for p in procs)

    def test_executor_close_idempotent(self):
        executor = ShardedExecutor(num_shards=2)
        executor.close()
        executor.close()

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            ShardedExecutor(num_shards=0)

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"),
        reason="needs RLIMIT_NOFILE and /proc/self/fd",
    )
    def test_fd_limit_is_a_structured_error(self, tmp_path):
        """A pipe pool beyond RLIMIT_NOFILE is refused up front.

        K shards need 3K fds in the driver (a command pipe pair and a
        process sentinel per worker); past the soft limit the spawn
        used to die with a raw ``[Errno 24] Too many open files``.  Run
        under a lowered limit in a subprocess (the limit is per
        process): K=100 needs 300 > 256 and raises ConfigurationError
        naming K, the need and the limit, before any worker exists,
        and leaves no temp store behind; a small K still runs.
        """
        script = textwrap.dedent(
            """
            import resource
            from repro.errors import ConfigurationError
            from repro.generators import mesh
            from repro.runtime import run

            _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
            resource.setrlimit(resource.RLIMIT_NOFILE, (256, hard))
            graph = mesh(8, seed=1)
            try:
                run("diameter", graph, tau=4, executor="sharded", shards=100)
            except ConfigurationError as exc:
                print("ERROR", exc)
            result = run("diameter", graph, tau=4, executor="sharded", shards=3)
            print("OK", result.value)
            """
        )
        env = dict(os.environ, TMPDIR=str(tmp_path))
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        error = next(line for line in lines if line.startswith("ERROR"))
        assert "100 shards" in error
        assert "needs " in error and "(300 for worker pipes" in error
        assert "is 256" in error
        assert any(line.startswith("OK") for line in lines)
        assert not list(tmp_path.iterdir()), "temp store leaked"


    @pytest.mark.skipif(
        not sys.platform.startswith("linux"),
        reason="needs RLIMIT_NOFILE and /proc/self/fd",
    )
    @pytest.mark.parametrize(
        "shards, soft, refused",
        [
            (100, 256, True),  # 300 worker-pipe fds alone overflow 256
            (3, 1 << 20, False),
            (300, 1 << 20, False),  # 900 fds: many shards, roomy limit
            (2, 3, True),  # worker pipes past an absurd limit
            (50, "unlimited", False),
        ],
        ids=["over", "fits", "many-fit", "tiny-limit", "unlimited"],
    )
    def test_fd_budget(self, monkeypatch, shards, soft, refused):
        """The up-front check counts three fds per worker on top of what
        is already open, against the soft limit; an unlimited soft limit
        always passes."""
        import resource

        _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft == "unlimited":
            soft = resource.RLIM_INFINITY
        monkeypatch.setattr(resource, "getrlimit", lambda _which: (soft, hard))
        if not refused:
            _check_fd_budget(shards)
            return
        with pytest.raises(ConfigurationError) as excinfo:
            _check_fd_budget(shards)
        message = str(excinfo.value)
        assert f"with {shards} shards" in message
        assert f"({3 * shards} for worker pipes" in message
        need = int(message.split(" needs ")[1].split()[0])
        already_open = int(message.split("pipes, ")[1].split()[0])
        assert need == 3 * shards + already_open > soft
        assert f"(RLIMIT_NOFILE) is {soft}" in message


class TestExchangeParity:
    """The driver-routed exchange must be invisible in the results.

    Boundary candidates cross shards one step late, through the driver,
    after map-side combining and halo filtering, while frozen replicas
    regenerate ghost contributions locally — none of which the
    whole-graph ``vector`` backend does.  Full matrix: CLUSTER /
    CLUSTER2 / CL-DIAM x 1/2/7 shards x push/pull/auto emit — the
    clustering AND the full counter snapshot bit-identical to
    ``vector``.
    """

    @pytest.mark.parametrize("emit", ["push", "pull", "auto"])
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("algo", ["cluster", "cluster2"])
    def test_matrix_bit_identical(
        self, graphs, monkeypatch, algo, shards, emit
    ):
        fn = mr_cluster if algo == "cluster" else mr_cluster2
        monkeypatch.setenv("REPRO_EMIT_MODE", emit)
        reference = fn(graphs["gnm"], config=CFG.with_(executor="vector"))
        result = fn(
            graphs["gnm"], config=CFG.with_(executor="sharded", shards=shards)
        )
        assert_identical(result, reference)
        assert result.counters.snapshot() == reference.counters.snapshot()

    @pytest.mark.parametrize("emit", ["push", "pull", "auto"])
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_diameter_matrix(self, graphs, monkeypatch, shards, emit):
        cfg = ClusterConfig(seed=3, stage_threshold_factor=1.0, tau=4)
        monkeypatch.setenv("REPRO_EMIT_MODE", emit)
        reference = mr_approximate_diameter(
            graphs["gnm"], config=cfg.with_(executor="vector")
        )
        result = mr_approximate_diameter(
            graphs["gnm"], config=cfg.with_(executor="sharded", shards=shards)
        )
        assert result.value == reference.value
        assert result.radius == reference.radius
        assert result.num_clusters == reference.num_clusters
        assert np.array_equal(
            result.clustering.center, reference.clustering.center
        )
        assert result.counters.snapshot() == reference.counters.snapshot()


class TestOutOfCoreParity:
    """A residency budget changes *when* shards are mapped, never what
    they compute: results and counters stay bit-identical while the
    pool holds at most one shard at a time under a starvation budget."""

    def test_tiny_budget_bit_identical(self, graphs, tmp_path):
        path = tmp_path / "gnm.rcsr"
        write_store(graphs["gnm"], path)
        stored = open_store(path)
        reference = mr_cluster(
            graphs["gnm"], config=CFG.with_(executor="vector")
        )
        executor = ShardedExecutor(num_shards=3, resident_mb=0.001)
        from repro.mr.engine import MREngine
        from repro.mr.model import MRSpec

        engine = MREngine(
            MRSpec(total_memory=10**9, local_memory=10**6, num_workers=3),
            executor=executor,
        )
        try:
            result = mr_cluster(stored, config=CFG, engine=engine)
            assert_identical(result, reference)
            # A 1 KiB budget can never fit two shards: the LRU must
            # evict down to a single mapped store at all times.
            assert executor.max_open_shards == 1
        finally:
            executor.close()

    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv(RESIDENT_ENV, "0.25")
        executor = ShardedExecutor(num_shards=2)
        assert executor.resident_bytes == 256 * 1024
        executor.close()

    @pytest.mark.parametrize("raw", ["abc", "0", "-1", "nan", "inf"])
    def test_malformed_env_budget(self, monkeypatch, raw):
        monkeypatch.setenv(RESIDENT_ENV, raw)
        with pytest.raises(ConfigurationError, match=RESIDENT_ENV):
            ShardedExecutor(num_shards=2)

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            ShardedExecutor(num_shards=2, resident_mb=0)

    def test_run_dispatch_with_budget(self, graphs, monkeypatch):
        """End-to-end through ``runtime.run``: the env knob alone must
        select the out-of-core pool and still match the core result."""
        from repro.runtime import run

        core = run("cluster", graphs["gnm"], tau=4, seed=2)
        monkeypatch.setenv(RESIDENT_ENV, "0.001")
        budgeted = run(
            "cluster", graphs["gnm"], tau=4, seed=2,
            executor="sharded", shards=3,
        )
        assert np.array_equal(core.raw.center, budgeted.raw.center)


class TestRuntimeIntegration:
    def test_run_dispatch_matches_core(self, graphs):
        from repro.runtime import run

        core = run("cluster", graphs["gnm"], tau=4, seed=2)
        sharded = run(
            "cluster", graphs["gnm"], tau=4, seed=2,
            executor="sharded", shards=2,
        )
        assert np.array_equal(core.raw.center, sharded.raw.center)
        assert sharded.workers == 2

    def test_shards_requires_sharded_executor(self, graphs):
        from repro.errors import ConfigurationError
        from repro.runtime import run

        with pytest.raises(ConfigurationError):
            run(
                "cluster", graphs["mesh"], tau=3, seed=1,
                executor="vector", shards=2,
            )
