"""Sharded-executor parity: owner-compute must equal ship-everything.

The ``sharded`` backend re-architects execution — persistent workers,
partitioned on-disk stores, boundary-only exchange with map-side
combining, halo filtering, and frozen-replica regeneration — and every
one of those mechanisms is only admissible because it provably cannot
change the result.  This suite is the enforcement: across shard counts
(1 / 2 / 7), weighted and unweighted graphs, CLUSTER and CLUSTER2,
capped and uncapped growth, the sharded clustering must be *bit
identical* to the ``vector`` backend and the per-key oracle of
``tests/oracle/mr_literal.py`` — same centers, same distances, and the
same round/message/update counters.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from mr_literal import literal_engine

from repro.core.config import ClusterConfig
from repro.core.diameter import approximate_diameter
from repro.errors import ConfigurationError
from repro.generators import gnm_random_graph, mesh, path_graph
from repro.graph.builder import from_edge_list
from repro.graph.serialize import open_store, write_store
from repro.mr import native
from repro.mr.sharded import (
    RESIDENT_ENV,
    ShardedExecutor,
    _check_fd_budget,
)
from repro.mrimpl.cluster2_mr import mr_cluster2
from repro.mrimpl.cluster_mr import mr_cluster
from repro.mrimpl.diameter_mr import mr_approximate_diameter

SHARD_COUNTS = (1, 2, 7)
TIERS = (
    "py",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native.native_available(),
            reason="native kernel tier unavailable (no C toolchain)",
        ),
    ),
)


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
    the per-key oracle also counts its adjacency/state pairs as
    shuffled messages, a known representation difference.
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
    def test_bit_identical_to_oracle_and_vector(self, graphs, name, shards):
        literal = mr_cluster(
            graphs[name], config=CFG, engine=literal_engine(graphs[name])
        )
        vector = mr_cluster(
            graphs[name], config=CFG.with_(executor="vector")
        )
        result = mr_cluster(
            graphs[name],
            config=CFG.with_(executor="sharded", shards=shards),
        )
        assert_same_clustering(result, literal)
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
            disconnected_graph, config=cfg,
            engine=literal_engine(disconnected_graph),
        )
        result = mr_cluster(
            disconnected_graph,
            config=cfg.with_(executor="sharded", shards=3),
        )
        assert_same_clustering(result, reference)


class TestCluster2Parity:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_bit_identical_to_oracle(self, graphs, shards):
        """CLUSTER2 adds Contract2 rescaling — frozen replicas must carry
        (dist, frozen_iter) so ghosts rescale identically."""
        literal = mr_cluster2(
            graphs["mesh"], config=CFG, engine=literal_engine(graphs["mesh"])
        )
        vector = mr_cluster2(
            graphs["mesh"], config=CFG.with_(executor="vector")
        )
        result = mr_cluster2(
            graphs["mesh"],
            config=CFG.with_(executor="sharded", shards=shards),
        )
        assert_same_clustering(result, literal)
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
        shards_dir = tmp_path / "mesh.rcsr.shards" / "2-lp"
        assert (shards_dir / "part-0.rcsr").exists()

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


def _inproc_workers(graph, shards):
    """The shard workers of an in-process pool (all shards kept open)."""
    executor = ShardedExecutor(num_shards=shards, resident_mb=1024)
    executor._ensure_workers(graph)
    return executor, executor._pool.workers


def _geometry_oracle(graph, owner, shard):
    """Brute-force halo / boundary sets of one shard from the whole graph."""
    rows = [u for u in range(graph.num_nodes) if owner[u] == shard]
    local = {u: r for r, u in enumerate(rows)}
    ext_nbrs = []
    pairs = set()
    for u in rows:
        for v in graph.indices[graph.indptr[u] : graph.indptr[u + 1]]:
            v = int(v)
            if owner[v] != shard:
                ext_nbrs.append(v)
                pairs.add((local[u], int(owner[v])))
    halo = sorted(set(ext_nbrs))
    rank = {v: i for i, v in enumerate(halo)}
    pairs = sorted(pairs)
    return {
        "halo": halo,
        "ext_halo_idx": [rank[v] for v in ext_nbrs],
        "boundary_nodes": [r for r, _ in pairs],
        "boundary_dests": [d for _, d in pairs],
    }


def _with_isolated_nodes():
    """A mesh, a path and isolated nodes interleaved in the id space."""
    edges = []
    a, b = mesh(5, seed=2), path_graph(9, weights="uniform", seed=4)
    for g, offset in ((a, 3), (b, 31)):
        for u in range(g.num_nodes):
            for arc in range(g.indptr[u], g.indptr[u + 1]):
                v = int(g.indices[arc])
                if u < v:
                    edges.append((u + offset, v + offset, float(g.weights[arc])))
    # ids 0-2, 28-30 and 40-43 have no arcs at all
    return from_edge_list(edges, 44)


def _two_islands():
    """Two disconnected copies of one mesh: a 2-way split can cut nothing."""
    g = mesh(4, seed=6)
    edges = [
        (u + off, int(g.indices[arc]) + off, float(g.weights[arc]))
        for off in (0, g.num_nodes)
        for u in range(g.num_nodes)
        for arc in range(g.indptr[u], g.indptr[u + 1])
        if u < g.indices[arc]
    ]
    return from_edge_list(edges, 2 * g.num_nodes)


class TestShardGeometry:
    """Each worker's halo and boundary incidence against a set oracle.

    The worker builds them with dense marks and packed keys; the oracle
    walks the whole graph's adjacency with Python sets.  Values and
    dtypes must match, isolated nodes included.  On a path graph ``lp``
    returns the contiguous split (it cuts least), so that case runs a
    contiguous row set through the sidecar maps.
    """

    @pytest.mark.parametrize("shards", [1, 2, 7])
    @pytest.mark.parametrize("name", ["gnm", "isolated", "path"])
    def test_matches_set_oracle(self, graphs, name, shards):
        graph = {
            "gnm": graphs["gnm"],
            "isolated": _with_isolated_nodes(),
            "path": graphs["path-unit"],
        }[name]
        executor, workers = _inproc_workers(graph, shards)
        try:
            owner = np.asarray(executor.plan.assignment)
            if name == "path":
                assert np.all(np.diff(owner) >= 0)  # contiguous
            assert len(workers) == shards
            for k, worker in enumerate(workers):
                expected = _geometry_oracle(graph, owner, k)
                for attr, values in expected.items():
                    got = getattr(worker, attr)
                    assert type(got) is np.ndarray, attr
                    assert got.dtype == np.int64, attr
                    assert got.tolist() == values, (attr, k)
                if shards == 1:
                    assert len(worker.ext_nbrs) == 0
        finally:
            executor.close()

    def test_no_global_sized_state_after_construction(self):
        """Construction's id-space marks are transient: on a sparse graph
        split 7 ways, no array a worker keeps (besides the shared
        sidecar maps) is as long as the global node count."""
        graph = path_graph(700, weights="uniform", seed=1)
        executor, workers = _inproc_workers(graph, 7)
        try:
            for worker in workers:
                shared = {id(worker.own.owners), id(worker.own.localidx)}
                held = [
                    (name, getattr(obj, name, None))
                    for obj in (worker, worker._emit_scratch, worker.own)
                    for name in getattr(obj, "__dict__", None)
                    or type(obj).__slots__
                ]
                held = [
                    (name, value)
                    for name, value in held
                    if isinstance(value, np.ndarray) and id(value) not in shared
                ]
                assert len(held) > 20
                for name, value in held:
                    assert len(value) < graph.num_nodes, name
        finally:
            executor.close()

    @pytest.mark.parametrize("domain", [50, 10**7])
    def test_sorted_unique_matches_numpy_on_both_branches(self, domain):
        """The dense-mark branch (small domain) and the sort fallback
        (domain far above the key count) equal ``np.unique``."""
        from repro.mr.sharded import _sorted_unique

        keys = np.random.default_rng(domain).integers(0, domain, 300)
        for sample in (keys, keys[:0]):
            uniq, inverse = _sorted_unique(sample, domain, return_inverse=True)
            ref, ref_inverse = np.unique(sample, return_inverse=True)
            assert uniq.dtype == ref.dtype and inverse.dtype == ref_inverse.dtype
            assert np.array_equal(uniq, ref)
            assert np.array_equal(inverse, ref_inverse)
            assert np.array_equal(_sorted_unique(sample, domain), ref)

    def test_shard_without_external_arcs(self):
        graph = _two_islands()
        executor, workers = _inproc_workers(graph, 2)
        try:
            sizes = [w.num_rows for w in workers]
            assert sizes == [16, 16]
            for worker in workers:
                assert len(worker.ext_nbrs) == 0
                for attr in (
                    "halo", "ext_halo_idx", "boundary_nodes", "boundary_dests"
                ):
                    got = getattr(worker, attr)
                    assert got.dtype == np.int64 and len(got) == 0, attr
        finally:
            executor.close()


class TestMappedCacheTiers:
    """The lp layout's frozen-emission cache on the native kernels.

    Records every forced-round ``emit_raw`` of the mapped scratches
    through a CLUSTER run, once per kernel tier: the replayed column
    multisets and the ``emitted`` counts must agree, and the cache must
    actually have been hit.
    """

    @staticmethod
    def _record(monkeypatch, graph, impl):
        """Forced-round columns (sorted) of the mapped scratches + hits."""
        from repro.mr.emit import EmitScratch

        calls = []
        scratches = []
        original = EmitScratch.emit_raw

        def recording(self, **kwargs):
            hits = self.cache_hits
            out = original(self, **kwargs)
            if kwargs["force"] and self.row_gids is not None:
                keys, nd, src, aidx, emitted = out
                replayed = self.cache_hits > hits
                order = np.lexsort((nd, aidx, src, keys))
                calls.append((
                    self.shard_id, replayed, emitted, keys[order].tolist(),
                    nd[order].tolist(), src[order].tolist(),
                    aidx[order].tolist(),
                ))
                if self not in scratches:
                    scratches.append(self)
            return out

        from repro.mr.engine import MREngine
        from repro.mr.model import MRSpec

        with monkeypatch.context() as patch:
            patch.setattr(EmitScratch, "emit_raw", recording)
            patch.setenv("REPRO_KERNEL_IMPL", impl)
            executor = ShardedExecutor(num_shards=3, resident_mb=1024)
            engine = MREngine(
                MRSpec(total_memory=10**9, local_memory=10**6, num_workers=3),
                executor=executor,
            )
            try:
                mr_cluster(graph, config=CFG, engine=engine)
            finally:
                executor.close()
        hits = sum(s.cache_hits for s in scratches)
        return calls, hits

    def test_native_matches_numpy_tier(self, graphs, monkeypatch):
        if not native.native_available():
            pytest.skip("native kernel tier unavailable (no C toolchain)")
        native_calls, native_hits = self._record(
            monkeypatch, graphs["gnm"], "native"
        )
        py_calls, py_hits = self._record(monkeypatch, graphs["gnm"], "py")
        assert native_hits > 0
        assert native_hits == py_hits
        assert any(call[1] for call in native_calls)
        assert native_calls == py_calls


class TestWorkerCacheHits:
    """Shard workers report their frozen-emission cache hits with each
    step reply; the driver state sums them, outside the counters."""

    def _run(self, monkeypatch, graph, resident_mb):
        from repro.mr.engine import MREngine
        from repro.mr.model import MRSpec

        states = []
        original = ShardedExecutor.growing_state

        def recording(self, graph, engine):
            state = original(self, graph, engine)
            states.append(state)
            return state

        monkeypatch.setattr(ShardedExecutor, "growing_state", recording)
        executor = ShardedExecutor(num_shards=2, resident_mb=resident_mb)
        engine = MREngine(
            MRSpec(total_memory=10**9, local_memory=10**6, num_workers=2),
            executor=executor,
        )
        try:
            result = mr_approximate_diameter(graph, config=CFG, engine=engine)
        finally:
            executor.close()
        assert len(states) == 1
        assert "cache_hits" not in engine.counters.snapshot()
        return states[0].cache_hits, result.value

    def test_pipe_pool_count_equals_in_process_pool(
        self, graphs, monkeypatch
    ):
        piped = self._run(monkeypatch, graphs["gnm"], None)
        in_process = self._run(monkeypatch, graphs["gnm"], 1024)
        assert piped[0] > 0
        assert piped == in_process


class TestWorkerEnvChecks:
    """Malformed worker knobs fail in the driver, before any fork."""

    @pytest.mark.parametrize(
        "variable, value",
        [
            ("REPRO_WORKER_TIMEOUT_S", "abc"),
            ("REPRO_WORKER_TIMEOUT_S", "0"),
            ("REPRO_WORKER_TIMEOUT_S", "-1"),
            ("REPRO_WORKER_TIMEOUT_S", "nan"),
            ("REPRO_WORKER_TIMEOUT_S", "inf"),
            ("REPRO_KERNEL_IMPL", "natvie"),
        ],
    )
    def test_rejected_before_spawn(self, graphs, monkeypatch, variable, value):
        monkeypatch.setenv(variable, value)
        executor = ShardedExecutor(num_shards=2)
        try:
            with pytest.raises(
                ConfigurationError, match=f"{variable}={value!r}"
            ):
                executor._ensure_workers(graphs["mesh"])
            assert executor._pool is None
            assert executor.spawn_count == 0
        finally:
            executor.close()

    def test_timeout_accepts_positive_seconds(self, monkeypatch):
        from repro.mr.sharded import WORKER_TIMEOUT_ENV, _worker_timeout

        monkeypatch.delenv(WORKER_TIMEOUT_ENV, raising=False)
        assert _worker_timeout() == 60.0
        monkeypatch.setenv(WORKER_TIMEOUT_ENV, "2.5")
        assert _worker_timeout() == 2.5


class TestExchangeParity:
    """The driver-routed exchange must be invisible in the results.

    Boundary candidates cross shards one step late, through the driver,
    after map-side combining and halo filtering, while frozen replicas
    regenerate ghost contributions locally — none of which the
    whole-graph ``vector`` backend does.  Full matrix: CLUSTER /
    CLUSTER2 / CL-DIAM x 1/2/7 shards x kernel tier — the clustering
    AND the full counter snapshot bit-identical to ``vector`` on the
    same tier.
    """

    @pytest.mark.parametrize("impl", TIERS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("algo", ["cluster", "cluster2"])
    def test_matrix_bit_identical(self, graphs, algo, shards, impl):
        fn = mr_cluster if algo == "cluster" else mr_cluster2
        with native.impl_overrides(impl, None):
            reference = fn(graphs["gnm"], config=CFG.with_(executor="vector"))
            result = fn(
                graphs["gnm"],
                config=CFG.with_(executor="sharded", shards=shards),
            )
        assert_identical(result, reference)
        assert result.counters.snapshot() == reference.counters.snapshot()

    @pytest.mark.parametrize("impl", TIERS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_diameter_matrix(self, graphs, shards, impl):
        cfg = ClusterConfig(seed=3, stage_threshold_factor=1.0, tau=4)
        with native.impl_overrides(impl, None):
            reference = mr_approximate_diameter(
                graphs["gnm"], config=cfg.with_(executor="vector")
            )
            result = mr_approximate_diameter(
                graphs["gnm"],
                config=cfg.with_(executor="sharded", shards=shards),
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
