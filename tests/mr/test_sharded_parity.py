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
from repro.mr.sharded import RESIDENT_ENV, ShardedExecutor
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

    def test_close_releases_every_shard(self, graphs):
        from repro.mrimpl.growing_mr import default_engine

        engine = default_engine(graphs["mesh"], executor="sharded", shards=2)
        mr_cluster(graphs["mesh"], config=CFG, engine=engine)
        workers = list(engine.executor._pool.workers)
        assert all(w.graph_open for w in workers)
        engine.executor.close()
        assert not any(w.graph_open for w in workers)
        assert engine.executor._pool is None

    def test_executor_close_idempotent(self):
        executor = ShardedExecutor(num_shards=2)
        executor.close()
        executor.close()

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            ShardedExecutor(num_shards=0)


def _shard_workers(graph, shards):
    """The shard workers of a pool with every shard mapped."""
    executor = ShardedExecutor(num_shards=shards)
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
        executor, workers = _shard_workers(graph, shards)
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
        executor, workers = _shard_workers(graph, 7)
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
        executor, workers = _shard_workers(graph, 2)
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


class TestMappedForcedTiers:
    """The lp layout's forced rounds on both kernel tiers.

    Records every forced-round ``emit_raw`` of the mapped scratches
    through a CLUSTER run, once per tier: the message columns (the
    native scan skips silent frozen rows, the NumPy tier expands them
    all) and their counts must agree.
    """

    @staticmethod
    def _record(monkeypatch, graph, impl):
        """Forced-round columns (sorted) of the mapped scratches."""
        from repro.mr.emit import EmitScratch

        calls = []
        original = EmitScratch.emit_raw

        def recording(self, **kwargs):
            out = original(self, **kwargs)
            if kwargs["force"] and self.row_gids is not None:
                keys, nd, src, aidx, count = out
                order = np.lexsort((nd, aidx, src, keys))
                calls.append((
                    self.shard_id, count, keys[order].tolist(),
                    nd[order].tolist(), src[order].tolist(),
                    aidx[order].tolist(),
                ))
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
        return calls

    def test_native_matches_numpy_tier(self, graphs, monkeypatch):
        if not native.native_available():
            pytest.skip("native kernel tier unavailable (no C toolchain)")
        native_calls = self._record(monkeypatch, graphs["gnm"], "native")
        py_calls = self._record(monkeypatch, graphs["gnm"], "py")
        assert any(call[1] for call in native_calls)
        assert native_calls == py_calls


class TestShardMessages:
    """Each message is counted on exactly one shard: round by round, the
    workers' counts sum to the whole-graph push's, whether every shard
    stays mapped or one is mapped at a time."""

    @staticmethod
    def _per_round(monkeypatch, graph, executor):
        from repro.mr.engine import MREngine
        from repro.mr.metrics import Counters
        from repro.mr.model import MRSpec

        rounds = []
        original = Counters.record_round

        def recording(self, messages, updates, **kwargs):
            rounds.append(messages)
            return original(self, messages, updates, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Counters, "record_round", recording)
            engine = MREngine(
                MRSpec(total_memory=10**9, local_memory=10**6, num_workers=2),
                executor=executor,
            )
            try:
                result = mr_approximate_diameter(
                    graph, config=CFG, engine=engine
                )
            finally:
                if executor is not None:
                    executor.close()
        return rounds, result.value

    @pytest.mark.parametrize("resident_mb", [None, 0.001])
    def test_round_counts_match_vector(self, graphs, monkeypatch, resident_mb):
        from repro.mr.executor import make_executor

        want = self._per_round(
            monkeypatch, graphs["gnm"], make_executor("vector")
        )
        got = self._per_round(
            monkeypatch, graphs["gnm"],
            ShardedExecutor(num_shards=2, resident_mb=resident_mb),
        )
        assert sum(want[0]) > 0
        assert got == want



class TestWorkerEnvChecks:
    """Malformed kernel knobs fail up front, before the graph is
    partitioned or any shard opens."""

    @pytest.mark.parametrize(
        "variable, value",
        [
            ("REPRO_KERNEL_IMPL", "natvie"),
            ("REPRO_EMIT_THREADS", "abc"),
            ("REPRO_EMIT_THREADS", "0"),
            ("REPRO_NATIVE_BUILD_TIMEOUT_S", "abc"),
            ("REPRO_NATIVE_BUILD_TIMEOUT_S", "-1"),
        ],
    )
    def test_rejected_before_shards_open(
        self, graphs, monkeypatch, variable, value
    ):
        monkeypatch.setenv(variable, value)
        executor = ShardedExecutor(num_shards=2)
        try:
            with pytest.raises(
                ConfigurationError, match=f"{variable}={value!r}"
            ):
                executor._ensure_workers(graphs["mesh"])
            assert executor._pool is None
            assert executor.partitioned is None
            assert executor.spawn_count == 0
        finally:
            executor.close()


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


class TestInDriverExecution:
    """Shard workers run in the driver: a sharded run starts no process."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_sharded_run_starts_no_process(self, graphs, monkeypatch, shards):
        import multiprocessing
        import os

        # Build (or load) the native library first: a cold build runs
        # the compiler, which is not part of the sharded run.
        native.native_available()

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the sharded backend started a process")

        monkeypatch.setattr(os, "fork", forbidden)
        monkeypatch.setattr(multiprocessing.Process, "start", forbidden)
        reference = mr_approximate_diameter(
            graphs["gnm"], config=CFG.with_(executor="vector")
        )
        result = mr_approximate_diameter(
            graphs["gnm"], config=CFG.with_(executor="sharded", shards=shards)
        )
        assert result.value == reference.value
        assert result.counters.snapshot() == reference.counters.snapshot()


class _StubPool:
    """Stands in for the shard pool: every step reply carries fixed
    per-phase times and no candidates."""

    def __init__(self, times):
        self.times = times

    def broadcast(self, method, per_worker=None):
        if method != "exchange_step":
            return [None] * len(self.times)
        return [
            {
                "updated": 1, "newly": 0, "merged": 2, "emitted": 3,
                "groups": 1, "max_group": 1, "max_group_key": 0,
                "outgoing": [], "times": dict(times),
            }
            for times in self.times
        ]


class TestPhaseTimers:
    """Shards step one after another, so every worker-reported phase is
    booked as the sum over shards and shuffle is the rest of the step."""

    @staticmethod
    def _step(monkeypatch, graph, times, wall):
        import types

        from repro.mr import sharded
        from repro.mr.engine import MREngine
        from repro.mr.model import MRSpec

        executor = ShardedExecutor(num_shards=len(times))
        executor._pool = _StubPool(times)
        executor._graph = graph
        engine = MREngine(
            MRSpec(total_memory=10**9, local_memory=10**6,
                   num_workers=len(times)),
            executor=executor,
        )
        state = executor.growing_state(graph, engine)
        clock = iter((100.0, 100.0 + wall))
        fake_time = types.SimpleNamespace(perf_counter=lambda: next(clock))
        monkeypatch.setattr(sharded, "time", fake_time)
        state.step(engine, 1.0)
        executor._pool = None
        return engine

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_phases_sum_over_shards(self, graphs, monkeypatch, shards):
        times = [
            {"emit": 0.5 * (k + 1), "reduce": 0.25 * (k + 1),
             "apply": 0.125 * (k + 1)}
            for k in range(shards)
        ]
        scale = shards * (shards + 1) / 2  # sum of k + 1
        engine = self._step(monkeypatch, graphs["mesh"], times, wall=40.0)
        timings = engine.counters.timings
        assert timings["emit"] == pytest.approx(0.5 * scale)
        assert timings["reduce"] == pytest.approx(0.25 * scale)
        assert timings["apply"] == pytest.approx(0.125 * scale)
        assert timings["shuffle"] == pytest.approx(40.0 - 0.875 * scale)
        # The comparable figures do not depend on the timers.
        assert engine.counters.rounds == 1
        assert engine.counters.updates == shards
        assert engine.simulated_time == 3  # busiest shard: merged + groups

    def test_shuffle_never_negative(self, graphs, monkeypatch):
        times = [{"emit": 1.0, "reduce": 1.0, "apply": 1.0}] * 2
        engine = self._step(monkeypatch, graphs["mesh"], times, wall=5.0)
        assert engine.counters.timings["shuffle"] == 0.0
        assert engine.counters.timings["emit"] == pytest.approx(2.0)


class TestResidency:
    """Without a budget every shard stays mapped; a budget bounds how
    many are mapped together without changing any result."""

    def test_no_budget_keeps_every_shard_mapped(self, graphs, monkeypatch):
        monkeypatch.delenv(RESIDENT_ENV, raising=False)
        executor, workers = _shard_workers(graphs["gnm"], 3)
        try:
            from repro.mr.engine import MREngine
            from repro.mr.model import MRSpec

            engine = MREngine(
                MRSpec(total_memory=10**9, local_memory=10**6, num_workers=3),
                executor=executor,
            )
            mr_cluster(graphs["gnm"], config=CFG, engine=engine)
            assert all(w.graph_open for w in workers)
            assert executor.max_open_shards == 3
            sizes = [
                os.path.getsize(p) for p in executor.partitioned.shard_paths
            ]
            assert executor.max_resident_bytes == sum(sizes)
        finally:
            executor.close()

    def test_budget_below_all_shards_maps_two(self, graphs, tmp_path):
        """A budget one byte short of all three shards holds any two."""
        from repro.mr.engine import MREngine
        from repro.mr.model import MRSpec

        path = tmp_path / "gnm.rcsr"
        write_store(graphs["gnm"], path)
        stored = open_store(path)
        probe = ShardedExecutor(num_shards=3)
        probe._ensure_workers(stored)
        total = sum(
            os.path.getsize(p) for p in probe.partitioned.shard_paths
        )
        probe.close()
        reference = mr_cluster(
            graphs["gnm"], config=CFG.with_(executor="vector")
        )
        executor = ShardedExecutor(
            num_shards=3, resident_mb=(total - 1) / (1024 * 1024)
        )
        engine = MREngine(
            MRSpec(total_memory=10**9, local_memory=10**6, num_workers=3),
            executor=executor,
        )
        try:
            result = mr_cluster(stored, config=CFG, engine=engine)
            assert_identical(result, reference)
            assert executor.max_open_shards == 2
            assert executor.max_resident_bytes <= total - 1
        finally:
            executor.close()
