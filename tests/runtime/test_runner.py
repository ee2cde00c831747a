"""Tests for the unified runtime dispatcher (registry + runner)."""

import numpy as np
import pytest

from repro.core.config import ClusterConfig
from repro.errors import ConfigurationError
from repro.generators import mesh
from repro.graph.io import write_dimacs
from repro.runtime import REGISTRY, GraphStore, RunResult, run

ALL_ALGORITHMS = (
    "diameter",
    "cluster",
    "cluster2",
    "sssp",
    "eccentricity",
    "components",
    "unweighted-diameter",
)


@pytest.fixture
def graph():
    return mesh(10, seed=6)


class TestRegistry:
    def test_all_algorithms_registered(self):
        assert set(ALL_ALGORITHMS) <= set(REGISTRY.names())

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            REGISTRY.get("no-such-algo")

    def test_duplicate_registration_rejected(self):
        from repro.runtime.registry import AlgorithmSpec

        spec = REGISTRY.get("diameter")
        with pytest.raises(ValueError, match="already registered"):
            REGISTRY.register(
                AlgorithmSpec(name="diameter", summary="dup", fn=spec.fn)
            )


class TestDispatch:
    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_every_algorithm_runs(self, graph, name):
        result = run(name, graph, tau=3, seed=1)
        assert isinstance(result, RunResult)
        assert result.algorithm == name
        assert np.isfinite(result.value)
        assert result.graph is graph
        assert result.elapsed >= 0.0
        assert isinstance(result.snapshot(), dict)

    def test_diameter_matches_direct_call(self, graph):
        from repro.core.diameter import approximate_diameter

        direct = approximate_diameter(
            graph, tau=3,
            config=ClusterConfig(seed=1, stage_threshold_factor=1.0),
        )
        result = run("diameter", graph, tau=3, seed=1)
        assert result.value == direct.value
        assert result.counters.rounds == direct.counters.rounds

    def test_sssp_options(self, graph):
        result = run("sssp", graph, source=3, delta=0.5)
        assert result.metrics["source"] == 3
        assert result.metrics["delta"] == 0.5
        assert result.metrics["reached"] == graph.num_nodes

    def test_explicit_config_wins(self, graph):
        config = ClusterConfig(seed=9, stage_threshold_factor=2.0, tau=2)
        result = run("cluster", graph, config=config)
        assert result.raw.tau == 2

    def test_seed_and_tau_applied_over_config(self, graph):
        config = ClusterConfig(seed=9, stage_threshold_factor=1.0)
        a = run("cluster", graph, config=config, seed=1, tau=3)
        b = run("cluster", graph, tau=3, seed=1)
        assert np.array_equal(a.raw.center, b.raw.center)


class TestExecutorDispatch:
    @pytest.mark.parametrize("executor", ["vector", "sharded"])
    def test_backends_match_core_path(self, graph, executor):
        baseline = run("diameter", graph, tau=3, seed=1)
        kwargs = {"workers": 2} if executor == "sharded" else {}
        result = run(
            "diameter", graph, tau=3, seed=1, executor=executor, **kwargs
        )
        assert result.value == baseline.value
        assert result.executor == executor

    def test_cluster_backends_bit_identical(self, graph):
        core = run("cluster", graph, tau=3, seed=1)
        engine = run("cluster", graph, tau=3, seed=1, executor="vector")
        assert np.array_equal(core.raw.center, engine.raw.center)
        assert np.array_equal(
            core.raw.dist_to_center, engine.raw.dist_to_center
        )

    def test_executor_rejected_when_unsupported(self, graph):
        with pytest.raises(ConfigurationError, match="does not support"):
            run("sssp", graph, executor="vector")

    def test_workers_require_executor(self, graph):
        with pytest.raises(ConfigurationError, match="requires an executor"):
            run("diameter", graph, workers=2)

    def test_bad_worker_count(self, graph):
        with pytest.raises(ConfigurationError, match=">= 1"):
            run("diameter", graph, executor="vector", workers=0)

    def test_unknown_option_rejected(self, graph):
        with pytest.raises(ConfigurationError, match="does not understand"):
            run("diameter", graph, bogus_option=1)


class TestPathDispatch:
    def test_run_from_path_uses_store(self, tmp_path, graph):
        path = tmp_path / "g.gr"
        write_dimacs(graph, path)
        store = GraphStore(cache_dir=tmp_path / "cache")
        r1 = run("diameter", path, tau=3, seed=1, store=store)
        r2 = run("diameter", str(path), tau=3, seed=1, store=store)
        assert r1.value == r2.value
        assert store.conversions == 1
        assert store.hits == 1
        assert r1.graph.is_mmap

    def test_path_and_in_memory_agree(self, tmp_path, graph):
        path = tmp_path / "g.gr"
        write_dimacs(graph, path)
        store = GraphStore(cache_dir=tmp_path / "cache")
        from_path = run("diameter", path, tau=3, seed=1, store=store)
        in_memory = run("diameter", graph, tau=3, seed=1)
        assert from_path.value == in_memory.value
