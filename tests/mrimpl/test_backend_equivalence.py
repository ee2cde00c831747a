"""Backend equivalence: vector / sharded / the per-key oracle agree exactly.

The drivers run over the growing state the engine's executor provides
(array batch rounds on ``vector``/``sharded``, literal pair rounds on
the oracle of ``tests/oracle/mr_literal.py``) but the algorithm — RNG
stream, growing-step timing, tie-breaks, Contract — is the same, so from one seed every backend must return the
*identical* clustering and diameter estimate, with identical round and
growing-step counts.  This is the acceptance bar of the vectorized
shuffle: speed may differ, results may not.
"""

import numpy as np
import pytest
from mr_literal import literal_engine

from repro.core.cluster import cluster
from repro.core.cluster2 import cluster2
from repro.core.config import ClusterConfig
from repro.core.diameter import approximate_diameter
from repro.generators import gnm_random_graph, mesh, path_graph
from repro.mrimpl.cluster2_mr import mr_cluster2
from repro.mrimpl.cluster_mr import mr_cluster
from repro.mrimpl.diameter_mr import mr_approximate_diameter
from repro.mrimpl.growing_mr import default_engine
from repro.mrimpl.quotient_mr import mr_quotient_graph

BACKENDS = ("literal", "vector", "sharded")


def run_on(driver, graph, cfg, backend):
    """``driver`` on a named backend, or on the per-key oracle."""
    if backend == "literal":
        return driver(graph, config=cfg, engine=literal_engine(graph))
    return driver(graph, config=cfg.with_(executor=backend))


def assert_same_clustering(a, b):
    assert np.array_equal(a.center, b.center)
    assert np.allclose(a.dist_to_center, b.dist_to_center)
    assert a.num_clusters == b.num_clusters
    assert a.radius == pytest.approx(b.radius)
    assert a.delta_end == pytest.approx(b.delta_end)


@pytest.fixture(scope="module")
def graphs():
    return {
        "mesh": mesh(8, seed=7),
        "gnm": gnm_random_graph(50, 120, seed=9, connect=True),
        "path": path_graph(30, weights="uniform", seed=10),
    }


class TestClusterBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", ["mesh", "gnm", "path"])
    def test_matches_vectorized_core(self, graphs, name, backend):
        cfg = ClusterConfig(tau=3, seed=1, stage_threshold_factor=1.0)
        assert_same_clustering(
            cluster(graphs[name], config=cfg),
            run_on(mr_cluster, graphs[name], cfg, backend),
        )

    def test_round_counts_identical(self, graphs):
        cfg = ClusterConfig(tau=4, seed=2, stage_threshold_factor=1.0)
        results = {
            b: run_on(mr_cluster, graphs["gnm"], cfg, b) for b in BACKENDS
        }
        reference = results["literal"]
        for backend, result in results.items():
            assert_same_clustering(reference, result)
            assert result.counters.rounds == reference.counters.rounds
            assert (
                result.counters.growing_steps
                == reference.counters.growing_steps
            )
            assert result.counters.updates == reference.counters.updates

    def test_disconnected(self, disconnected_graph):
        cfg = ClusterConfig(tau=1, seed=7, stage_threshold_factor=0.1)
        for backend in BACKENDS:
            assert_same_clustering(
                cluster(disconnected_graph, config=cfg),
                run_on(mr_cluster, disconnected_graph, cfg, backend),
            )

    def test_star_hub(self, star7):
        cfg = ClusterConfig(tau=1, seed=6, stage_threshold_factor=0.1)
        for backend in BACKENDS:
            assert_same_clustering(
                cluster(star7, config=cfg),
                run_on(mr_cluster, star7, cfg, backend),
            )


class TestCluster2Backends:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_vectorized_core(self, graphs, backend):
        cfg = ClusterConfig(tau=3, seed=1, stage_threshold_factor=1.0)
        assert_same_clustering(
            cluster2(graphs["mesh"], config=cfg),
            run_on(mr_cluster2, graphs["mesh"], cfg, backend),
        )


class TestQuotientHotKey:
    """A popular cluster pair can own far more crossing edges than any
    node has neighbours; the quotient reduce must map-side combine or it
    overflows an ``M_L`` sized for the growing rounds (regression: this
    raised ``MemoryLimitExceeded`` on every backend).  The oracle's
    engine runs the same ``round_batch``, so only the backends are
    parametrized."""

    def _bipartite_two_clusters(self):
        from repro.core.cluster import Clustering
        from repro.graph.builder import from_edge_list
        from repro.mr.metrics import Counters

        left, right = 20, 20
        edges = [
            (i, left + j, 1.0 + (i + j) % 3)
            for i in range(left)
            for j in range(right)
        ]
        graph = from_edge_list(edges, left + right)
        center = np.array([0] * left + [left] * right, dtype=np.int64)
        clustering = Clustering(
            center=center,
            dist_to_center=np.zeros(left + right),
            centers=np.array([0, left], dtype=np.int64),
            radius=0.0,
            delta_end=1.0,
            tau=2,
            counters=Counters(),
        )
        return graph, clustering

    @pytest.mark.parametrize("backend", ("vector", "sharded"))
    def test_hot_cluster_pair_fits_via_combining(self, backend):
        graph, clustering = self._bipartite_two_clusters()
        # All 400 edges cross the single cluster pair; max degree is 20,
        # so the growing-round M_L envelope is far below the raw group.
        engine = default_engine(graph, executor=backend)
        try:
            quotient, centers = mr_quotient_graph(engine, graph, clustering)
        finally:
            if hasattr(engine.executor, "close"):
                engine.executor.close()
        assert quotient.num_nodes == 2
        assert quotient.num_edges == 1
        assert quotient.weights.min() == pytest.approx(1.0)
        assert engine.counters.rounds == 1


class TestQuotientBackends:
    @staticmethod
    def _tied_grid():
        """Unit-weight grid clustered on the core path: every crossing
        edge of a cluster pair has an integer reweighted value, so the
        min per pair is reached by several tied copies."""
        from repro.graph.builder import from_edge_list

        side = 9
        edges = [
            (r * side + c, r * side + c + 1, 1.0)
            for r in range(side)
            for c in range(side - 1)
        ] + [
            (r * side + c, (r + 1) * side + c, 1.0)
            for r in range(side - 1)
            for c in range(side)
        ]
        graph = from_edge_list(edges, side * side)
        cfg = ClusterConfig(tau=4, seed=3, stage_threshold_factor=1.0)
        return graph, cluster(graph, config=cfg)

    @pytest.mark.parametrize("case", ["tied", "hot-pair"])
    def test_matches_core_quotient_and_accounting(self, case):
        from repro.core.quotient import quotient_graph

        if case == "tied":
            graph, clustering = self._tied_grid()
        else:
            graph, clustering = TestQuotientHotKey()._bipartite_two_clusters()
        core_q, core_centers = quotient_graph(graph, clustering)
        accounting = {}
        for backend in ("vector", "sharded"):
            engine = default_engine(graph, executor=backend, num_workers=2)
            try:
                q, centers = mr_quotient_graph(engine, graph, clustering)
            finally:
                if hasattr(engine.executor, "close"):
                    engine.executor.close()
            assert np.array_equal(centers, core_centers)
            for name in ("indptr", "indices", "weights"):
                assert np.array_equal(getattr(q, name), getattr(core_q, name))
            accounting[backend] = (
                engine.counters.rounds,
                engine.counters.messages,
                engine.simulated_time,
            )
        # One round whose messages are the combined pairs: one per
        # quotient edge on every backend.
        assert {a[:2] for a in accounting.values()} == {(1, core_q.num_edges)}
        # The batch backends share the packed keys and hash partitioner.
        assert accounting["vector"] == accounting["sharded"]


class TestDiameterBackends:
    def test_estimates_and_rounds_identical(self, graphs):
        cfg = ClusterConfig(seed=3, stage_threshold_factor=1.0, tau=4)
        reference = approximate_diameter(graphs["gnm"], config=cfg)
        results = {
            b: run_on(mr_approximate_diameter, graphs["gnm"], cfg, b)
            for b in BACKENDS
        }
        rounds = {b: r.counters.rounds for b, r in results.items()}
        assert len(set(rounds.values())) == 1
        for result in results.values():
            assert result.value == pytest.approx(reference.value)
            assert result.radius == pytest.approx(reference.radius)
            assert result.num_clusters == reference.num_clusters

    def test_cluster2_dispatch(self, graphs):
        cfg = ClusterConfig(
            seed=5, stage_threshold_factor=1.0, tau=3, use_cluster2=True
        )
        reference = approximate_diameter(graphs["mesh"], config=cfg)
        for backend in BACKENDS:
            result = run_on(mr_approximate_diameter, graphs["mesh"], cfg, backend)
            assert result.value == pytest.approx(reference.value)
