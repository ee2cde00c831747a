"""Failure injection and extreme-input robustness tests.

These tests steer the algorithms into their guard rails: adversarial
weight ranges, memory-starved MR engines, saturated parameters — checking
that the library fails loudly (typed errors) or degrades to documented
behaviour, never silently corrupting results.
"""

import numpy as np
import pytest

from repro.core.cluster import cluster
from repro.core.config import ClusterConfig
from repro.core.diameter import approximate_diameter
from repro.errors import ConfigurationError, MemoryLimitExceeded
from repro.exact import exact_diameter
from repro.generators import mesh, path_graph
from repro.graph.builder import from_edge_list


class TestExtremeWeights:
    def test_twelve_orders_of_magnitude(self):
        """Weight ratio 1e12: Δ doubling must still terminate quickly
        (geometric growth: ~40 doublings) and stay conservative."""
        edges = [(i, i + 1, 1e-6 if i % 2 else 1e6) for i in range(20)]
        g = from_edge_list(edges, 21)
        est = approximate_diameter(
            g, tau=2, config=ClusterConfig(seed=1, stage_threshold_factor=0.3)
        )
        assert est.value >= exact_diameter(g) - 1e-3

    def test_uniform_tiny_weights(self):
        g = from_edge_list([(i, i + 1, 1e-12) for i in range(10)], 11)
        est = approximate_diameter(
            g, tau=2, config=ClusterConfig(seed=2, stage_threshold_factor=0.3)
        )
        assert est.value >= exact_diameter(g) - 1e-20

    def test_uniform_huge_weights(self):
        g = from_edge_list([(i, i + 1, 1e12) for i in range(10)], 11)
        est = approximate_diameter(
            g, tau=2, config=ClusterConfig(seed=3, stage_threshold_factor=0.3)
        )
        assert est.value >= exact_diameter(g) - 1.0

    def test_max_delta_doublings_guard(self):
        """An absurdly small doubling budget trips the typed error instead
        of looping."""
        g = path_graph(64, weights="unit")
        cfg = ClusterConfig(
            seed=4,
            stage_threshold_factor=0.1,
            gamma=0.05,
            initial_delta=1e-9,
            max_delta_doublings=2,
        )
        with pytest.raises(ConfigurationError):
            cluster(g, tau=1, config=cfg)


class TestMemoryStarvedEngine:
    def test_mr_cluster_raises_on_tiny_ml(self, small_mesh):
        """A local memory too small for a node's adjacency must raise
        MemoryLimitExceeded, not silently truncate."""
        from repro.mr.engine import MREngine
        from repro.mr.model import MRSpec
        from repro.mrimpl.cluster_mr import mr_cluster

        engine = MREngine(MRSpec(total_memory=10**6, local_memory=8))
        with pytest.raises(MemoryLimitExceeded):
            mr_cluster(
                small_mesh,
                config=ClusterConfig(tau=2, seed=5, stage_threshold_factor=1.0),
                engine=engine,
            )

    def test_total_memory_guard(self):
        from repro.mr.batch import group_sum
        from repro.mr.engine import MREngine
        from repro.mr.model import MRSpec

        engine = MREngine(MRSpec(total_memory=16, local_memory=16))
        with pytest.raises(MemoryLimitExceeded):
            engine.round_batch(
                np.arange(100, dtype=np.int64), np.ones(100), group_sum
            )


class TestDegenerateTopologies:
    def test_two_node_components_everywhere(self):
        """A perfect matching: every component has exactly one edge."""
        g = from_edge_list([(2 * i, 2 * i + 1, 1.0) for i in range(10)], 20)
        est = approximate_diameter(
            g, tau=1, config=ClusterConfig(seed=6, stage_threshold_factor=0.1)
        )
        assert est.value >= 1.0 - 1e-9  # per-component diameter = 1

    def test_single_heavy_bridge(self):
        """Two cliques joined by one heavy edge: the bridge dominates the
        diameter and must survive the clustering."""
        edges = []
        for block, base in ((0, 0), (1, 5)):
            for i in range(5):
                for j in range(i + 1, 5):
                    edges.append((base + i, base + j, 0.01))
        edges.append((0, 5, 100.0))
        g = from_edge_list(edges, 10)
        est = approximate_diameter(
            g, tau=2, config=ClusterConfig(seed=7, stage_threshold_factor=0.1)
        )
        true = exact_diameter(g)
        assert true >= 100.0
        assert est.value >= true - 1e-9

    def test_parallel_paths_tie_breaking(self):
        """Many equal-weight parallel routes: determinism must hold."""
        edges = []
        for k in range(1, 9):
            edges.append((0, k, 1.0))
            edges.append((k, 9, 1.0))
        g = from_edge_list(edges, 10)
        cfg = ClusterConfig(seed=8, stage_threshold_factor=0.1)
        a = cluster(g, tau=2, config=cfg)
        b = cluster(g, tau=2, config=cfg)
        assert np.array_equal(a.center, b.center)

    def test_self_loop_heavy_input_rejected_up_front(self):
        from repro.errors import GraphValidationError
        from repro.graph.csr import CSRGraph

        with pytest.raises(GraphValidationError):
            CSRGraph(np.array([0, 1]), np.array([0]), np.array([-1.0]))


class TestParameterSaturation:
    def test_tau_equals_one(self, small_mesh):
        est = approximate_diameter(
            small_mesh,
            tau=1,
            config=ClusterConfig(seed=9, stage_threshold_factor=0.1),
        )
        assert est.value >= exact_diameter(small_mesh) - 1e-9

    def test_gamma_saturated(self, small_mesh):
        """γ so large every uncovered node becomes a center each stage."""
        est = approximate_diameter(
            small_mesh,
            tau=4,
            config=ClusterConfig(seed=10, gamma=1000.0, stage_threshold_factor=1.0),
        )
        assert est.radius == 0.0  # everyone is a center
        assert est.value == pytest.approx(exact_diameter(small_mesh))

    def test_threshold_factor_huge(self, small_mesh):
        """Threshold above n: pure singleton regime, exact result."""
        est = approximate_diameter(
            small_mesh,
            tau=4,
            config=ClusterConfig(seed=11, stage_threshold_factor=1e9),
        )
        assert est.value == pytest.approx(exact_diameter(small_mesh))

    def test_cap_of_one(self, small_mesh):
        est = approximate_diameter(
            small_mesh,
            tau=4,
            config=ClusterConfig(seed=12, growing_step_cap=1, stage_threshold_factor=1.0),
        )
        assert est.value >= exact_diameter(small_mesh) - 1e-9
