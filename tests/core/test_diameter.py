"""Tests for CL-DIAM (approximate_diameter)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ClusterConfig
from repro.core.diameter import approximate_diameter, quotient_diameter
from repro.errors import ConfigurationError
from repro.exact import eccentricity, exact_diameter
from repro.generators import (
    cycle_graph,
    gnm_random_graph,
    mesh,
    path_graph,
    powerlaw_cluster_like,
    star_graph,
)
from repro.graph.builder import from_edge_list, from_edges
from repro.graph.ops import disjoint_union


class TestConservativeness:
    """Φ_approx ≥ Φ(G) must hold on every input — the paper's §4 claim."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_graphs(self, seed):
        g = gnm_random_graph(80, 200, seed=seed, connect=True)
        est = approximate_diameter(g, tau=5, config=ClusterConfig(seed=seed))
        assert est.value >= exact_diameter(g) - 1e-9

    def test_mesh(self):
        g = mesh(16, seed=4)
        est = approximate_diameter(g, tau=6, config=ClusterConfig(seed=4))
        assert est.value >= exact_diameter(g) - 1e-9

    def test_powerlaw(self):
        g = powerlaw_cluster_like(150, attach=3, seed=5)
        est = approximate_diameter(g, tau=6, config=ClusterConfig(seed=5))
        assert est.value >= exact_diameter(g) - 1e-9

    def test_path(self):
        g = path_graph(40, weights="uniform", seed=6)
        est = approximate_diameter(
            g, tau=3, config=ClusterConfig(seed=6, stage_threshold_factor=0.5)
        )
        assert est.value >= exact_diameter(g) - 1e-9

    def test_with_cluster2(self):
        g = gnm_random_graph(60, 150, seed=7, connect=True)
        est = approximate_diameter(
            g,
            tau=4,
            config=ClusterConfig(seed=7, use_cluster2=True, stage_threshold_factor=1.0),
        )
        assert est.value >= exact_diameter(g) - 1e-9


class TestApproximationQuality:
    """The experiments report ratios < 1.4; at small scale grant slack but
    catch regressions that blow the estimate up."""

    def test_mesh_ratio(self):
        g = mesh(24, seed=8)
        est = approximate_diameter(g, tau=8, config=ClusterConfig(seed=8))
        ratio = est.value / exact_diameter(g)
        assert ratio < 2.0

    def test_social_like_ratio(self):
        g = powerlaw_cluster_like(300, attach=4, seed=9)
        est = approximate_diameter(g, tau=8, config=ClusterConfig(seed=9))
        ratio = est.value / exact_diameter(g)
        assert ratio < 2.5

    def test_all_singletons_is_exact(self, weighted_path):
        """τ ≥ n: quotient = G, radius 0 ⇒ the estimate is exact."""
        est = approximate_diameter(weighted_path, tau=100)
        assert est.value == pytest.approx(exact_diameter(weighted_path))
        assert est.radius == 0.0


class TestResultFields:
    def test_fields_consistent(self, small_mesh):
        est = approximate_diameter(small_mesh, tau=4, config=ClusterConfig(seed=10))
        assert est.value == pytest.approx(est.quotient_diameter + 2 * est.radius)
        assert est.num_clusters == est.clustering.num_clusters
        assert est.counters.rounds > 0

    def test_single_cluster_estimate_is_2r(self, star7):
        cfg = ClusterConfig(seed=11, stage_threshold_factor=0.1)
        est = approximate_diameter(star7, tau=1, config=cfg)
        if est.num_clusters == 1:
            assert est.value == pytest.approx(2 * est.radius)

    def test_disconnected_graph(self, disconnected_graph):
        est = approximate_diameter(
            disconnected_graph,
            tau=1,
            config=ClusterConfig(seed=12, stage_threshold_factor=0.1),
        )
        # Per-component diameter definition: estimate covers the largest
        # intra-component distance.
        assert est.value >= exact_diameter(disconnected_graph) - 1e-9
        assert np.isfinite(est.value)


class TestQuotientDiameterModes:
    def test_exact_mode(self, cycle8):
        value, exact = quotient_diameter(cycle8, mode="exact")
        assert exact
        assert value == pytest.approx(4.0)

    def test_sweep_mode_is_upper_bound(self, cycle8):
        value, exact = quotient_diameter(cycle8, mode="sweep")
        assert not exact
        assert value >= 4.0 - 1e-9
        assert value <= 8.0 + 1e-9  # 2·ecc ≤ 2·Φ

    def test_auto_switches_on_size(self):
        g = cycle_graph(30)
        v_small, exact_small = quotient_diameter(g, mode="auto", exact_limit=100)
        v_big, exact_big = quotient_diameter(g, mode="auto", exact_limit=10)
        assert exact_small and not exact_big
        assert v_big >= v_small - 1e-9

    def test_trivial_quotients(self):
        assert quotient_diameter(from_edge_list([], 1)) == (0.0, True)
        assert quotient_diameter(from_edge_list([], 3)) == (0.0, True)

    def test_unknown_mode(self, cycle8):
        with pytest.raises(ConfigurationError):
            quotient_diameter(cycle8, mode="bogus")

    def test_sweep_mode_keeps_conservativeness(self):
        g = gnm_random_graph(100, 250, seed=13, connect=True)
        cfg = ClusterConfig(seed=13, quotient_mode="sweep")
        est = approximate_diameter(g, tau=6, config=cfg)
        assert est.value >= exact_diameter(g) - 1e-9


class TestDisconnectedQuotients:
    """The sweep must bound every component, not just the one holding
    the globally highest-degree node."""

    @staticmethod
    def _path_star_pairs():
        # A unit-weight 400-node path (diameter 399), a 50-leaf star
        # (its centre has the top degree) and 3,200 disjoint edges:
        # > 3,000 clusters, so "auto" takes the sweep.
        u = list(range(399)) + [400] * 50
        v = list(range(1, 400)) + list(range(401, 451))
        u += range(451, 451 + 6400, 2)
        v += range(452, 452 + 6400, 2)
        return from_edges(np.array(u), np.array(v), np.ones(len(u)), 6851)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sweep_covers_every_component(self, seed):
        g = self._path_star_pairs()
        est = approximate_diameter(g, config=ClusterConfig(seed=seed))
        assert not est.quotient_exact
        assert est.value >= 399.0

    def test_connected_quotient_keeps_the_argmax_start(self):
        g = gnm_random_graph(60, 150, seed=14, connect=True)
        start = int(np.argmax(g.degrees))
        value, _ = quotient_diameter(g, mode="sweep")
        assert value == 2.0 * eccentricity(g, start)

    @staticmethod
    def _component(kind, k, seed):
        if kind == "path":
            return path_graph(k, weights="uniform", seed=seed)
        if kind == "star":
            return star_graph(k + 1)
        return gnm_random_graph(
            k, min(3 * k, k * (k - 1) // 2), seed=seed, connect=True
        )

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["path", "star", "gnm"]), st.integers(1, 30)
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(0, 4),
        st.integers(0, 5000),
        st.integers(1, 8),
        st.sampled_from(["sweep", "auto"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_estimate_never_undershoots(self, parts, isolated, seed, tau, mode):
        graphs = [
            self._component(kind, k, seed + i)
            for i, (kind, k) in enumerate(parts)
        ]
        graphs += [from_edge_list([], 1)] * isolated
        g = disjoint_union(*graphs)
        cfg = ClusterConfig(seed=seed, quotient_mode=mode)
        est = approximate_diameter(g, tau=tau, config=cfg)
        assert est.value >= exact_diameter(g) - 1e-9
