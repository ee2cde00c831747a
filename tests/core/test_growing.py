"""Tests for the Δ-growing step — semantics, tie-breaking, counters."""

import numpy as np
import pytest

from repro.core.growing import delta_growing_step, partial_growth
from repro.core.state import NO_CENTER, ClusterState
from repro.generators import rmat
from repro.graph.builder import from_edge_list
from repro.graph.ops import largest_connected_component
from repro.mr import native
from repro.mr.metrics import Counters


def fresh_state(n, centers):
    s = ClusterState(n)
    s.start_stage(np.array(centers, dtype=np.int64))
    return s


class TestSingleStep:
    def test_relaxes_light_edge(self, weighted_path):
        s = fresh_state(5, [0])
        upd, newly = delta_growing_step(weighted_path, s, 5.0, Counters())
        assert 1 in upd
        assert s.dist[1] == 1.0
        assert s.center[1] == 0
        assert newly == 1

    def test_respects_delta_threshold(self, weighted_path):
        """Edges are only crossed if d_u + w ≤ Δ."""
        s = fresh_state(5, [0])
        delta_growing_step(weighted_path, s, 0.5, Counters())
        assert s.center[1] == NO_CENTER  # weight 1 > Δ

    def test_heavy_edges_never_scanned(self):
        g = from_edge_list([(0, 1, 10.0), (0, 2, 1.0)], 3)
        s = fresh_state(3, [0])
        c = Counters()
        delta_growing_step(g, s, 2.0, c)
        assert s.center[1] == NO_CENTER
        assert s.center[2] == 0
        # Only the light arc counts as a message.
        assert c.messages == 1

    def test_cumulative_cap(self):
        """A path may be reachable hop-by-hop but only up to total Δ."""
        g = from_edge_list([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], 4)
        s = fresh_state(4, [0])
        c = Counters()
        partial_growth(g, s, 2.0, c)
        assert s.dist[1] == 1.0
        assert s.dist[2] == 2.0
        assert s.center[3] == NO_CENTER  # 3 > Δ

    def test_tiebreak_smaller_distance_wins(self):
        g = from_edge_list([(0, 2, 3.0), (1, 2, 1.0)], 3)
        s = fresh_state(3, [0, 1])
        delta_growing_step(g, s, 5.0, Counters())
        assert s.center[2] == 1
        assert s.dist[2] == 1.0

    def test_tiebreak_smaller_center_wins_on_equal_distance(self):
        g = from_edge_list([(2, 1, 1.0), (0, 1, 1.0)], 3)
        s = fresh_state(3, [0, 2])
        delta_growing_step(g, s, 5.0, Counters())
        assert s.center[1] == 0

    def test_synchronous_semantics(self):
        """Updates in one step must not cascade within the same step."""
        g = from_edge_list([(0, 1, 1.0), (1, 2, 1.0)], 3)
        s = fresh_state(3, [0])
        delta_growing_step(g, s, 10.0, Counters())
        assert s.center[1] == 0
        assert s.center[2] == NO_CENTER  # needs a second step

    def test_no_update_to_frozen(self):
        g = from_edge_list([(0, 1, 1.0)], 2)
        s = fresh_state(2, [1])
        s.freeze_assigned()
        s.start_stage(np.array([0]))
        delta_growing_step(g, s, 10.0, Counters())
        assert s.center[1] == 1  # frozen keeps its old assignment

    def test_frozen_propagates_as_zero(self):
        """Contract semantics: boundary edges re-attach to the center."""
        g = from_edge_list([(0, 1, 1.0), (1, 2, 1.0)], 3)
        s = fresh_state(3, [0])
        # Grow 0's cluster over node 1, then freeze (contract).
        partial_growth(g, s, 1.5, Counters())
        s.freeze_assigned()
        s.start_stage(np.array([], dtype=np.int64))
        # Next stage: node 2 is 1 hop from frozen node 1; effective source
        # distance of 1 is 0, so d_2 = w(1,2) = 1 and center = 0.
        delta_growing_step(g, s, 1.5, Counters())
        assert s.center[2] == 0
        assert s.dist[2] == 1.0
        # But the accumulated distance reflects the true path 0-1-2.
        assert s.dist_acc[2] == pytest.approx(2.0)

    def test_improvement_required(self):
        g = from_edge_list([(0, 1, 1.0)], 2)
        s = fresh_state(2, [0])
        delta_growing_step(g, s, 5.0, Counters())
        upd, _ = delta_growing_step(g, s, 5.0, Counters())
        assert upd.size == 0  # no strictly better candidate

    def test_source_subset_respected(self):
        g = from_edge_list([(0, 1, 1.0), (2, 3, 1.0)], 4)
        s = fresh_state(4, [0, 2])
        delta_growing_step(g, s, 5.0, Counters(), sources=np.array([0]))
        assert s.center[1] == 0
        assert s.center[3] == NO_CENTER  # 2 was not in the source set

    def test_counter_accounting(self):
        g = from_edge_list([(0, 1, 1.0), (0, 2, 1.0)], 3)
        s = fresh_state(3, [0])
        c = Counters()
        delta_growing_step(g, s, 5.0, c)
        assert c.rounds == 1
        assert c.growing_steps == 1
        assert c.messages == 2
        assert c.updates == 2
        assert c.work == 4


class TestPartialGrowth:
    def test_runs_to_fixpoint(self, weighted_path):
        s = fresh_state(5, [0])
        result = partial_growth(weighted_path, s, 100.0, Counters())
        assert result.reached_fixpoint
        assert np.all(s.center == 0)
        # Distances equal true shortest paths when Δ is ample.
        assert s.dist.tolist() == [0.0, 1.0, 3.0, 6.0, 10.0]

    def test_fixpoint_within_ell_steps_plus_one(self):
        """Bellman–Ford argument: ℓ_Δ steps suffice (+1 to detect quiescence)."""
        g = from_edge_list([(i, i + 1, 1.0) for i in range(6)], 7)
        s = fresh_state(7, [0])
        result = partial_growth(g, s, 100.0, Counters())
        assert result.steps <= 7

    def test_cover_target_early_exit(self):
        g = from_edge_list([(i, i + 1, 1.0) for i in range(9)], 10)
        s = fresh_state(10, [0])
        result = partial_growth(g, s, 100.0, Counters(), cover_target=3)
        assert not result.reached_fixpoint
        assert result.newly_covered >= 3
        # Growth stopped early: far end untouched.
        assert s.center[9] == NO_CENTER

    def test_step_cap(self):
        g = from_edge_list([(i, i + 1, 1.0) for i in range(9)], 10)
        s = fresh_state(10, [0])
        result = partial_growth(g, s, 100.0, Counters(), step_cap=2)
        assert result.hit_cap
        assert result.steps == 2

    def test_counts_newly_covered(self, star7):
        s = fresh_state(7, [0])
        result = partial_growth(star7, s, 10.0, Counters())
        assert result.newly_covered == 6


class TestDistanceInvariants:
    def test_dist_upper_bounds_true_distance(self, random_connected):
        """d_u never underestimates dist(c_u, u) (relaxation soundness)."""
        from repro.baselines.dijkstra import dijkstra_sssp

        s = fresh_state(random_connected.num_nodes, [0, 7, 13])
        partial_growth(random_connected, s, 0.6, Counters())
        assigned = np.flatnonzero(s.assigned_mask())
        for center in (0, 7, 13):
            true = dijkstra_sssp(random_connected, center)
            mine = assigned[s.center[assigned] == center]
            assert np.all(s.dist[mine] >= true[mine] - 1e-12)

    def test_dist_at_most_delta(self, random_connected):
        s = fresh_state(random_connected.num_nodes, [0, 5])
        delta = 0.8
        partial_growth(random_connected, s, delta, Counters())
        assigned = s.assigned_mask()
        assert np.all(s.dist[assigned] <= delta + 1e-12)


def random_cluster_state(n, rng, iteration):
    """A mid-stage state: most nodes assigned, some frozen in earlier
    iterations (their effective distance rescales under Contract2)."""
    s = ClusterState(n)
    assigned = rng.random(n) < 0.7
    s.center[assigned] = rng.integers(0, n, int(assigned.sum()))
    s.dist[assigned] = rng.random(int(assigned.sum()))
    s.dist_acc[assigned] = rng.random(int(assigned.sum()))
    s.frozen[:] = assigned & (rng.random(n) < 0.3)
    s.frozen_iter[:] = rng.integers(0, iteration + 1, n)
    return s


class TestTiers:
    """The native tier's fused push step computes exactly what the
    NumPy cascade computes: updates, state and counters."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("rescale", [0.0, 0.05])
    @pytest.mark.parametrize("frontier", [False, True])
    def test_native_equals_py(self, seed, rescale, frontier):
        graph = largest_connected_component(
            rmat(8, edge_factor=6, seed=seed)
        )[0]
        n = graph.num_nodes
        rng = np.random.default_rng(seed)
        base = random_cluster_state(n, rng, iteration=4)
        sources = np.sort(rng.choice(n, size=n // 3, replace=False))
        runs = ["py"]
        if native.native_available():
            runs.append("native")
        results = []
        for impl in runs:
            state = ClusterState(n)
            for name in ("center", "dist", "dist_acc", "frozen", "frozen_iter"):
                getattr(state, name)[:] = getattr(base, name)
            counters = Counters()
            with native.impl_overrides(impl, None):
                upd, newly = delta_growing_step(
                    graph, state, 0.8, counters,
                    sources=sources if frontier else None,
                    iteration=4, rescale=rescale,
                )
            results.append((
                upd, newly, state.center, state.dist, state.dist_acc,
                counters.snapshot(),
            ))
        ref = results[0]
        assert len(ref[0])
        for other in results[1:]:
            np.testing.assert_array_equal(other[0], ref[0])
            assert other[1] == ref[1]
            for got, want in zip(other[2:5], ref[2:5]):
                np.testing.assert_array_equal(got, want)
            assert other[5] == ref[5]
