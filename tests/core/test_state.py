"""Tests for the per-node state and frozen-mask contraction bookkeeping."""

import numpy as np
import pytest

from repro.core.state import NO_CENTER, ClusterState


class TestInit:
    def test_blank(self):
        s = ClusterState(4)
        assert np.all(s.center == NO_CENTER)
        assert np.all(np.isinf(s.dist))
        assert not s.frozen.any()
        assert s.num_uncovered() == 4

    def test_masks(self):
        s = ClusterState(3)
        assert not s.assigned_mask().any()
        assert s.uncovered_mask().all()


class TestStartStage:
    def test_installs_centers(self):
        s = ClusterState(5)
        s.start_stage(np.array([1, 3]))
        assert s.center[1] == 1 and s.center[3] == 3
        assert s.dist[1] == 0.0 and s.dist_acc[3] == 0.0
        assert s.center[0] == NO_CENTER

    def test_resets_nonfrozen_only(self):
        s = ClusterState(4)
        s.start_stage(np.array([0]))
        s.dist[1] = 0.5
        s.center[1] = 0
        s.dist_acc[1] = 0.5
        s.freeze_assigned()
        # Node 2 gets a partial assignment that should be wiped.
        s.center[2] = 0
        s.dist[2] = 0.7
        s.start_stage(np.array([3]))
        assert s.center[2] == NO_CENTER
        assert np.isinf(s.dist[2])
        # Frozen nodes keep everything.
        assert s.center[1] == 0
        assert s.dist[1] == 0.5

    def test_frozen_center_rejected(self):
        s = ClusterState(3)
        s.start_stage(np.array([0]))
        s.freeze_assigned()
        with pytest.raises(ValueError):
            s.start_stage(np.array([0]))


class TestFreeze:
    def test_freeze_returns_new_ids(self):
        s = ClusterState(4)
        s.start_stage(np.array([0, 2]))
        newly = s.freeze_assigned(iteration=3)
        assert sorted(newly.tolist()) == [0, 2]
        assert s.frozen_iter[0] == 3

    def test_freeze_idempotent_on_old(self):
        s = ClusterState(3)
        s.start_stage(np.array([0]))
        s.freeze_assigned(1)
        s.start_stage(np.array([1]))
        newly = s.freeze_assigned(2)
        assert newly.tolist() == [1]
        assert s.frozen_iter[0] == 1  # unchanged


class TestEffectiveDist:
    def test_contract_semantics(self):
        """Frozen nodes propagate as distance 0 under CLUSTER."""
        s = ClusterState(3)
        s.start_stage(np.array([0]))
        s.dist[1] = 0.8
        s.center[1] = 0
        s.freeze_assigned()
        eff = s.effective_dist()
        assert eff[0] == 0.0
        assert eff[1] == 0.0
        assert np.isinf(eff[2])

    def test_contract2_rescaling(self):
        """Frozen nodes lose 2·R_CL of effective distance per iteration."""
        s = ClusterState(2)
        s.start_stage(np.array([0]))
        s.dist[1] = 3.0
        s.center[1] = 0
        s.freeze_assigned(iteration=1)
        eff = s.effective_dist(iteration=3, rescale=2.0)
        # 3.0 - 2.0 * (3 - 1) = -1.0 (negative is correct: see state.py).
        assert eff[1] == pytest.approx(-1.0)

    def test_active_nonfrozen_uses_own_dist(self):
        s = ClusterState(2)
        s.start_stage(np.array([0]))
        s.dist[1] = 0.4
        s.center[1] = 0
        eff = s.effective_dist()
        assert eff[1] == 0.4


class TestRadius:
    def test_empty(self):
        assert ClusterState(3).radius() == 0.0

    def test_max_dacc(self):
        s = ClusterState(3)
        s.start_stage(np.array([0]))
        s.center[1] = 0
        s.dist_acc[1] = 2.5
        assert s.radius() == 2.5

