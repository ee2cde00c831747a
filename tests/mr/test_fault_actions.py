"""The generalized fault plane: ioerror / enospc / corrupt.

``kill:shard=driver`` resume is covered by ``test_fault_recovery``; this
suite exercises the data-plane actions — parse validation and the
store-write and checkpoint-write hook points.
"""

from __future__ import annotations

import errno

import numpy as np
import pytest

from repro.core.config import ClusterConfig
from repro.errors import CorruptArtifact
from repro.generators import mesh
from repro.graph.serialize import open_store, verify_store, write_store
from repro.mr.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    get_fault_plan,
    reset_fault_plan,
    store_write_ordinal,
)
from repro.mr.metrics import Counters
from repro.runtime.checkpoint import CheckpointPolicy, RunCheckpointer

CFG = ClusterConfig(tau=3, seed=1, stage_threshold_factor=1.0)


def arm_plan(monkeypatch, plan):
    monkeypatch.setenv(FAULT_PLAN_ENV, plan)
    reset_fault_plan()


@pytest.fixture(autouse=True)
def _fresh_plan(monkeypatch):
    """Never let a consumed plan (or ordinal counter) leak across tests."""
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    reset_fault_plan()
    yield
    reset_fault_plan()


# --------------------------------------------------------------------- #
# grammar
# --------------------------------------------------------------------- #


class TestPlanGrammar:
    @pytest.mark.parametrize(
        "raw",
        [
            "explode:shard=1,round=2",          # unknown action
            "ioerror:target=disk,round=1",      # unknown target
            "ioerror:round=1",                  # missing target
            "corrupt:target=store",             # missing round
            "kill:round=3",                     # missing shard
            "kill:shard=driver,round=2,color=red",  # unknown field
            # Shard workers run in the driver: no per-worker kill, and
            # no per-worker stall to trip a deadline on.
            "kill:shard=1,round=2",
            "kill:shard=driver,round=9;kill:shard=0,round=1",
            "delay:shard=1,round=3,seconds=0.5",
        ],
    )
    def test_invalid_plans_rejected(self, raw):
        with pytest.raises(ValueError):
            FaultPlan(raw)

    def test_mixed_plan_parses(self):
        plan = FaultPlan(
            "kill:shard=driver,round=9;"
            "enospc:target=store,round=1;"
            "corrupt:target=ckpt,round=4"
        )
        assert plan.driver_kill(8) is False  # not yet
        assert plan.io_fault("store", 1) == "enospc"
        assert plan.corrupt_fault("ckpt", 4)
        assert plan.driver_kill(9)
        # Every entry is one-shot.
        assert plan.io_fault("store", 1) is None
        assert plan.corrupt_fault("ckpt", 4) is False
        assert plan.driver_kill(9) is False

    def test_plan_reparsed_on_env_change(self, monkeypatch):
        arm_plan(monkeypatch, "kill:shard=driver,round=1")
        first = get_fault_plan()
        assert first.driver_kill(1)
        monkeypatch.setenv(FAULT_PLAN_ENV, "kill:shard=driver,round=2")
        second = get_fault_plan()
        assert second is not first
        assert second.driver_kill(2)


# --------------------------------------------------------------------- #
# store-write faults
# --------------------------------------------------------------------- #


class TestStoreWriteFaults:
    @pytest.mark.parametrize(
        "action,expected_errno",
        [("enospc", errno.ENOSPC), ("ioerror", errno.EIO)],
    )
    def test_io_fault_aborts_cleanly(
        self, tmp_path, monkeypatch, action, expected_errno
    ):
        graph = mesh(6, seed=1)
        arm_plan(monkeypatch, f"{action}:target=store,round=1")
        target = tmp_path / "g.rcsr"
        with pytest.raises(OSError) as excinfo:
            write_store(graph, target)
        assert excinfo.value.errno == expected_errno
        # Nothing partial: no final file, no temp debris.
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_ordinal_targets_the_nth_write(self, tmp_path, monkeypatch):
        graph = mesh(6, seed=1)
        arm_plan(monkeypatch, "ioerror:target=store,round=2")
        write_store(graph, tmp_path / "first.rcsr")  # ordinal 1: clean
        with pytest.raises(OSError):
            write_store(graph, tmp_path / "second.rcsr")
        assert store_write_ordinal() == 2
        # Consumed: the third write goes through.
        write_store(graph, tmp_path / "third.rcsr")
        assert open_store(tmp_path / "third.rcsr") == graph

    def test_corrupt_store_write_caught_by_full_verify(
        self, tmp_path, monkeypatch
    ):
        graph = mesh(6, seed=2)
        arm_plan(monkeypatch, "corrupt:target=store,round=1")
        target = tmp_path / "g.rcsr"
        write_store(graph, target)  # publishes, then a byte flips
        with pytest.raises(CorruptArtifact):
            verify_store(target, level="full")


# --------------------------------------------------------------------- #
# checkpoint faults
# --------------------------------------------------------------------- #


def make_ckpt(tmp_path):
    return RunCheckpointer(
        tmp_path / "ckpt",
        algorithm="cluster",
        config=CFG,
        signature=("s", 1, 2),
        policy=CheckpointPolicy(every_rounds=1),
    )


def make_arrays(n=8, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "center": rng.integers(0, n, n, dtype=np.int64),
        "dist": rng.random(n),
        "dist_acc": rng.random(n),
        "frozen": rng.random(n) < 0.5,
        "frozen_iter": rng.integers(0, 4, n, dtype=np.int64),
        "changed": np.zeros(n, dtype=bool),
    }


SAVE_KW = dict(counters=Counters().snapshot(), simulated_time=0, rng_state=None)


class TestCheckpointFaults:
    @pytest.mark.parametrize(
        "action,expected_errno",
        [("enospc", errno.ENOSPC), ("ioerror", errno.EIO)],
    )
    def test_io_fault_raises_at_save(
        self, tmp_path, monkeypatch, action, expected_errno
    ):
        arm_plan(monkeypatch, f"{action}:target=ckpt,round=2")
        ckpt = make_ckpt(tmp_path)
        ckpt.save(1, arrays=make_arrays(seed=1), cursor={}, **SAVE_KW)
        with pytest.raises(OSError) as excinfo:
            ckpt.save(2, arrays=make_arrays(seed=2), cursor={}, **SAVE_KW)
        assert excinfo.value.errno == expected_errno
        # Round 1 survives; round 2 left no partial dir.
        assert sorted(ckpt._round_dirs()) == [1]
        assert not any(
            d.name.startswith("tmp-") for d in ckpt.directory.iterdir()
        )

    def test_corrupt_round_skipped_on_resume(self, tmp_path, monkeypatch):
        arm_plan(monkeypatch, "corrupt:target=ckpt,round=3")
        ckpt = make_ckpt(tmp_path)
        for r in (1, 2, 3):
            ckpt.save(r, arrays=make_arrays(seed=r), cursor={"r": r}, **SAVE_KW)
        # The corrupt round published (flip is post-rename)…
        assert sorted(ckpt._round_dirs()) == [1, 2, 3]
        other = make_ckpt(tmp_path)
        payload = other.load_latest()
        # …but resume detects the damage, quarantines it, falls back.
        assert payload is not None and payload["round"] == 2
        assert other.quarantined_rounds == [3]
