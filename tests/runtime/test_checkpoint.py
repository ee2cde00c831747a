"""Round checkpoints: policy, atomicity, staleness, restore.

Unit-level coverage for :mod:`repro.runtime.checkpoint` — the driver
round-trip matrix (resume mid-run, finish bit-identical) lives in
``tests/mr/test_fault_recovery.py``; here we exercise the store itself:
cadence parsing, atomic publication under mid-write kills, staleness via
the store signature, pruning, the write-behind writer, and
:func:`restore_run_state` with a fake engine.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.mr.metrics import Counters
from repro.mrimpl.cluster_mr import ClusterConfig
from repro.runtime.checkpoint import (
    CHECKPOINT_DIR_ENV,
    CHECKPOINT_EVERY_ENV,
    CheckpointPolicy,
    RunCheckpointer,
    checkpoint_dir_for,
    latest_metadata,
    restore_run_state,
    run_key,
)

# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #


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


class FakeEngine:
    def __init__(self):
        self.counters = Counters()
        self.simulated_time = 0


class FakeState:
    def __init__(self, arrays):
        self.arrays = arrays

    def snapshot_arrays(self):
        return {k: v.copy() for k, v in self.arrays.items()}

    def restore_arrays(self, arrays):
        self.arrays = {k: np.array(v) for k, v in arrays.items()}


def make_ckpt(tmp_path, *, policy=None, config=None, signature=("s", 1, 2)):
    return RunCheckpointer(
        tmp_path / "ckpt",
        algorithm="cluster",
        config=config or ClusterConfig(tau=3, seed=1),
        signature=signature,
        policy=policy,
    )


SAVE_KW = dict(counters=Counters().snapshot(), simulated_time=0, rng_state=None)


# --------------------------------------------------------------------- #
# policy parsing
# --------------------------------------------------------------------- #


class TestPolicy:
    def test_disabled_by_default(self):
        assert not CheckpointPolicy().enabled
        assert not CheckpointPolicy.parse(None).enabled
        assert not CheckpointPolicy.parse("").enabled
        assert not CheckpointPolicy.parse("  ").enabled

    def test_rounds(self):
        policy = CheckpointPolicy.parse("5")
        assert policy.enabled
        assert policy.every_rounds == 5
        assert policy.every_seconds is None

    def test_seconds(self):
        policy = CheckpointPolicy.parse("2.5s")
        assert policy.enabled
        assert policy.every_seconds == 2.5
        assert policy.every_rounds is None

    @pytest.mark.parametrize("raw", ["0", "-3", "abc", "0s", "-1s", "5x"])
    def test_invalid(self, raw):
        with pytest.raises(CheckpointError):
            CheckpointPolicy.parse(raw)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(CHECKPOINT_EVERY_ENV, "7")
        assert CheckpointPolicy.from_env().every_rounds == 7
        monkeypatch.delenv(CHECKPOINT_EVERY_ENV)
        assert not CheckpointPolicy.from_env().enabled

    @pytest.mark.parametrize("raw", ["abc", "0", "5x"])
    def test_malformed_env_fails_a_run_closed(self, monkeypatch, raw):
        """The runner imports this module only when the knob is set; a
        malformed value still stops the run instead of being ignored."""
        from repro.generators import mesh
        from repro.runtime import run

        monkeypatch.setenv(CHECKPOINT_EVERY_ENV, raw)
        with pytest.raises(CheckpointError):
            run("diameter", mesh(6, seed=1), tau=4, seed=1, executor="vector")

    def test_due_cadence(self, tmp_path):
        ckpt = make_ckpt(tmp_path, policy=CheckpointPolicy(every_rounds=5))
        assert not ckpt.due(4)
        assert ckpt.due(5)
        ckpt.note_restored(8)
        assert not ckpt.due(12)
        assert ckpt.due(13)


# --------------------------------------------------------------------- #
# run key / directory resolution
# --------------------------------------------------------------------- #


class TestRunKey:
    def test_backend_fields_excluded(self):
        base = ClusterConfig(tau=3, seed=1)
        for variant in (
            ClusterConfig(tau=3, seed=1, executor="sharded", shards=4),
            ClusterConfig(tau=3, seed=1, executor="vector"),
            ClusterConfig(tau=3, seed=1, kernel_impl="native"),
            ClusterConfig(tau=3, seed=1, kernel_impl="py"),
        ):
            assert run_key("cluster", variant) == run_key("cluster", base)

    def test_default_key_is_stable(self):
        """Existing checkpoint trees stay reachable: the default config's
        leaf name is pinned."""
        assert run_key("diameter", ClusterConfig()) == "diameter-1ab6d559326f"

    def test_result_fields_included(self):
        base = ClusterConfig(tau=3, seed=1)
        assert run_key("cluster", ClusterConfig(tau=4, seed=1)) != run_key(
            "cluster", base
        )
        assert run_key("cluster", ClusterConfig(tau=3, seed=2)) != run_key(
            "cluster", base
        )
        assert run_key("cluster2", base) != run_key("cluster", base)

    def test_dir_resolution(self, tmp_path, monkeypatch):
        cfg = ClusterConfig(tau=3, seed=1)
        monkeypatch.delenv(CHECKPOINT_DIR_ENV, raising=False)
        # No store, no override: nowhere to put a checkpoint.
        assert checkpoint_dir_for("cluster", cfg) is None
        # Store sibling.
        sib = checkpoint_dir_for("cluster", cfg, store_path=tmp_path / "g.rcsr")
        assert sib.parent == tmp_path / "g.rcsr.ckpt"
        # Env override beats the sibling.
        monkeypatch.setenv(CHECKPOINT_DIR_ENV, str(tmp_path / "env"))
        env = checkpoint_dir_for("cluster", cfg, store_path=tmp_path / "g.rcsr")
        assert env.parent == tmp_path / "env"
        # Explicit argument beats both.
        explicit = checkpoint_dir_for(
            "cluster", cfg, store_path=tmp_path / "g.rcsr",
            directory=tmp_path / "explicit",
        )
        assert explicit.parent == tmp_path / "explicit"
        # The leaf is the run key in every case.
        assert sib.name == env.name == explicit.name == run_key("cluster", cfg)


# --------------------------------------------------------------------- #
# save / load round-trip
# --------------------------------------------------------------------- #


class TestRoundTrip:
    def test_round_trip(self, tmp_path):
        ckpt = make_ckpt(tmp_path)
        arrays = make_arrays()
        counters = Counters()
        counters.rounds = 9
        counters.messages = 123
        rng = np.random.default_rng(42)
        rng.integers(0, 100, 17)  # advance the stream
        cursor = {"phase": "base", "point": "stage", "stage_index": 2,
                  "delta": 1.5, "stages": []}
        ckpt.save(
            9,
            arrays=arrays,
            cursor=cursor,
            counters=counters.snapshot(),
            simulated_time=9,
            rng_state=rng.bit_generator.state,
        )
        payload = ckpt.load_latest()
        assert payload is not None
        assert payload["round"] == 9
        assert payload["cursor"] == cursor
        assert payload["counters"]["messages"] == 123
        assert payload["simulated_time"] == 9
        for key, arr in arrays.items():
            np.testing.assert_array_equal(payload["arrays"][key], arr)
        # The restored RNG continues the exact stream.
        from repro.runtime.checkpoint import _rng_state_from_json

        twin = np.random.default_rng(0)
        twin.bit_generator.state = _rng_state_from_json(payload["rng_state"])
        np.testing.assert_array_equal(
            twin.integers(0, 1 << 30, 8), rng.integers(0, 1 << 30, 8)
        )

    def test_empty_dir_loads_none(self, tmp_path):
        assert make_ckpt(tmp_path).load_latest() is None

    def test_save_idempotent_per_round(self, tmp_path):
        ckpt = make_ckpt(tmp_path)
        ckpt.save(3, arrays=make_arrays(seed=1), cursor={"a": 1}, **SAVE_KW)
        # Deterministic replay re-reaches round 3: the existing snapshot
        # is kept (no rewrite) and not double-counted.
        ckpt.save(3, arrays=make_arrays(seed=2), cursor={"a": 2}, **SAVE_KW)
        assert ckpt.saved_rounds == [3]
        assert ckpt.load_latest()["cursor"] == {"a": 1}

    def test_prune_keeps_last_three(self, tmp_path):
        ckpt = make_ckpt(tmp_path)
        for r in (1, 2, 3, 4, 5):
            ckpt.save(r, arrays=make_arrays(seed=r), cursor={"r": r}, **SAVE_KW)
        names = sorted(p.name for p in ckpt.directory.iterdir())
        assert names == ["round-3", "round-4", "round-5"]

    def test_maybe_save_respects_policy_and_cadence(self, tmp_path):
        ckpt = make_ckpt(tmp_path, policy=CheckpointPolicy(every_rounds=4))
        engine = FakeEngine()
        state = FakeState(make_arrays())
        engine.counters.rounds = 2
        assert not ckpt.maybe_save(state, engine, None, {"c": 1})
        engine.counters.rounds = 4
        assert ckpt.maybe_save(state, engine, None, {"c": 2})
        engine.counters.rounds = 6  # only 2 rounds since the save
        assert not ckpt.maybe_save(state, engine, None, {"c": 3})
        assert ckpt.saved_rounds == [4]

    def test_maybe_save_disabled_policy_never_writes(self, tmp_path):
        ckpt = make_ckpt(tmp_path)  # no policy
        engine = FakeEngine()
        engine.counters.rounds = 100
        assert not ckpt.maybe_save(FakeState(make_arrays()), engine, None, {})
        assert not ckpt.directory.exists()


# --------------------------------------------------------------------- #
# atomicity and staleness
# --------------------------------------------------------------------- #


class TestDurability:
    def test_tmp_orphan_is_ignored(self, tmp_path):
        """A mid-write kill leaves a tmp- dir no reader ever considers."""
        ckpt = make_ckpt(tmp_path)
        ckpt.save(2, arrays=make_arrays(seed=2), cursor={"r": 2}, **SAVE_KW)
        orphan = ckpt.directory / "tmp-9999-7"
        orphan.mkdir()
        (orphan / "state.bin").write_bytes(b"partial write")
        payload = ckpt.load_latest()
        assert payload["round"] == 2

    def test_corrupt_state_falls_back_to_older_round(self, tmp_path):
        ckpt = make_ckpt(tmp_path)
        ckpt.save(2, arrays=make_arrays(seed=2), cursor={"r": 2}, **SAVE_KW)
        ckpt.save(5, arrays=make_arrays(seed=5), cursor={"r": 5}, **SAVE_KW)
        (ckpt.directory / "round-5" / "state.bin").write_bytes(b"torn")
        payload = ckpt.load_latest()
        assert payload["round"] == 2
        assert payload["cursor"] == {"r": 2}

    def test_corrupt_manifest_falls_back(self, tmp_path):
        ckpt = make_ckpt(tmp_path)
        ckpt.save(2, arrays=make_arrays(seed=2), cursor={"r": 2}, **SAVE_KW)
        ckpt.save(5, arrays=make_arrays(seed=5), cursor={"r": 5}, **SAVE_KW)
        (ckpt.directory / "round-5" / "manifest.json").write_text("{trunc")
        assert ckpt.load_latest()["round"] == 2

    def test_digest_mismatch_rejected(self, tmp_path):
        ckpt = make_ckpt(tmp_path)
        ckpt.save(3, arrays=make_arrays(seed=3), cursor={"r": 3}, **SAVE_KW)
        manifest_path = ckpt.directory / "round-3" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["state_sha256"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        assert ckpt.load_latest() is None

    def test_stale_signature_rejected(self, tmp_path):
        """The store changed under the checkpoint: snapshots are invalid."""
        writer = make_ckpt(tmp_path, signature=("g.rcsr", 100, 400))
        writer.save(4, arrays=make_arrays(seed=4), cursor={"r": 4}, **SAVE_KW)
        reader = make_ckpt(tmp_path, signature=("g.rcsr", 100, 401))
        assert reader.load_latest() is None
        same = make_ckpt(tmp_path, signature=("g.rcsr", 100, 400))
        assert same.load_latest()["round"] == 4

    def test_config_mismatch_rejected(self, tmp_path):
        writer = make_ckpt(tmp_path, config=ClusterConfig(tau=3, seed=1))
        writer.save(4, arrays=make_arrays(seed=4), cursor={"r": 4}, **SAVE_KW)
        other = RunCheckpointer(
            writer.directory,
            algorithm="cluster",
            config=ClusterConfig(tau=3, seed=2),
            signature=("s", 1, 2),
        )
        assert other.load_latest() is None

    def test_backend_change_is_not_stale(self, tmp_path):
        """Sharded-written snapshots load under a vector config."""
        writer = make_ckpt(
            tmp_path,
            config=ClusterConfig(tau=3, seed=1, executor="sharded", shards=4),
        )
        writer.save(4, arrays=make_arrays(seed=4), cursor={"r": 4}, **SAVE_KW)
        reader = RunCheckpointer(
            writer.directory,
            algorithm="cluster",
            config=ClusterConfig(tau=3, seed=1, executor="vector"),
            signature=("s", 1, 2),
        )
        assert reader.load_latest()["round"] == 4

    def test_latest_metadata(self, tmp_path):
        assert latest_metadata(tmp_path / "missing") is None
        ckpt = make_ckpt(tmp_path)
        arrays = make_arrays(seed=6)
        arrays["frozen"][:] = [True, True, False, False, False, True, False, True]
        ckpt.save(2, arrays=make_arrays(seed=2), cursor={"r": 2}, **SAVE_KW)
        ckpt.save(6, arrays=arrays, cursor={"r": 6}, **SAVE_KW)
        meta = latest_metadata(ckpt.directory)
        assert meta["round"] == 6
        assert meta["uncovered"] == 4  # not-frozen count


# --------------------------------------------------------------------- #
# restore and the write-behind writer
# --------------------------------------------------------------------- #


class TestRestoreRunState:
    def test_payload_rehydrates_state_counters_and_rng(self, tmp_path):
        """A saved payload puts back the arrays, the comparable counters,
        the simulated time and the RNG stream position."""
        ckpt = make_ckpt(tmp_path, policy=CheckpointPolicy(every_rounds=1))
        engine = FakeEngine()
        engine.counters.rounds = 7
        engine.counters.messages = 70
        engine.counters.extra["cluster2_iterations"] = 2
        engine.simulated_time = 41
        rng = np.random.default_rng(5)
        rng.random(3)
        state = FakeState(make_arrays(seed=9))
        assert ckpt.maybe_save(state, engine, rng, {"r": 7})
        ckpt.flush()
        expected_draws = rng.random(4)

        fresh_engine = FakeEngine()
        fresh_state = FakeState(make_arrays(seed=1))
        fresh_rng = np.random.default_rng(0)
        payload = make_ckpt(tmp_path).load_latest()
        restore_run_state(fresh_state, fresh_engine, fresh_rng, payload)
        for name, array in state.arrays.items():
            assert np.array_equal(fresh_state.arrays[name], array), name
        assert fresh_engine.counters.snapshot() == engine.counters.snapshot()
        assert fresh_engine.simulated_time == 41
        assert np.array_equal(fresh_rng.random(4), expected_draws)

    def test_rng_is_optional(self, tmp_path):
        ckpt = make_ckpt(tmp_path)
        ckpt.save(3, arrays=make_arrays(seed=3), cursor={}, **SAVE_KW)
        engine = FakeEngine()
        state = FakeState(make_arrays(seed=4))
        restore_run_state(state, engine, None, ckpt.load_latest())
        expected = make_arrays(seed=3)["dist"]
        assert np.array_equal(state.arrays["dist"], expected)
        assert engine.counters.rounds == 0


class TestWriteBehind:
    def test_flush_reraises_a_failed_publish(self, tmp_path, monkeypatch):
        ckpt = make_ckpt(tmp_path, policy=CheckpointPolicy(every_rounds=1))
        engine = FakeEngine()
        engine.counters.rounds = 1

        def broken(*_args, **_kwargs):
            raise OSError("disk gone")

        monkeypatch.setattr(ckpt, "_publish", broken)
        assert ckpt.maybe_save(FakeState(make_arrays()), engine, None, {})
        with pytest.raises(OSError, match="disk gone"):
            ckpt.flush()
        ckpt.flush()  # the error surfaces once

    @pytest.mark.parametrize("algorithm", ["cluster", "cluster2"])
    def test_driver_returns_with_every_round_durable(
        self, tmp_path, algorithm
    ):
        """The MR drivers drain the writer before they return: every
        round they scheduled is published, none is still in flight."""
        from repro.generators import mesh
        from repro.mrimpl.cluster2_mr import mr_cluster2
        from repro.mrimpl.cluster_mr import mr_cluster

        config = ClusterConfig(tau=3, seed=1, stage_threshold_factor=1.0)
        ckpt = RunCheckpointer(
            tmp_path / "ckpt",
            algorithm=algorithm,
            config=config,
            signature=("s", 1, 2),
            policy=CheckpointPolicy(every_rounds=1),
        )
        driver = mr_cluster if algorithm == "cluster" else mr_cluster2
        driver(mesh(8, seed=7), config=config, checkpoint=ckpt)
        assert ckpt._writer is None
        assert ckpt.saved_rounds
        published = sorted(ckpt._round_dirs())
        assert published == sorted(ckpt.saved_rounds)[-len(published):]
