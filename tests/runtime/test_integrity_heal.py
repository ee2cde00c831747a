"""Quarantine, self-heal, retention GC, tmp sweeps, and ``repro verify``.

The robustness contract at the runtime layer: a corrupt artifact is
*moved aside* (never silently reread, never a crash loop) and rebuilt
from its source when one exists; checkpoint retention never deletes the
newest rounds; interrupted-write debris is swept only past the grace
window; and the offline verifier exits non-zero exactly when something
is damaged.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.config import ClusterConfig
from repro.errors import CheckpointError, CorruptArtifact
from repro.generators import mesh
from repro.graph.io import write_auto
from repro.graph.serialize import read_store_header, write_store
from repro.integrity import (
    TMP_GRACE_ENV,
    VERIFY_ENV,
    quarantine_artifact,
    quarantine_root_for,
    sweep_orphan_tmps,
)
from repro.mr.metrics import Counters
from repro.runtime.checkpoint import (
    CKPT_RETAIN_ENV,
    RetentionPolicy,
    RunCheckpointer,
    collect_garbage,
    list_checkpoints,
)
from repro.runtime.store import GraphStore
from repro.runtime.verify import verify_tree


def flip_byte(path, offset):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes((byte[0] ^ 0xFF,)))


def corrupt_payload(store_file):
    header = read_store_header(store_file)
    name, off, size = header.sections()[1]  # indices
    flip_byte(store_file, off + size // 2)


# --------------------------------------------------------------------- #
# GraphStore self-heal
# --------------------------------------------------------------------- #


class TestStoreHeal:
    def test_rebuild_from_source(self, tmp_path, monkeypatch):
        """A corrupt cached store is quarantined and reconverted from
        its original text source, transparently to the caller."""
        monkeypatch.setenv(VERIFY_ENV, "full")
        graph = mesh(8, seed=2)
        source = tmp_path / "g.gr"
        write_auto(graph, source)
        store = GraphStore(cache_dir=tmp_path / "cache")
        first = store.get(source)
        assert first == graph
        store_file = store.store_path(source)
        corrupt_payload(store_file)
        store.clear()  # force a re-open of the damaged file
        healed = store.get(source)
        assert healed == graph
        assert store.quarantined == 1
        assert store.rebuilds == 1
        root = quarantine_root_for(store_file)
        assert root.is_dir() and any(root.iterdir())

    def test_unrebuildable_raises_with_quarantine(self, tmp_path, monkeypatch):
        """A corrupt *direct* .rcsr (it IS the source) cannot be healed:
        the structured error surfaces, carrying the quarantine spot."""
        monkeypatch.setenv(VERIFY_ENV, "full")
        graph = mesh(6, seed=3)
        store_file = tmp_path / "direct.rcsr"
        write_store(graph, store_file)
        corrupt_payload(store_file)
        store = GraphStore(cache_dir=tmp_path / "cache")
        with pytest.raises(CorruptArtifact) as excinfo:
            store.get(store_file)
        assert excinfo.value.quarantined is not None
        assert not store_file.exists()  # moved aside, not left in place

    def test_sweep_on_store_dir_open(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        stale = cache / "old.rcsr.tmpabc123"
        stale.write_bytes(b"debris")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        fresh = cache / "new.rcsr.tmpdef456"
        fresh.write_bytes(b"in-flight")
        store = GraphStore(cache_dir=cache)
        graph = mesh(4, seed=1)
        source = tmp_path / "g.gr"
        write_auto(graph, source)
        store.get(source)  # first lookup triggers the sweep
        assert not stale.exists()
        assert fresh.exists()  # inside the grace window — untouched


# --------------------------------------------------------------------- #
# quarantine primitives
# --------------------------------------------------------------------- #


class TestQuarantine:
    def test_file_moves_with_reason(self, tmp_path):
        victim = tmp_path / "g.rcsr"
        victim.write_bytes(b"damaged")
        moved = quarantine_artifact(victim, reason="digest mismatch")
        assert moved is not None and moved.exists()
        assert not victim.exists()
        reason = moved.parent / (moved.name + ".reason")
        assert "digest mismatch" in reason.read_text()

    def test_layout_member_quarantines_at_store_root(self, tmp_path):
        layout = tmp_path / "g.rcsr.shards" / "4"
        layout.mkdir(parents=True)
        (layout / "part-0.rcsr").write_bytes(b"x")
        moved = quarantine_artifact(layout)
        assert moved is not None
        assert moved.parent == tmp_path / "g.rcsr.quarantine"

    def test_missing_artifact_is_none(self, tmp_path):
        assert quarantine_artifact(tmp_path / "nope") is None


# --------------------------------------------------------------------- #
# tmp sweep grace window
# --------------------------------------------------------------------- #


class TestSweep:
    def test_grace_window(self, tmp_path):
        stale = tmp_path / "a.tmp1"
        fresh = tmp_path / "b.tmp2"
        stale.write_bytes(b"")
        fresh.write_bytes(b"")
        old = time.time() - 100
        os.utime(stale, (old, old))
        removed = sweep_orphan_tmps(tmp_path, ("*.tmp*",), grace_s=50)
        assert removed == [stale]
        assert fresh.exists()

    def test_env_grace(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TMP_GRACE_ENV, "0")
        tmp = tmp_path / "c.tmp3"
        tmp.write_bytes(b"")
        old = time.time() - 5
        os.utime(tmp, (old, old))
        assert sweep_orphan_tmps(tmp_path) == [tmp]

    def test_dir_patterns(self, tmp_path):
        orphan = tmp_path / "tmp-123-7"
        orphan.mkdir()
        (orphan / "state.bin").write_bytes(b"x")
        old = time.time() - 100
        os.utime(orphan, (old, old))
        removed = sweep_orphan_tmps(
            tmp_path, (), dir_patterns=("tmp-*",), grace_s=50
        )
        assert removed == [orphan]
        assert not orphan.exists()


# --------------------------------------------------------------------- #
# checkpoint retention
# --------------------------------------------------------------------- #


def make_ckpt(tmp_path, *, policy=None):
    return RunCheckpointer(
        tmp_path / "ckpt",
        algorithm="cluster",
        config=ClusterConfig(tau=3, seed=1),
        signature=("s", 1, 2),
        policy=policy,
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


def publish_rounds(ckpt, rounds):
    for r in rounds:
        ckpt.save(r, arrays=make_arrays(seed=r), cursor={"r": r}, **SAVE_KW)


class TestRetentionPolicy:
    def test_default_keeps_three(self):
        assert RetentionPolicy.parse(None).count == 3
        assert RetentionPolicy.parse("").count == 3

    def test_count_floor(self):
        assert RetentionPolicy.parse("1").count == 3
        assert RetentionPolicy.parse("7").count == 7

    @pytest.mark.parametrize(
        "raw,attr,expect",
        [
            ("90m", "max_age_s", 5400.0),
            ("36h", "max_age_s", 129600.0),
            ("7d", "max_age_s", 604800.0),
            ("500MB", "max_bytes", 500 * 1024**2),
            ("2GB", "max_bytes", 2 * 1024**3),
        ],
    )
    def test_axes(self, raw, attr, expect):
        assert getattr(RetentionPolicy.parse(raw), attr) == expect

    @pytest.mark.parametrize("raw", ["0", "-2", "x", "5y", "-1h", "0MB"])
    def test_invalid(self, raw):
        with pytest.raises(CheckpointError):
            RetentionPolicy.parse(raw)

    def test_survivors_count(self):
        rows = [(r, 1000.0 + r, 100) for r in range(10)]
        keep = RetentionPolicy.parse("5").survivors(rows)
        assert keep == {5, 6, 7, 8, 9}

    def test_survivors_bytes_floor(self):
        # 1-byte budget: the floor still keeps the newest 3 rounds.
        rows = [(r, 1000.0 + r, 10**6) for r in range(6)]
        keep = RetentionPolicy.parse("1kb").survivors(rows)
        assert keep == {3, 4, 5}

    def test_survivors_age(self):
        now = time.time()
        rows = [(1, now - 500, 10), (2, now - 50, 10), (3, now - 5, 10),
                (4, now - 1, 10)]
        keep = RetentionPolicy.parse("100s").survivors(rows)
        # age admits 2,3,4; floor adds nothing new (newest 3 = 2,3,4)
        assert keep == {2, 3, 4}


class TestRetentionGC:
    def test_prune_on_publish(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CKPT_RETAIN_ENV, "4")
        ckpt = make_ckpt(tmp_path)
        publish_rounds(ckpt, range(1, 9))
        assert sorted(ckpt._round_dirs()) == [5, 6, 7, 8]

    def test_collect_garbage_dry_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CKPT_RETAIN_ENV, "100")
        ckpt = make_ckpt(tmp_path)
        publish_rounds(ckpt, range(1, 7))
        doomed = collect_garbage(
            ckpt.directory, RetentionPolicy.parse("3"), dry_run=True
        )
        assert doomed == [1, 2, 3]
        assert sorted(ckpt._round_dirs()) == [1, 2, 3, 4, 5, 6]
        removed = collect_garbage(ckpt.directory, RetentionPolicy.parse("3"))
        assert removed == [1, 2, 3]
        assert sorted(ckpt._round_dirs()) == [4, 5, 6]

    def test_list_checkpoints(self, tmp_path):
        ckpt = make_ckpt(tmp_path)
        publish_rounds(ckpt, [1, 2, 3])
        # Run-dir form and tree form both inventory.
        direct = list_checkpoints(ckpt.directory)
        assert len(direct) == 1
        assert [r["round"] for r in direct[0]["rounds"]] == [3, 2, 1]
        assert all(r["bytes"] > 0 for r in direct[0]["rounds"])

    def test_default_env_keeps_three(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CKPT_RETAIN_ENV, raising=False)
        ckpt = make_ckpt(tmp_path)
        publish_rounds(ckpt, range(1, 8))
        assert sorted(ckpt._round_dirs()) == [5, 6, 7]


# --------------------------------------------------------------------- #
# corrupt checkpoint rounds: skip + quarantine on resume
# --------------------------------------------------------------------- #


class TestCheckpointQuarantine:
    def test_corrupt_round_skipped_and_quarantined(self, tmp_path):
        ckpt = make_ckpt(tmp_path)
        publish_rounds(ckpt, [1, 2, 3])
        state = ckpt.directory / "round-3" / "state.bin"
        flip_byte(state, state.stat().st_size // 2)
        payload = ckpt.load_latest()
        assert payload is not None
        assert payload["round"] == 2  # fell back past the damaged round
        assert ckpt.quarantined_rounds == [3]
        assert not (ckpt.directory / "round-3").exists()
        # Run dir has no .ckpt suffix → quarantine is the hidden sibling.
        root = ckpt.directory / ".quarantine"
        assert root.is_dir() and any(
            p.name.startswith("round-3") for p in root.iterdir()
        )

    def test_bad_manifest_quarantined(self, tmp_path):
        ckpt = make_ckpt(tmp_path)
        publish_rounds(ckpt, [1, 2])
        (ckpt.directory / "round-2" / "manifest.json").write_text("{broken")
        payload = ckpt.load_latest()
        assert payload["round"] == 1
        assert ckpt.quarantined_rounds == [2]

    def test_stale_round_not_quarantined(self, tmp_path):
        """Config drift is staleness, not damage: skip, don't move."""
        ckpt = make_ckpt(tmp_path)
        publish_rounds(ckpt, [1])
        other = RunCheckpointer(
            ckpt.directory,
            algorithm="cluster",
            config=ClusterConfig(tau=9, seed=4),
            signature=("s", 1, 2),
        )
        assert other.load_latest() is None
        assert other.quarantined_rounds == []
        assert (ckpt.directory / "round-1").exists()

    def test_tmp_dir_sweep_on_init(self, tmp_path, monkeypatch):
        directory = tmp_path / "ckpt"
        directory.mkdir()
        orphan = directory / "tmp-999-5"
        orphan.mkdir()
        old = time.time() - 7200
        os.utime(orphan, (old, old))
        make_ckpt(tmp_path)
        assert not orphan.exists()


# --------------------------------------------------------------------- #
# the offline verifier
# --------------------------------------------------------------------- #


class TestVerifyTree:
    def test_clean_tree(self, tmp_path):
        graph = mesh(6, seed=5)
        store_file = tmp_path / "v.rcsr"
        write_store(graph, store_file)
        reports = verify_tree(store_file, deep=True)
        assert all(r["ok"] for r in reports)
        kinds = {r["kind"] for r in reports}
        assert "store" in kinds

    def test_damaged_store_fails(self, tmp_path):
        graph = mesh(6, seed=5)
        store_file = tmp_path / "v.rcsr"
        write_store(graph, store_file)
        corrupt_payload(store_file)
        reports = verify_tree(store_file, deep=True)
        assert any(not r["ok"] for r in reports)
        # shallow pass: payload flips legitimately pass the header tier
        shallow = verify_tree(store_file, deep=False)
        assert all(r["ok"] for r in shallow)

    def test_checkpoint_rounds_included(self, tmp_path, monkeypatch):
        graph = mesh(6, seed=5)
        store_file = tmp_path / "v.rcsr"
        write_store(graph, store_file)
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        ckpt = RunCheckpointer(
            str(store_file) + ".ckpt/run-abc",
            algorithm="cluster",
            config=ClusterConfig(tau=3, seed=1),
            signature=("s", 1, 2),
        )
        publish_rounds(ckpt, [1, 2])
        reports = verify_tree(store_file, deep=True)
        ckpts = [r for r in reports if r["kind"] == "checkpoint"]
        assert len(ckpts) == 2 and all(r["ok"] for r in ckpts)
        state = ckpt.directory / "round-2" / "state.bin"
        flip_byte(state, 4)
        reports = verify_tree(store_file, deep=True)
        bad = [r for r in reports if not r["ok"]]
        assert len(bad) == 1 and bad[0]["kind"] == "checkpoint"

    def test_missing_graph(self, tmp_path):
        reports = verify_tree(tmp_path / "nope.gr")
        assert len(reports) == 1 and not reports[0]["ok"]


# --------------------------------------------------------------------- #
# CLI surfaces
# --------------------------------------------------------------------- #


class TestCLI:
    def test_verify_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        graph = mesh(6, seed=6)
        store_file = tmp_path / "c.rcsr"
        write_store(graph, store_file)
        assert main(["verify", str(store_file), "--deep"]) == 0
        corrupt_payload(store_file)
        assert main(["verify", str(store_file), "--deep"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_ckpt_list_and_gc(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv(CKPT_RETAIN_ENV, "100")
        ckpt = make_ckpt(tmp_path)
        publish_rounds(ckpt, range(1, 7))
        assert main(["ckpt", "list", str(ckpt.directory)]) == 0
        out = capsys.readouterr().out
        assert "round-6" in out
        assert main(
            ["ckpt", "gc", str(ckpt.directory), "--retain", "4", "--dry-run"]
        ) == 0
        out = capsys.readouterr().out
        assert "would delete" in out and "round-2" in out
        assert sorted(ckpt._round_dirs()) == [1, 2, 3, 4, 5, 6]
        assert main(
            ["ckpt", "gc", str(ckpt.directory), "--retain", "4"]
        ) == 0
        assert sorted(ckpt._round_dirs()) == [3, 4, 5, 6]

    def test_ckpt_tree_form(self, tmp_path, capsys):
        """Point the commands at the .ckpt root (multiple run keys)."""
        from repro.cli import main

        base = tmp_path / "ckpt"
        for tau in (3, 5):
            ckpt = RunCheckpointer(
                base / f"cluster-{tau}",
                algorithm="cluster",
                config=ClusterConfig(tau=tau, seed=1),
                signature=("s", 1, 2),
            )
            publish_rounds(ckpt, [1, 2])
        assert main(["ckpt", "list", str(base)]) == 0
        out = capsys.readouterr().out
        assert "cluster-3" in out and "cluster-5" in out
