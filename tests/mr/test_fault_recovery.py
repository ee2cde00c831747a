"""Crash/recovery matrix: killed workers and drivers finish bit-identical.

The fault-tolerance claim is end-to-end determinism: a run that loses a
shard worker mid-growth (``REPRO_FAULT_PLAN``) — or the whole driver
process — must finish with the *same clustering and the same counters*
as an uninterrupted run, whether it replays from round 0 or from a
durable checkpoint.  This suite is that claim as tests:

* sharded worker kills at chosen growing-step ordinals, across shard
  counts, CLUSTER and CLUSTER2, checkpointing on and off — against the
  real process pool (the worker ``os._exit(1)``\\ s, the driver sees a
  dead pipe) and the in-process pool (simulated ``WorkerFailure``);
* driver-level checkpoint resume, same-backend and cross-backend (a
  snapshot written under ``sharded`` resumed under ``vector`` or the
  per-key oracle of ``tests/oracle/mr_literal.py``);
* the CLI flow: ``repro run --checkpoint`` killed by a scheduled driver
  ``os._exit`` in a subprocess, then ``repro run --resume`` completing
  with byte-identical output.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from mr_literal import literal_engine

from repro.core.config import ClusterConfig
from repro.errors import WorkerFailure
from repro.generators import gnm_random_graph, road_network
from repro.graph.serialize import write_store
from repro.mr.faults import FAULT_PLAN_ENV, get_fault_plan, reset_fault_plan
from repro.mr.sharded import RESIDENT_ENV
from repro.mrimpl.cluster2_mr import mr_cluster2
from repro.mrimpl.cluster_mr import mr_cluster
from repro.mrimpl.diameter_mr import mr_approximate_diameter
from repro.runtime.checkpoint import (
    WORKER_RETRIES_ENV,
    CheckpointPolicy,
    RunCheckpointer,
)

CFG = ClusterConfig(tau=3, seed=1, stage_threshold_factor=1.0)

DRIVERS = {"cluster": mr_cluster, "cluster2": mr_cluster2}

#: Backend variants of the checkpoint-portability matrix:
#: ``(executor, shards, environment)``.  ``literal`` resumes on the
#: per-key oracle's engine (its config names ``vector``, which a
#: caller-supplied engine overrides).
BACKENDS = {
    "vector": ("vector", None, {}),
    "literal": ("vector", None, {}),
    "sharded": ("sharded", 2, {}),
    "sharded-lp-7": ("sharded", 7, {}),
    "sharded-ooc": ("sharded", 2, {RESIDENT_ENV: "0.05"}),
}


def backend_config(monkeypatch, name):
    """``CFG`` on backend variant ``name``, its environment applied."""
    executor, shards, env = BACKENDS[name]
    monkeypatch.delenv(RESIDENT_ENV, raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    return CFG.with_(executor=executor, shards=shards)


@pytest.fixture(scope="module")
def graph():
    return gnm_random_graph(120, 400, seed=9, connect=True)


@pytest.fixture(scope="module")
def references(graph):
    """Uninterrupted vector-backend runs (sharded parity is a given)."""
    return {
        name: driver(graph, config=CFG.with_(executor="vector"))
        for name, driver in DRIVERS.items()
    }


@pytest.fixture(scope="module")
def road():
    """A road grid and its uninterrupted vector-backend clustering."""
    g = road_network(24, seed=1)
    return g, mr_cluster(g, config=CFG.with_(executor="vector"))


def arm_plan(monkeypatch, plan):
    monkeypatch.setenv(FAULT_PLAN_ENV, plan)
    reset_fault_plan()


def make_checkpointer(tmp_path, graph, algorithm, config, *, every=2):
    return RunCheckpointer(
        tmp_path / "ckpt",
        algorithm=algorithm,
        config=config,
        signature=("test", graph.num_nodes, graph.num_edges),
        policy=CheckpointPolicy(every_rounds=every),
    )


def retained_rounds(writer):
    """The round numbers ``writer`` has on disk, ascending."""
    return sorted(
        int(p.name[len("round-"):]) for p in writer.directory.iterdir()
        if p.name.startswith("round-")
    )


#: The full comparable counter set of the batch engines.
COUNTERS = (
    "rounds", "messages", "updates", "growing_steps", "peak_round_messages",
)
#: What the per-key oracle shares with them: it ships every node's
#: adjacency and state records as messages each round, so its message
#: counts are its own (as in ``test_backend_equivalence``).
ORACLE_COUNTERS = ("rounds", "updates", "growing_steps")


def assert_identical(result, reference, counters=COUNTERS):
    """Bit-identical clustering AND the comparable ``counters``."""
    assert np.array_equal(result.center, reference.center)
    assert np.array_equal(result.dist_to_center, reference.dist_to_center)
    assert result.radius == reference.radius
    assert result.delta_end == reference.delta_end
    ours = result.counters.snapshot()
    theirs = reference.counters.snapshot()
    for key in counters:
        assert ours[key] == theirs[key], key


# --------------------------------------------------------------------- #
# sharded worker kills (real process pool: the worker os._exits)
# --------------------------------------------------------------------- #


class TestShardedWorkerKill:
    @pytest.mark.parametrize("with_checkpoint", [False, True],
                             ids=["replay-round0", "replay-checkpoint"])
    @pytest.mark.parametrize("kill_round", [1, 3])
    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("algorithm", ["cluster", "cluster2"])
    def test_killed_worker_run_is_bit_identical(
        self, graph, references, tmp_path, monkeypatch,
        algorithm, shards, kill_round, with_checkpoint,
    ):
        reference = references[algorithm]
        # Precondition: the scheduled ordinal is actually reached.
        assert reference.counters.growing_steps >= kill_round
        cfg = CFG.with_(executor="sharded", shards=shards)
        ckpt = (
            make_checkpointer(tmp_path, graph, algorithm, cfg)
            if with_checkpoint
            else None
        )
        arm_plan(monkeypatch, f"kill:shard=1,round={kill_round}")
        result = DRIVERS[algorithm](graph, config=cfg, checkpoint=ckpt)
        # The kill fired (one-shot entries are consumed when they do).
        assert get_fault_plan()._consumed
        assert_identical(result, reference)

    def test_two_kills_same_run(self, graph, references, monkeypatch):
        """Two scheduled deaths → two replays, still bit-identical."""
        cfg = CFG.with_(executor="sharded", shards=2)
        arm_plan(monkeypatch, "kill:shard=0,round=1;kill:shard=1,round=3")
        result = mr_cluster(graph, config=cfg)
        assert len(get_fault_plan()._consumed) == 2
        assert_identical(result, references["cluster"])

    def test_diameter_pipeline_recovers(self, graph, monkeypatch):
        cfg = CFG.with_(executor="vector")
        reference = mr_approximate_diameter(graph, config=cfg)
        arm_plan(monkeypatch, "kill:shard=0,round=2")
        result = mr_approximate_diameter(
            graph, config=CFG.with_(executor="sharded", shards=2)
        )
        assert get_fault_plan()._consumed
        assert result.value == reference.value
        assert result.radius == reference.radius
        assert result.counters.rounds == reference.counters.rounds

    def test_retries_exhausted_surfaces_worker_failure(
        self, graph, monkeypatch
    ):
        monkeypatch.setenv(WORKER_RETRIES_ENV, "0")
        arm_plan(monkeypatch, "kill:shard=1,round=2")
        with pytest.raises(WorkerFailure):
            mr_cluster(graph, config=CFG.with_(executor="sharded", shards=2))

    def test_checkpoint_shortens_replay(self, graph, tmp_path, monkeypatch):
        """With a checkpoint behind it, the replay resumes mid-run."""
        cfg = CFG.with_(executor="sharded", shards=2)
        ckpt = make_checkpointer(tmp_path, graph, "cluster", cfg, every=1)
        arm_plan(monkeypatch, "kill:shard=0,round=4")
        mr_cluster(graph, config=cfg, checkpoint=ckpt)
        # The recovery loop restored from a durable round, not round 0.
        assert ckpt.resumed_round is not None
        assert ckpt.resumed_round >= 1


class TestInprocPoolKill:
    """The resident (in-process) pool raises a simulated WorkerFailure."""

    @pytest.mark.parametrize("with_checkpoint", [False, True],
                             ids=["replay-round0", "replay-checkpoint"])
    def test_killed_worker_run_is_bit_identical(
        self, graph, references, tmp_path, monkeypatch, with_checkpoint
    ):
        monkeypatch.setenv(RESIDENT_ENV, "64")
        cfg = CFG.with_(executor="sharded", shards=2)
        ckpt = (
            make_checkpointer(tmp_path, graph, "cluster", cfg)
            if with_checkpoint
            else None
        )
        arm_plan(monkeypatch, "kill:shard=1,round=2")
        result = mr_cluster(graph, config=cfg, checkpoint=ckpt)
        assert get_fault_plan()._consumed
        assert_identical(result, references["cluster"])


# --------------------------------------------------------------------- #
# driver-level checkpoint resume (same- and cross-backend)
# --------------------------------------------------------------------- #


class TestCheckpointResume:
    @pytest.mark.parametrize(
        "write_exec", ["vector", "sharded", "sharded-lp-7"]
    )
    @pytest.mark.parametrize(
        "resume_exec",
        ["vector", "literal", "sharded", "sharded-lp-7", "sharded-ooc"],
    )
    @pytest.mark.parametrize("algorithm", ["cluster", "cluster2"])
    def test_resume_is_bit_identical_across_backends(
        self, graph, references, tmp_path, monkeypatch, algorithm,
        write_exec, resume_exec,
    ):
        """A snapshot written under one backend resumes under any other:
        several shard counts and the out-of-core pool stitch and restore the same global arrays.  The resume
        starts from the earliest retained round that has rounds after
        it, so the resume backend runs growing steps on restored state
        (the newest round is the run's last, leaving nothing to run)."""
        write_cfg = backend_config(monkeypatch, write_exec)
        writer = make_checkpointer(tmp_path, graph, algorithm, write_cfg)
        written = DRIVERS[algorithm](
            graph, config=write_cfg, checkpoint=writer
        )
        assert writer.saved_rounds  # the cadence actually fired
        start = min(
            r for r in retained_rounds(writer) if r < written.counters.rounds
        )
        payload = writer._load_round(start)
        assert payload is not None

        resume_cfg = backend_config(monkeypatch, resume_exec)
        # run_key drops backend fields, so the reader finds the rounds.
        reader = make_checkpointer(tmp_path, graph, algorithm, resume_cfg)
        assert reader.directory == writer.directory
        engine = literal_engine(graph) if resume_exec == "literal" else None
        result = DRIVERS[algorithm](
            graph, config=resume_cfg, checkpoint=reader, resume=payload,
            engine=engine,
        )
        assert reader.resumed_round == payload["round"]
        assert result.counters.rounds > payload["round"]
        assert_identical(
            result, references[algorithm],
            ORACLE_COUNTERS if resume_exec == "literal" else COUNTERS,
        )

    @pytest.mark.parametrize(
        "which, backend",
        [
            ("gnm", "vector"),
            ("road", "vector"),
            ("road", "sharded"),
            ("road", "sharded-lp-7"),
            ("road", "sharded-ooc"),
        ],
    )
    def test_resume_from_every_retained_round(
        self, graph, references, road, tmp_path, monkeypatch, which, backend
    ):
        """Each retained round is an equally valid restart point.  The
        road grid's late rounds hold frozen cut nodes, so a sharded
        restore must also rebuild their replica ghosts."""
        if which == "road":
            graph, reference = road
        else:
            reference = references["cluster"]
        cfg = backend_config(monkeypatch, backend)
        writer = make_checkpointer(tmp_path, graph, "cluster", cfg, every=1)
        mr_cluster(graph, config=cfg, checkpoint=writer)
        rounds = retained_rounds(writer)
        assert rounds
        for r in rounds:
            payload = writer._load_round(r)
            assert payload is not None
            result = mr_cluster(graph, config=cfg, resume=payload)
            assert_identical(result, reference)


# --------------------------------------------------------------------- #
# CLI: driver os._exit mid-run, then `repro run --resume`
# --------------------------------------------------------------------- #


REPO = Path(__file__).resolve().parents[2]


def run_cli(args, *, env_extra=None, store_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop(FAULT_PLAN_ENV, None)
    # Keep the CLI's store conversions inside the test tmp dir.
    env["REPRO_STORE_DIR"] = str(store_dir / "cache")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


class TestDriverKillResume:
    @pytest.mark.parametrize(
        "kill_exec,resume_exec",
        [("vector", "vector"), ("sharded", "vector")],
        ids=["same-backend", "cross-backend"],
    )
    def test_sigkilled_driver_resumes_bit_identical(
        self, tmp_path, kill_exec, resume_exec
    ):
        graph = gnm_random_graph(600, 2400, seed=5, connect=True)
        store = tmp_path / "g.rcsr"
        write_store(graph, store)
        base = ["run", "cluster", str(store), "--tau", "3", "--seed", "1"]

        reference = run_cli(
            base + ["--executor", resume_exec], store_dir=tmp_path
        )
        assert reference.returncode == 0, reference.stderr

        extra = ["--shards", "2"] if kill_exec == "sharded" else []
        killed = run_cli(
            base + ["--executor", kill_exec, *extra, "--checkpoint", "2"],
            env_extra={FAULT_PLAN_ENV: "kill:shard=driver,round=4"},
            store_dir=tmp_path,
        )
        assert killed.returncode == 1  # os._exit(1), mid-run
        ckpt_root = Path(str(store) + ".ckpt")
        assert ckpt_root.is_dir()  # a durable round survived the death

        resumed = run_cli(
            base + ["--executor", resume_exec, "--checkpoint", "2", "--resume"],
            store_dir=tmp_path,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed from : round" in resumed.stdout

        def stable(out):
            return [
                line for line in out.splitlines()
                if not line.startswith(
                    ("resumed from", "checkpoints", "elapsed", "executor")
                )
            ]

        assert stable(resumed.stdout) == stable(reference.stdout)
        assert "resumed from : round" in resumed.stdout
