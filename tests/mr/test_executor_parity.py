"""Executor parity: every backend must compute the same batch rounds.

The engine's contract is that executors only change *where* the
growing state lives, never *what* a round computes: output batches,
``Counters``, the simulated critical path, and memory-limit enforcement
must be identical on the ``vector`` engine, the ``sharded`` backend and
the per-key oracle of ``tests/oracle/mr_literal.py`` (every batch
reducer runs in the engine's process; the sharded backend and the
oracle only take over growing steps).
"""

from functools import partial

import numpy as np
import pytest
from mr_literal import LiteralExecutor

from repro.errors import MemoryLimitExceeded
from repro.mr.batch import group_count, group_min_first, group_sum
from repro.mr.engine import MREngine
from repro.mr.executor import EXECUTOR_NAMES, make_executor
from repro.mr.model import MRSpec
from repro.mr.partitioner import hash_partition, hash_partition_array
from repro.mr.sharded import ShardedExecutor

EXECUTORS = {
    "literal": LiteralExecutor,
    "vector": lambda: make_executor("vector"),
    "sharded": lambda: ShardedExecutor(num_shards=2),
}


def _close(executor):
    if hasattr(executor, "close"):
        executor.close()


def make_engine(executor, workers=3, mt=100_000, ml=1_000):
    return MREngine(MRSpec(mt, ml, num_workers=workers), executor=executor)


def batch_payload():
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 40, size=300).astype(np.int64)
    values = np.column_stack(
        (
            rng.integers(0, 10, size=300).astype(np.float64),
            rng.integers(0, 5, size=300).astype(np.float64),
            rng.random(300),
        )
    )
    return keys, values


class TestBatchRoundParity:
    """Batch rounds on both backends and the oracle."""

    @pytest.fixture(params=list(EXECUTORS))
    def backend(self, request):
        executor = EXECUTORS[request.param]()
        yield executor
        _close(executor)

    @pytest.mark.parametrize(
        "reducer",
        [group_sum, group_count, partial(group_min_first, sort_cols=2)],
        ids=["sum", "count", "min_first"],
    )
    def test_same_batch_counters_and_critical_path(self, backend, reducer):
        keys, values = batch_payload()
        reference = make_engine(LiteralExecutor())
        ref_keys, ref_values = reference.round_batch(keys, values, reducer)

        engine = make_engine(backend)
        out_keys, out_values = engine.round_batch(keys, values, reducer)

        ref_order = np.argsort(ref_keys, kind="stable")
        order = np.argsort(out_keys, kind="stable")
        assert np.array_equal(out_keys[order], ref_keys[ref_order])
        assert np.array_equal(out_values[order], ref_values[ref_order])
        assert engine.counters.snapshot() == reference.counters.snapshot()
        assert engine.simulated_time == reference.simulated_time

    def test_empty_round_counts(self, backend):
        engine = make_engine(backend)
        out_keys, out_values = engine.round_batch(
            np.empty(0, dtype=np.int64), np.empty((0, 3)), group_sum
        )
        assert len(out_keys) == 0 and out_values.shape == (0, 3)
        assert engine.counters.rounds == 1
        assert engine.counters.messages == 0
        assert engine.simulated_time == 0

    def test_local_memory_enforced(self, backend):
        engine = make_engine(backend, ml=8)
        keys = np.zeros(10, dtype=np.int64)  # one group: 10 * 4 words > 8
        values = np.ones((10, 3))
        with pytest.raises(MemoryLimitExceeded) as excinfo:
            engine.round_batch(keys, values, group_sum)
        assert excinfo.value.key == 0

    def test_total_memory_enforced(self, backend):
        engine = make_engine(backend, mt=16, ml=16)
        keys = np.arange(10, dtype=np.int64)
        values = np.ones((10, 3))
        with pytest.raises(MemoryLimitExceeded):
            engine.round_batch(keys, values, group_sum)


class TestPartitionerConsistency:
    """Batch and per-key rounds must route keys to the same workers."""

    def test_array_matches_scalar(self):
        keys = np.array([0, 1, 2, 17, 65_536, 2**40, 2**60], dtype=np.int64)
        for workers in (1, 2, 7, 16):
            vec = hash_partition_array(keys, workers)
            ref = [hash_partition(int(k), workers) for k in keys]
            assert vec.tolist() == ref

    def test_spread(self):
        keys = np.arange(10_000, dtype=np.int64)
        counts = np.bincount(hash_partition_array(keys, 8), minlength=8)
        # A multiplicative mix must not leave any worker starved.
        assert counts.min() > 500


class TestFactory:
    def test_names(self):
        assert EXECUTOR_NAMES == ("vector", "sharded")
        # ``vector`` is the engine's default: no executor object.
        assert make_executor("vector") is None
        executor = make_executor("sharded")
        assert isinstance(executor, ShardedExecutor)
        _close(executor)

    @pytest.mark.parametrize("name", ["parallel", "mmap", "serial"])
    def test_removed_names_rejected(self, name):
        with pytest.raises(ValueError):
            make_executor(name)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_executor("gpu")
