"""Executor parity: every backend must compute the same rounds.

The engine's contract is that executors only change *where* reducers run,
never *what* they compute: output pair multisets, ``Counters``, the
simulated critical path, and memory-limit enforcement must be identical
across ``SerialExecutor``, ``VectorExecutor``, and ``ShardedExecutor``
— for per-key rounds and batch rounds alike (every batch reducer runs
in the engine's process; the sharded backend only takes over growing
steps).
"""

from functools import partial

import numpy as np
import pytest

from repro.errors import MemoryLimitExceeded
from repro.mr.batch import group_count, group_min_first, group_sum
from repro.mr.engine import MREngine
from repro.mr.executor import (
    EXECUTOR_NAMES,
    SerialExecutor,
    VectorExecutor,
    make_executor,
)
from repro.mr.model import MRSpec
from repro.mr.partitioner import hash_partition, hash_partition_array
from repro.mr.sharded import ShardedExecutor

EXECUTORS = {
    "serial": SerialExecutor,
    "vector": VectorExecutor,
    "sharded": lambda: ShardedExecutor(num_shards=2),
}


def _close(executor):
    if hasattr(executor, "close"):
        executor.close()


def doubler(key, values):
    """Module-level per-key reducer."""
    return [(key, 2 * v) for v in values]


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


class TestLegacyRoundParity:
    """Per-key rounds across all three backends."""

    @pytest.fixture(params=list(EXECUTORS))
    def backend(self, request):
        executor = EXECUTORS[request.param]()
        yield executor
        _close(executor)

    def test_same_pairs_counters_and_critical_path(self, backend):
        pairs = [(i % 11, i) for i in range(200)]
        reference = make_engine(SerialExecutor())
        ref_out = reference.round(pairs, doubler)

        engine = make_engine(backend)
        out = engine.round(pairs, doubler)

        assert sorted(out) == sorted(ref_out)
        assert engine.counters.snapshot() == reference.counters.snapshot()
        assert engine.simulated_time == reference.simulated_time

    def test_local_memory_enforced(self, backend):
        engine = make_engine(backend, ml=4)
        pairs = [(0, i) for i in range(10)]  # one group of 10 > M_L = 4
        with pytest.raises(MemoryLimitExceeded):
            engine.round(pairs, doubler)

    def test_total_memory_enforced(self, backend):
        engine = make_engine(backend, mt=8, ml=8)
        pairs = [(i, i) for i in range(10)]
        with pytest.raises(MemoryLimitExceeded):
            engine.round(pairs, doubler)


class TestBatchRoundParity:
    """Batch rounds across all three backends."""

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
        reference = make_engine(SerialExecutor())
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
        assert EXECUTOR_NAMES == ("serial", "vector", "sharded")
        for name in EXECUTOR_NAMES:
            executor = make_executor(name)
            batch = getattr(executor, "batch_rounds", False)
            assert (name == "serial") == (not batch)
            _close(executor)

    @pytest.mark.parametrize("name", ["parallel", "mmap"])
    def test_removed_pool_names_rejected(self, name):
        with pytest.raises(ValueError):
            make_executor(name)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_executor("gpu")

    def test_supports_batch_property(self):
        assert not make_engine(SerialExecutor()).supports_batch
        assert make_engine(VectorExecutor()).supports_batch
        assert make_engine(ShardedExecutor(num_shards=2)).supports_batch
