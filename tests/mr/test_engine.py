"""Tests for :meth:`MREngine.round_batch`, the engine's one round type.

A batch round groups int64 keys with a stable shuffle, hands every
group to one vectorized reducer, enforces the ``M_L``/``M_T`` word
budgets (one word per key plus one per payload column), and charges
one round, one message per pair and the busiest hash-partitioned
worker's input + output rows to the critical path.  The critical-path
accounting has a native and a pure implementation; both are run.
"""

import numpy as np
import pytest

from repro.errors import MemoryLimitExceeded
from repro.mr import native
from repro.mr.batch import group_count, group_sum
from repro.mr.engine import MREngine
from repro.mr.model import MRSpec
from repro.mr.partitioner import hash_partition_array


def identity_reducer(keys, offsets, values):
    return np.repeat(keys, np.diff(offsets)), values, np.diff(offsets)


@pytest.fixture
def engine():
    return MREngine(MRSpec(total_memory=10_000, local_memory=100))


@pytest.fixture(params=["native", "py"])
def tier(request, monkeypatch):
    monkeypatch.setenv(native.KERNEL_IMPL_ENV, request.param)
    return request.param


class TestRoundBatch:
    def test_groups_by_key(self, engine):
        keys = np.array([7, 3, 7], dtype=np.int64)
        out_keys, out_values = engine.round_batch(
            keys, np.array([1.0, 2.0, 3.0]), group_sum
        )
        assert out_keys.tolist() == [3, 7]
        assert out_values.tolist() == [[2.0], [4.0]]

    def test_wordcount(self, engine):
        words = "the quick fox the lazy the".split()
        vocab = sorted(set(words))
        keys = np.array([vocab.index(w) for w in words], dtype=np.int64)
        out_keys, out_values = engine.round_batch(
            keys, np.ones(len(words)), group_count
        )
        counts = dict(zip(out_keys.tolist(), out_values[:, 0].tolist()))
        assert counts[vocab.index("the")] == 3
        assert sum(counts.values()) == len(words)

    def test_values_arrive_in_input_order(self, engine):
        keys = np.array([1, 0, 1, 0, 1], dtype=np.int64)
        values = np.arange(5, dtype=np.float64)
        seen = {}

        def check_order(group_keys, offsets, grouped):
            for i, key in enumerate(group_keys.tolist()):
                seen[key] = grouped[offsets[i]:offsets[i + 1], 0].tolist()
            return identity_reducer(group_keys, offsets, grouped)

        engine.round_batch(keys, values, check_order)
        assert seen == {0: [1.0, 3.0], 1: [0.0, 2.0, 4.0]}

    def test_empty_input(self, engine):
        out_keys, out_values = engine.round_batch(
            np.empty(0, dtype=np.int64), np.empty((0, 2)), group_sum
        )
        assert len(out_keys) == 0 and out_values.shape == (0, 2)
        assert engine.counters.rounds == 1

    def test_rounds_counted(self, engine):
        keys = np.array([0], dtype=np.int64)
        engine.round_batch(keys, np.ones(1), identity_reducer)
        engine.round_batch(keys, np.ones(1), identity_reducer)
        assert engine.counters.rounds == 2

    def test_messages_counted(self, engine):
        keys = np.array([0, 1, 0], dtype=np.int64)
        engine.round_batch(keys, np.ones(3), identity_reducer)
        assert engine.counters.messages == 3

    def test_one_dimensional_values_are_one_column(self, engine):
        keys = np.array([0, 1], dtype=np.int64)
        out_keys, out_values = engine.round_batch(
            keys, np.array([5.0, 6.0]), identity_reducer
        )
        assert out_values.shape == (2, 1)
        assert out_values[:, 0].tolist() == [5.0, 6.0]

    def test_key_value_length_mismatch(self, engine):
        with pytest.raises(ValueError):
            engine.round_batch(
                np.array([0, 1], dtype=np.int64), np.ones((3, 1)), group_sum
            )

    def test_shuffle_and_reduce_timed(self, engine):
        engine.round_batch(np.arange(4, dtype=np.int64), np.ones(4), group_sum)
        assert {"shuffle", "reduce"} <= set(engine.counters.timings)


class TestMemoryEnforcement:
    def test_local_limit(self):
        engine = MREngine(MRSpec(total_memory=1000, local_memory=4))
        keys = np.array([1, 9, 9, 9], dtype=np.int64)  # 6 words on key 9
        with pytest.raises(MemoryLimitExceeded) as exc:
            engine.round_batch(keys, np.ones(4), group_sum)
        assert exc.value.key == 9

    def test_total_limit(self):
        engine = MREngine(MRSpec(total_memory=10, local_memory=10))
        keys = np.arange(20, dtype=np.int64)
        with pytest.raises(MemoryLimitExceeded):
            engine.round_batch(keys, np.ones(20), group_sum)

    def test_enforcement_off(self):
        engine = MREngine(
            MRSpec(total_memory=10, local_memory=4), enforce_memory=False
        )
        keys = np.zeros(10, dtype=np.int64)
        out_keys, out_values = engine.round_batch(
            keys, np.ones(10), identity_reducer
        )
        assert len(out_keys) == 10

    def test_payload_columns_cost_a_word_each(self):
        engine = MREngine(MRSpec(total_memory=1000, local_memory=10))
        # One pair with a 10-column row: 11 words > 10.
        with pytest.raises(MemoryLimitExceeded):
            engine.round_batch(
                np.array([0], dtype=np.int64), np.ones((1, 10)), group_sum
            )
        # Nine columns fit exactly.
        engine.round_batch(
            np.array([0], dtype=np.int64), np.ones((1, 9)), group_sum
        )


class TestTimeModel:
    def test_critical_path_shrinks_with_workers(self, tier):
        keys = np.arange(64, dtype=np.int64)
        t1 = MREngine(MRSpec(10_000, 1000, num_workers=1))
        t8 = MREngine(MRSpec(10_000, 1000, num_workers=8))
        t1.round_batch(keys, np.ones(64), identity_reducer)
        t8.round_batch(keys, np.ones(64), identity_reducer)
        assert t8.simulated_time < t1.simulated_time

    def test_single_worker_time_is_total_load(self, tier):
        engine = MREngine(MRSpec(10_000, 1000, num_workers=1))
        engine.round_batch(np.arange(10, dtype=np.int64), np.ones(10), group_sum)
        # 10 input + 10 output rows on the only worker.
        assert engine.simulated_time == 20

    @pytest.mark.parametrize("workers", [2, 7, 16])
    def test_busiest_worker_of_the_hash_partition(self, tier, workers):
        rng = np.random.default_rng(workers)
        keys = rng.integers(0, 500, size=2_000).astype(np.int64)
        engine = MREngine(MRSpec(100_000, 1000, num_workers=workers))
        engine.round_batch(keys, np.ones(len(keys)), group_count)

        group_keys, sizes = np.unique(keys, return_counts=True)
        loads = np.zeros(workers, dtype=np.int64)
        # Each group's input rows plus its one output row.
        np.add.at(loads, hash_partition_array(group_keys, workers), sizes + 1)
        assert engine.simulated_time == int(loads.max())
