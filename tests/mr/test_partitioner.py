"""Tests for the hash key partitioners."""

import numpy as np

from repro.mr.partitioner import hash_partition, hash_partition_array


class TestHashPartition:
    def test_in_range(self):
        for key in range(100):
            assert 0 <= hash_partition(key, 7) < 7

    def test_stable(self):
        assert hash_partition("x", 5) == hash_partition("x", 5)

    def test_consecutive_integers_spread(self):
        workers = [hash_partition(i, 4) for i in range(64)]
        counts = [workers.count(w) for w in range(4)]
        # No worker should be starved or monopolize with a decent mixer.
        assert min(counts) >= 4
        assert max(counts) <= 40


class TestHashPartitionArray:
    """The batch router of the MR engine must send every key to the
    worker the scalar partitioner (and so the literal oracle) picks."""

    def test_agrees_with_scalar(self):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 10_000, size=500, dtype=np.int64)
        for workers in (2, 3, 7, 64):
            vectorized = hash_partition_array(keys, workers)
            for key, worker in zip(keys, vectorized):
                assert hash_partition(int(key), workers) == worker

    def test_wide_keys_agree_with_scalar(self):
        # Around the 16-bit fold, the 32-bit mask and up to the largest
        # key whose Python hash is the key itself (2**61 - 2).
        keys = np.array(
            [0, 1, 2**16 - 1, 2**16, 2**16 + 1, 2**32 - 1, 2**32,
             2**32 + 1, 2**48, 2**61 - 2],
            dtype=np.int64,
        )
        expected = [hash_partition(int(k), 5) for k in keys]
        assert hash_partition_array(keys, 5).tolist() == expected

    def test_in_range_and_int64(self):
        keys = np.arange(1000, dtype=np.int64)
        out = hash_partition_array(keys, 7)
        assert out.dtype == np.int64
        assert out.min() >= 0 and out.max() < 7
        assert len(np.unique(out)) == 7

    def test_single_worker(self):
        out = hash_partition_array(np.arange(50, dtype=np.int64), 1)
        assert not out.any()

    def test_empty_keys(self):
        out = hash_partition_array(np.empty(0, dtype=np.int64), 4)
        assert out.dtype == np.int64
        assert len(out) == 0

    def test_int32_keys_route_like_int64(self):
        keys = np.arange(0, 5000, 13, dtype=np.int32)
        assert np.array_equal(
            hash_partition_array(keys, 6),
            hash_partition_array(keys.astype(np.int64), 6),
        )
