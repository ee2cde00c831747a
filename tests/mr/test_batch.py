"""Tests for the batch reducers of :mod:`repro.mr.batch`.

Each reducer is checked against a plain per-group Python loop over the
``(keys, offsets, values)`` layout :meth:`MREngine.round_batch` hands it.
"""

import numpy as np
import pytest

from repro.mr.batch import group_count, group_min, group_min_first, group_sum


def grouped(rng, *, groups=12, rows=200, ncols=3, ties=False):
    """A random batch in reducer layout: ascending keys, offsets, rows."""
    sizes = rng.integers(1, 2 * rows // groups, size=groups)
    keys = np.sort(rng.choice(10_000, size=groups, replace=False)).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    values = rng.random((int(offsets[-1]), ncols))
    if ties:
        values = np.round(values * 2.0) / 2.0
    return keys, offsets, values


def per_group(offsets, values):
    return [values[offsets[i]:offsets[i + 1]] for i in range(len(offsets) - 1)]


EMPTY = (np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64), np.empty((0, 3)))


class TestGroupMinFirst:
    @pytest.mark.parametrize("sort_cols", [None, 1, 2])
    def test_matches_per_group_loop(self, sort_cols):
        rng = np.random.default_rng(3)
        keys, offsets, values = grouped(rng, ties=True)
        out_keys, out_values, out_counts = group_min_first(
            keys, offsets, values, sort_cols=sort_cols
        )
        d = values.shape[1] if sort_cols is None else sort_cols
        expected = [
            min(rows.tolist(), key=lambda row: tuple(row[:d]))  # first of ties
            for rows in per_group(offsets, values)
        ]
        assert np.array_equal(out_keys, keys)
        assert out_values.tolist() == expected
        assert out_counts.tolist() == [1] * len(keys)

    def test_ties_keep_arrival_order(self):
        keys = np.array([5], dtype=np.int64)
        offsets = np.array([0, 3], dtype=np.int64)
        values = np.array([[2.0, 1.0, 9.0], [1.0, 4.0, 8.0], [1.0, 4.0, 7.0]])
        _, out_values, _ = group_min_first(keys, offsets, values, sort_cols=2)
        # (1, 4) ties on the sort columns: the earlier row wins.
        assert out_values.tolist() == [[1.0, 4.0, 8.0]]

    def test_empty(self):
        out_keys, out_values, out_counts = group_min_first(*EMPTY, sort_cols=2)
        assert len(out_keys) == len(out_values) == len(out_counts) == 0


class TestGroupMin:
    def test_matches_per_group_loop(self):
        rng = np.random.default_rng(5)
        keys, offsets, values = grouped(rng)
        out_keys, out_values, out_counts = group_min(keys, offsets, values)
        expected = np.array([rows.min(axis=0) for rows in per_group(offsets, values)])
        assert np.array_equal(out_keys, keys)
        assert np.array_equal(out_values, expected)
        assert out_counts.tolist() == [1] * len(keys)

    def test_row_order_within_groups_is_irrelevant(self):
        rng = np.random.default_rng(6)
        keys, offsets, values = grouped(rng)
        shuffled = np.concatenate(
            [rng.permutation(rows) for rows in per_group(offsets, values)]
        )
        _, a, _ = group_min(keys, offsets, values)
        _, b, _ = group_min(keys, offsets, shuffled)
        assert np.array_equal(a, b)

    def test_empty(self):
        out_keys, out_values, out_counts = group_min(*EMPTY)
        assert len(out_keys) == len(out_values) == len(out_counts) == 0


class TestGroupSum:
    def test_matches_per_group_loop(self):
        rng = np.random.default_rng(7)
        keys, offsets, values = grouped(rng)
        out_keys, out_values, out_counts = group_sum(keys, offsets, values)
        expected = np.array([rows.sum(axis=0) for rows in per_group(offsets, values)])
        assert np.array_equal(out_keys, keys)
        assert np.allclose(out_values, expected)
        assert out_counts.tolist() == [1] * len(keys)

    def test_empty(self):
        out_keys, out_values, out_counts = group_sum(*EMPTY)
        assert len(out_keys) == len(out_values) == len(out_counts) == 0


class TestGroupCount:
    def test_group_sizes(self):
        rng = np.random.default_rng(8)
        keys, offsets, values = grouped(rng)
        out_keys, out_values, out_counts = group_count(keys, offsets, values)
        assert np.array_equal(out_keys, keys)
        assert out_values.shape == (len(keys), 1)
        assert out_values[:, 0].tolist() == np.diff(offsets).tolist()
        assert out_counts.tolist() == [1] * len(keys)

    def test_empty(self):
        out_keys, out_values, out_counts = group_count(*EMPTY)
        assert len(out_keys) == len(out_values) == len(out_counts) == 0
