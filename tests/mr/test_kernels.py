"""The scatter-min kernel vs the sort-based oracle.

:func:`repro.mr.kernels.scatter_min_rows` must reproduce the tie-break
of :func:`repro.mr.batch.group_min_first` — smallest leading columns,
then earliest arrival — *bit for bit*, on every candidate-set shape the
growing step can produce: equal distances, equal ``(distance, center)``
pairs, duplicate targets, empty batches.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mr.batch import group_min_first
from repro.mr.engine import _group_batch
from repro.mr.kernels import ScatterScratch, scatter_min_rows


def random_batch(rng, size, num_keys, distinct_values):
    """A candidate-like batch with heavy, adversarial tie collisions."""
    keys = rng.integers(0, num_keys, size=size).astype(np.int64)
    values = rng.integers(0, distinct_values, size=(size, 3)).astype(np.float64)
    return keys, values


def assert_matches_group_min_first(keys, values, sort_cols=2):
    """Scatter-min over the raw rows == the lexsort oracle over the
    stable-grouped rows (winner keys and winner payload rows).
    ``sort_cols=None`` ties on every column, as in the oracle."""
    keys = np.asarray(keys, dtype=np.int64)
    ncols = values.shape[1] if sort_cols is None else sort_cols
    cols = tuple(values[:, c] for c in range(ncols))
    got_ids, got_rows = scatter_min_rows(
        keys, cols, domain=int(keys.max()) + 1 if len(keys) else 1
    )
    if len(keys):
        gk, off, gv = _group_batch(keys, values)
    else:
        gk, off, gv = keys, np.zeros(1, dtype=np.int64), values
    ref_k, ref_v, _ = group_min_first(gk, off, gv, sort_cols=sort_cols)
    np.testing.assert_array_equal(got_ids, ref_k)
    np.testing.assert_array_equal(values[got_rows], ref_v)
    return got_ids, values[got_rows]


class TestTieBreakCases:
    """Tie-break shapes of the growing-step merge, named and random."""

    def test_all_rows_fully_tied(self):
        # Every candidate identical: the earliest arrival must win in
        # every group.
        keys = np.array([5, 2, 5, 2, 5, 5], dtype=np.int64)
        values = np.ones((6, 3))
        values[:, 2] = np.arange(6)  # payload records the arrival
        _, rows = assert_matches_group_min_first(keys, values)
        np.testing.assert_array_equal(rows[:, 2], [1, 0])

    def test_equal_distance_distinct_centers(self):
        # Ties on the distance column break towards the smaller center.
        keys = np.zeros(4, dtype=np.int64)
        values = np.array(
            [[1.0, 9.0, 0.1], [1.0, 3.0, 0.2], [1.0, 7.0, 0.3], [2.0, 1.0, 0.4]]
        )
        _, rows = assert_matches_group_min_first(keys, values)
        assert rows[0, 1] == 3.0  # smallest center among min-distance rows

    def test_equal_distance_and_center_takes_first_arrival(self):
        # Two tie-break columns: the dacc column must NOT break the tie.
        keys = np.zeros(3, dtype=np.int64)
        values = np.array([[1.0, 2.0, 0.9], [1.0, 2.0, 0.1], [1.0, 2.0, 0.5]])
        _, rows = assert_matches_group_min_first(keys, values)
        assert rows[0, 2] == 0.9  # first arrival's payload survives

    def test_empty_batch(self):
        ids, rows = assert_matches_group_min_first(
            np.empty(0, dtype=np.int64), np.empty((0, 3))
        )
        assert len(ids) == len(rows) == 0

    @pytest.mark.parametrize("sort_cols", [None, 1, 2, 3])
    def test_random_collision_heavy_batches(self, sort_cols):
        rng = np.random.default_rng(1234)
        for size, num_keys, span in [
            (1, 1, 1),
            (50, 3, 1),
            (200, 7, 2),
            (500, 40, 3),
            (2000, 100, 5),
        ]:
            keys, values = random_batch(rng, size, num_keys, span)
            assert_matches_group_min_first(keys, values, sort_cols=sort_cols)

    @given(
        seed=st.integers(0, 10_000),
        size=st.integers(0, 300),
        num_keys=st.integers(1, 20),
        span=st.integers(1, 4),
        sort_cols=st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_oracle(self, seed, size, num_keys, span, sort_cols):
        rng = np.random.default_rng(seed)
        keys, values = random_batch(rng, size, num_keys, span)
        assert_matches_group_min_first(keys, values, sort_cols=sort_cols)


class TestScatterMinRows:
    """The ungrouped (dense scatter) kernel against the grouped oracle."""

    def oracle(self, ids, cols):
        """Winner rows via the sort path: lexsort + stable first-per-group."""
        order = np.lexsort(tuple(reversed([np.asarray(c) for c in cols])) + (ids,))
        sorted_ids = ids[order]
        firsts = np.concatenate(
            ([0], np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1)
        )
        return sorted_ids[firsts], order[firsts]

    @given(
        seed=st.integers(0, 10_000),
        size=st.integers(0, 300),
        domain=st.integers(1, 25),
        span=st.integers(1, 4),
        ncols=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_oracle(self, seed, size, domain, span, ncols):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, domain, size=size).astype(np.int64)
        cols = tuple(
            rng.integers(0, span, size=size).astype(np.float64)
            for _ in range(ncols)
        )
        got_ids, got_rows = scatter_min_rows(ids, cols, domain=domain)
        if size == 0:
            assert len(got_ids) == len(got_rows) == 0
            return
        exp_ids, exp_rows = self.oracle(ids, cols)
        np.testing.assert_array_equal(got_ids, exp_ids)
        np.testing.assert_array_equal(got_rows, exp_rows)

    def test_scratch_reuse_across_calls_and_domains(self):
        # A shared scratch must not leak state between calls (buffers are
        # reset only on touched ids — a stale minimum would be a bug).
        scratch = ScatterScratch()
        rng = np.random.default_rng(7)
        for domain in (10, 4, 50, 50, 8):
            ids = rng.integers(0, domain, size=120).astype(np.int64)
            cols = (
                rng.integers(0, 3, size=120).astype(np.float64),
                rng.integers(0, 3, size=120).astype(np.float64),
            )
            got = scatter_min_rows(ids, cols, domain=domain, scratch=scratch)
            exp = self.oracle(ids, cols)
            np.testing.assert_array_equal(got[0], exp[0])
            np.testing.assert_array_equal(got[1], exp[1])

    def test_duplicate_targets_single_winner_each(self):
        ids = np.array([3, 3, 3, 3], dtype=np.int64)
        cols = (np.array([2.0, 1.0, 1.0, 1.0]), np.array([0.0, 5.0, 4.0, 4.0]))
        got_ids, got_rows = scatter_min_rows(ids, cols, domain=4)
        np.testing.assert_array_equal(got_ids, [3])
        np.testing.assert_array_equal(got_rows, [2])  # (1.0, 4.0) first arrival
