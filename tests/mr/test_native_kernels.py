"""Property and parity suite for the native (C) kernel tier.

The pure NumPy kernels are the oracle: every native kernel must compute
bit-for-bit what its pure counterpart computes — same IEEE arithmetic,
same ``(nd, center, source)`` tie-breaks, same output ordering — for any
input, including the awkward ones (equal-distance ties, duplicate
targets, empty and singleton frontiers, infinite distances).  The
quotient-eccentricity kernel has no NumPy twin: scipy's csgraph
Dijkstra is its oracle.

The suite also locks down the degradation contract (``py`` requested,
no compiler).
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components, dijkstra

from repro.core.cluster import cluster
from repro.core.config import ClusterConfig
from repro.core.diameter import quotient_diameter
from repro.errors import ConfigurationError
from repro.generators import rmat
from repro.graph.builder import from_edges
from repro.graph.ops import largest_connected_component
from repro.mr import native
from repro.mr.emit import EmitScratch
from repro.mr.kernels import ScatterScratch, scatter_min_rows
from repro.mr.partitioner import hash_partition_array
from repro.mrimpl.cluster2_mr import mr_cluster2
from repro.mrimpl.cluster_mr import mr_cluster
from repro.mrimpl.diameter_mr import mr_approximate_diameter
from repro.mrimpl.growing_mr import NO_CENTER, ArrayGrowingState, default_engine
from repro.runtime.runner import run as runtime_run

NATIVE = native.native_available()
needs_native = pytest.mark.skipif(
    not NATIVE, reason="native kernel tier unavailable (no C toolchain)"
)

CFG = ClusterConfig(seed=42, stage_threshold_factor=1.0, tau=16)


@pytest.fixture(scope="module")
def graph():
    return largest_connected_component(rmat(9, edge_factor=8, seed=11))[0]


@pytest.fixture()
def impl_env():
    """Restore the kernel-tier switch after each test."""
    before = os.environ.get(native.KERNEL_IMPL_ENV)
    yield
    if before is None:
        os.environ.pop(native.KERNEL_IMPL_ENV, None)
    else:
        os.environ[native.KERNEL_IMPL_ENV] = before


def _random_batch(rng, *, ncols, n, domain, ties=False):
    ids = rng.integers(0, domain, n).astype(np.int64)
    cols = []
    for _ in range(ncols):
        col = rng.random(n)
        if ties:
            # Quantize hard so equal-distance ties are common, and
            # sprinkle infinities (unreached targets).
            col = np.round(col * 3.0) / 3.0
            col[rng.random(n) < 0.1] = np.inf
        cols.append(col)
    return ids, tuple(cols)


def _assert_scatter_parity(ids, cols, domain):
    """Native winners equal the pure tier's for one batch."""
    with native.impl_overrides("py"):
        ref_ids, ref_rows = scatter_min_rows(
            ids, cols, domain=domain, scratch=ScatterScratch()
        )
    got_ids, got_rows = native.scatter_min_rows(
        ids, cols, domain=domain, scratch=ScatterScratch()
    )
    np.testing.assert_array_equal(got_ids, ref_ids)
    np.testing.assert_array_equal(got_rows, ref_rows)


# --------------------------------------------------------------------- #
# scatter-min: the winner-selection kernel
# --------------------------------------------------------------------- #


@needs_native
class TestScatterMinRows:
    @pytest.mark.parametrize("ncols", [1, 2, 3])
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_pure_oracle(self, ncols, ties):
        rng = np.random.default_rng(100 * ncols + ties)
        for trial in range(40):
            n = int(rng.integers(0, 200))
            domain = int(rng.integers(1, 60))
            ids, cols = _random_batch(
                rng, ncols=ncols, n=n, domain=domain, ties=ties
            )
            # Pure oracle explicitly (the dispatching wrapper would give
            # us the native path right back).
            with native.impl_overrides("py"):
                ref_ids, ref_rows = scatter_min_rows(
                    ids, cols, domain=domain, scratch=ScatterScratch()
                )
            got_ids, got_rows = native.scatter_min_rows(
                ids, cols, domain=domain, scratch=ScatterScratch()
            )
            np.testing.assert_array_equal(got_ids, ref_ids)
            np.testing.assert_array_equal(got_rows, ref_rows)

    def test_duplicate_targets_keep_earliest_arrival(self):
        ids = np.array([7, 7, 7, 7], dtype=np.int64)
        nd = np.array([2.0, 2.0, 2.0, 2.0])
        ctr = np.array([5.0, 3.0, 3.0, 9.0])
        got_ids, got_rows = native.scatter_min_rows(
            ids, (nd, ctr), domain=10, scratch=ScatterScratch()
        )
        np.testing.assert_array_equal(got_ids, [7])
        # Row 1 is the first arrival of the (2.0, 3.0) minimum.
        np.testing.assert_array_equal(got_rows, [1])

    def test_strided_2d_column_views(self):
        rng = np.random.default_rng(9)
        values = rng.random((50, 4))
        ids = rng.integers(0, 12, 50).astype(np.int64)
        cols = (values[:, 0], values[:, 2])  # stride-4 views
        with native.impl_overrides("py"):
            ref = scatter_min_rows(
                ids, cols, domain=12, scratch=ScatterScratch()
            )
        got = native.scatter_min_rows(
            ids, cols, domain=12, scratch=ScatterScratch()
        )
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])

    def test_singleton_and_inf(self):
        ids = np.array([3], dtype=np.int64)
        col = np.array([np.inf])
        got_ids, got_rows = native.scatter_min_rows(
            ids, (col,), domain=5, scratch=ScatterScratch()
        )
        np.testing.assert_array_equal(got_ids, [3])
        np.testing.assert_array_equal(got_rows, [0])

    @pytest.mark.parametrize("ncols", [1, 2, 3])
    def test_candidate_matrix_column_views(self, ncols):
        """The sharded merge's strided ``cand_values[:, k]`` columns,
        quantized so ties run down to the last column."""
        rng = np.random.default_rng(40 + ncols)
        values = np.round(rng.random((300, 4)) * 2.0) / 2.0
        ids = rng.integers(0, 25, 300).astype(np.int64)
        cols = tuple(values[:, k] for k in (0, 1, 3)[:ncols])
        _assert_scatter_parity(ids, cols, 25)

    def test_full_ties_keep_earliest_on_every_column(self):
        ids = np.array([4, 2, 4, 2, 4], dtype=np.int64)
        cols = tuple(np.full(5, 1.5) for _ in range(3))
        got_ids, got_rows = native.scatter_min_rows(
            ids, cols, domain=5, scratch=ScatterScratch()
        )
        np.testing.assert_array_equal(got_ids, [2, 4])
        np.testing.assert_array_equal(got_rows, [1, 0])
        _assert_scatter_parity(ids, cols, 5)

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_batches(self, n):
        ids = np.zeros(n, dtype=np.int64)
        cols = (np.ones(n), np.zeros(n))
        got = native.scatter_min_rows(
            ids, cols, domain=1, scratch=ScatterScratch()
        )
        np.testing.assert_array_equal(got[0], np.zeros(n))
        np.testing.assert_array_equal(got[1], np.zeros(n))
        _assert_scatter_parity(ids, cols, 1)

    @pytest.mark.parametrize(
        "largest",
        # 11-bit radix digits: no pass (all ids 0), one pass (largest id
        # below 2**11), two passes (up to 2**22 - 1).
        [0, 1, 2047, 2048, 5000, (1 << 20) + 3],
    )
    @pytest.mark.parametrize("order", ["random", "descending"])
    def test_radix_order_over_id_widths(self, largest, order):
        """Distinct ids come back ascending whatever the digit count of
        the largest id, with duplicates and a scratch reused across
        calls (the stamp generation must isolate them)."""
        rng = np.random.default_rng(largest)
        domain = largest + 1
        scratch = ScatterScratch()
        for trial in range(3):
            ids = rng.integers(0, domain, 400).astype(np.int64)
            ids[:2] = largest  # the largest id, duplicated
            if order == "descending":
                ids = np.sort(ids)[::-1].copy()
            cols = (np.round(rng.random(400) * 4.0), rng.random(400))
            with native.impl_overrides("py"):
                ref = scatter_min_rows(
                    ids, cols, domain=domain, scratch=ScatterScratch()
                )
            got = native.scatter_min_rows(
                ids, cols, domain=domain, scratch=scratch
            )
            np.testing.assert_array_equal(got[0], ref[0])
            np.testing.assert_array_equal(got[1], ref[1])
            assert got[0][-1] == largest

    def test_dispatching_wrapper_empty_batch(self, impl_env):
        os.environ[native.KERNEL_IMPL_ENV] = "native"
        ids = np.empty(0, dtype=np.int64)
        got_ids, got_rows = scatter_min_rows(
            ids, (np.empty(0),), domain=4, scratch=ScatterScratch()
        )
        assert len(got_ids) == 0 and len(got_rows) == 0


# --------------------------------------------------------------------- #
# histogram kernels
# --------------------------------------------------------------------- #


@needs_native
class TestCountingKernels:
    def test_bincount_into_accumulates(self):
        keys = np.array([0, 2, 2, 5], dtype=np.int64)
        hist = np.ones(6, dtype=np.int64)
        native.bincount_into(keys, hist)
        np.testing.assert_array_equal(hist, [2, 1, 3, 1, 1, 2])

    def test_partition_loads_matches_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = int(rng.integers(1, 300))
            nw = int(rng.integers(1, 9))
            keys = rng.integers(0, 100_000, n).astype(np.int64)
            weights = rng.integers(1, 40, n).astype(np.int64)
            loads = np.zeros(nw, dtype=np.int64)
            got = native.partition_loads(keys, weights, nw, loads)
            workers = hash_partition_array(keys, nw)
            ref = int(
                np.bincount(workers, weights=weights, minlength=nw).max()
            )
            assert got == ref
            assert not loads.any(), "loads scratch must be zeroed"


def _finish_inputs(rng, n, domain):
    """Candidate columns plus target state for ``finish_batch``."""
    keys = rng.integers(0, domain, n).astype(np.int64)
    if n:
        keys[rng.integers(0, n)] = domain - 1
    nd = np.round(rng.random(n) * 4.0) / 4.0
    src = rng.integers(0, 50, n).astype(np.int64)
    aidx = rng.integers(0, 80, n).astype(np.int64)
    dist = np.full(domain, 0.5)
    dist[keys] = np.round(rng.random(n) * 4.0) / 4.0
    weights = rng.random(80)
    center = rng.integers(-1, 50, 50).astype(np.int64)
    return keys, nd, src, aidx, dist, weights, center


def _finish(inputs, hist, *, num_workers=1):
    n = len(inputs[0])
    banks = (
        np.empty(n, np.int64), np.empty(n), np.empty(n, np.int64),
        np.empty(n), np.empty(n), np.empty(n),
    )
    loads = np.zeros(num_workers, np.int64)
    kept, summary = native.finish_batch(
        *inputs, *banks, hist=hist, gk=np.empty(n, np.int64), loads=loads,
    )
    if hist is not None:
        assert not loads.any(), "loads must be restored to all-zero"
    return kept, summary, banks


def _summary_oracle(counts_by_key, num_workers):
    """``(max_count, smallest key at it, max load)`` of a dense
    per-key count array, each group loading its worker count + 1."""
    groups = np.flatnonzero(counts_by_key)
    if not len(groups):
        return 0, -1, 0
    counts = counts_by_key[groups]
    top = int(counts.max())
    loads = np.bincount(
        hash_partition_array(groups, num_workers), weights=counts + 1,
        minlength=num_workers,
    )
    return top, int(groups[counts == top][0]), int(loads.max())


@needs_native
class TestFinishBatch:
    @pytest.mark.parametrize("domain", [1, 3, 2048, 5000, (1 << 22) + 5])
    @pytest.mark.parametrize("num_workers", [1, 2, 7])
    def test_summary_matches_unique(self, domain, num_workers):
        """The stamped summary equals the ``np.unique`` histogram's: the
        largest group, the smallest key reaching it (ties included) and
        the busiest worker — for any key order."""
        rng = np.random.default_rng(domain + num_workers)
        for n in (0, 1, 7, 900):
            inputs = _finish_inputs(rng, n, domain)
            keys = inputs[0]
            if n > 1 and domain > 1:
                inputs = (np.sort(keys)[::-1].copy(),) + inputs[1:]
                keys = inputs[0]
            hist = np.zeros(domain, dtype=np.int64)
            _, summary, _ = _finish(inputs, hist, num_workers=num_workers)
            dense = np.bincount(keys, minlength=domain)
            assert summary == _summary_oracle(dense, num_workers)
            assert not hist.any(), "hist must be restored to all-zero"

    def test_filter_columns_and_null_hist(self):
        """The improvement filter keeps strictly improved targets and
        gathers w/center/float-source; a NULL histogram skips the
        accounting but filters identically."""
        rng = np.random.default_rng(12)
        inputs = _finish_inputs(rng, 500, 120)
        keys, nd, src, aidx, dist, weights, center = inputs
        kept, summary, banks = _finish(inputs, np.zeros(120, np.int64))
        imp = nd < dist[keys]
        assert kept == int(imp.sum()) and summary[0] > 0
        expect = (
            keys[imp], nd[imp], src[imp], weights[aidx[imp]],
            center[src[imp]].astype(np.float64), src[imp].astype(np.float64),
        )
        for got, ref in zip(banks, expect):
            np.testing.assert_array_equal(got[:kept], ref)
        kept2, summary2, banks2 = _finish(inputs, None)
        assert (kept2, summary2) == (kept, None)
        for got, ref in zip(banks2, banks):
            np.testing.assert_array_equal(got[:kept], ref[:kept])

    def test_summary_arguments_are_checked(self):
        inputs = _finish_inputs(np.random.default_rng(1), 4, 10)
        banks = [np.empty(4, np.int64), np.empty(4), np.empty(4, np.int64),
                 np.empty(4), np.empty(4), np.empty(4)]
        with pytest.raises(ValueError, match="loads"):
            native.finish_batch(
                *inputs, *banks, hist=np.zeros(10, np.int64),
                gk=np.empty(4, np.int64), loads=np.zeros(0, np.int64),
            )


# --------------------------------------------------------------------- #
# the forced-round scan
# --------------------------------------------------------------------- #


def _silent(indptr, indices, frozen, rows, owners=None, localidx=None,
            shard=0):
    """Per row: no arc into a target the push could emit to."""
    out = np.zeros(len(rows), dtype=bool)
    for i, r in enumerate(rows):
        keys = indices[indptr[r]:indptr[r + 1]]
        if owners is None:
            open_ = ~frozen[keys]
        else:
            own = owners[keys] == shard
            open_ = own & ~frozen[np.where(own, localidx[keys], 0)]
        out[i] = not open_.any()
    return out


@needs_native
class TestForcedScan:
    """``rk_forced_scan`` against the NumPy forced-round masks, with
    frozen rows that have no open neighbour left out and marked."""

    def _state(self, rng, n):
        center = np.where(
            rng.random(n) < 0.3, NO_CENTER, rng.integers(0, max(n, 1), n)
        ).astype(np.int64)
        # Quantized distances so dist == delta ties are common.
        dist = np.round(rng.random(n) * 4.0) / 4.0
        dist[center == NO_CENTER] = np.inf
        frozen = (center != NO_CENTER) & (rng.random(n) < 0.6)
        return center, dist, frozen

    @pytest.mark.parametrize("n", [0, 1, 2, 90])
    def test_matches_masks(self, n):
        rng = np.random.default_rng(n)
        degs = rng.integers(0, 5, n)
        indptr = np.concatenate(([0], np.cumsum(degs))).astype(np.int64)
        indices = rng.integers(0, max(n, 1), int(degs.sum())).astype(np.int64)
        for trial in range(20):
            center, dist, frozen = self._state(rng, n)
            delta = 0.5
            ids = np.empty(n, np.int64)
            eff = np.empty(n)
            cum = np.empty(n, np.int64)
            dead = np.zeros(n, np.uint8)
            t = native.forced_scan(
                center, dist, frozen, delta, indptr, indices, dead, ids,
                eff, cum,
            )
            e = np.where(frozen, 0.0, dist)
            rows = np.flatnonzero((center != NO_CENTER) & (e < delta))
            silent = frozen[rows] & _silent(indptr, indices, frozen, rows)
            np.testing.assert_array_equal(dead, np.isin(
                np.arange(n), rows[silent]
            ))
            rows = rows[~silent]
            np.testing.assert_array_equal(ids[:t], rows)
            np.testing.assert_array_equal(eff[:t], e[rows])
            np.testing.assert_array_equal(cum[:t], np.cumsum(degs[rows]))
            # Marked rows are skipped without a second look.
            dead[:] = 1
            t = native.forced_scan(
                center, dist, frozen, delta, indptr, indices, dead, ids,
                eff, cum,
            )
            np.testing.assert_array_equal(
                ids[:t], np.flatnonzero((center != NO_CENTER) & ~frozen
                                        & (dist < delta))
            )

    def test_mapped_layout_marks(self, graph):
        """Shard rows: only owned open neighbours keep a frozen row
        emitting (a frozen source never emits into another shard)."""
        n = graph.num_nodes
        owners = (np.arange(n) % 3).astype(np.int32)
        localidx = np.zeros(n, np.int32)
        for k in range(3):
            localidx[owners == k] = np.arange(int((owners == k).sum()))
        rows = np.flatnonzero(owners == 1)
        degs = graph.indptr[rows + 1] - graph.indptr[rows]
        indptr = np.concatenate(([0], np.cumsum(degs))).astype(np.int64)
        indices = np.concatenate(
            [graph.indices[graph.indptr[r]:graph.indptr[r + 1]] for r in rows]
        ).astype(np.int64)
        rng = np.random.default_rng(5)
        center = rows.copy()
        dist = np.zeros(len(rows))
        frozen = rng.random(len(rows)) < 0.8
        buf = [np.empty(len(rows), t) for t in (np.int64, float, np.int64)]
        dead = np.zeros(len(rows), np.uint8)
        t = native.forced_scan(
            center, dist, frozen, 1.0, indptr, indices, dead, *buf,
            owners=owners, localidx=localidx, shard_id=1,
        )
        silent = frozen & _silent(
            indptr, indices, frozen, np.arange(len(rows)), owners,
            localidx, 1,
        )
        assert silent.any() and not silent.all()
        np.testing.assert_array_equal(dead.astype(bool), silent)
        np.testing.assert_array_equal(buf[0][:t], np.flatnonzero(~silent))

    def test_rejects_short_buffers(self):
        center = np.zeros(4, np.int64)
        dist = np.zeros(4)
        frozen = np.zeros(4, bool)
        indptr = np.zeros(5, np.int64)
        indices = np.zeros(0, np.int64)
        with pytest.raises(ValueError, match="n-row outputs"):
            native.forced_scan(
                center, dist, frozen, 1.0, indptr, indices,
                np.zeros(4, np.uint8), np.empty(3, np.int64), np.empty(4),
                np.empty(4, np.int64),
            )
        with pytest.raises(ValueError, match="n-row outputs"):
            native.forced_scan(
                center, dist, frozen, 1.0, indptr, indices,
                np.zeros(2, np.uint8), np.empty(4, np.int64), np.empty(4),
                np.empty(4, np.int64),
            )


# --------------------------------------------------------------------- #
# the quotient map side
# --------------------------------------------------------------------- #

#: Edge weights and center offsets the quotient property draws from:
#: denormals, values whose sums round or tie, and extremes whose sums
#: overflow to infinity.  ``CSRGraph`` rejects zero weights.
_Q_WEIGHTS = [5e-324, 1e-310, 1e-300, 0.25, 0.5, 1.0, 3.0, 1e300, 1.7e308]
_Q_OFFSETS = [0.0, 5e-324, 0.25, 1.0, 1e300]


@st.composite
def quotient_inputs(draw):
    """A raw symmetric CSR (self-loops and parallel edges kept) with a
    clustering: one cluster, all singletons, or random ids over ``k``
    clusters (some possibly empty)."""
    from repro.graph.csr import CSRGraph

    n = draw(st.integers(0, 12))
    edges = draw(st.lists(
        st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)),
                  st.sampled_from(_Q_WEIGHTS)),
        max_size=40 if n else 0,
    ))
    src = [u for u, v, _ in edges] + [v for u, v, _ in edges if u != v]
    dst = [v for u, v, _ in edges] + [u for u, v, _ in edges if u != v]
    wts = [w for *_, w in edges] + [w for u, v, w in edges if u != v]
    order = np.argsort(np.asarray(src, dtype=np.int64), kind="stable")
    graph = CSRGraph(
        np.concatenate(([0], np.cumsum(np.bincount(
            np.asarray(src, dtype=np.int64), minlength=n)))),
        np.asarray(dst, dtype=np.int64)[order],
        np.asarray(wts, dtype=np.float64)[order],
    )
    shape = draw(st.sampled_from(["one", "singletons", "random"]))
    if shape == "one":
        nc = 1
        ids = np.zeros(n, dtype=np.int64)
    elif shape == "singletons":
        nc = max(n, 1)
        ids = np.arange(n, dtype=np.int64)
    else:
        nc = draw(st.integers(1, max(n, 1) + 3))
        ids = np.asarray(
            draw(st.lists(st.integers(0, nc - 1), min_size=n, max_size=n)),
            dtype=np.int64,
        )
    d = np.asarray(
        draw(st.lists(st.sampled_from(_Q_OFFSETS), min_size=n, max_size=n)),
        dtype=np.float64,
    )
    return graph, ids, d, nc


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.int64)


@needs_native
class TestQuotientPairs:
    """``rk_quotient_pairs`` against the NumPy map side and its combine."""

    @given(quotient_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_oracle_bit_for_bit(self, case):
        from repro.core.quotient import quotient_pairs

        graph, ids, d, nc = case
        with native.impl_overrides("py"):
            ref = quotient_pairs(graph, ids, d, nc)
        got = native.quotient_pairs(
            graph.indptr, graph.indices, graph.weights, ids, d, nc
        )
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype and g.flags.c_contiguous
            np.testing.assert_array_equal(_bits(g), _bits(r))
        keys = got[0]
        assert np.all(keys[1:] > keys[:-1])
        if nc == 1:
            assert len(keys) == 0

    def test_combines_parallel_pairs_to_their_minimum(self):
        g = from_edges(
            np.array([0, 1, 2, 0]), np.array([1, 2, 3, 3]),
            np.array([1.0, 2.0, 1.0, 5.0]), 4,
        )
        ids = np.array([0, 0, 1, 1], dtype=np.int64)
        d = np.array([0.0, 1.0, 1.0, 0.0])
        keys, values = native.quotient_pairs(
            g.indptr, g.indices, g.weights, ids, d, 2
        )
        # Arcs 0->3 (w 5 -> 5.0) and 1->2 (w 2 -> 4.0), both pair (0, 1).
        np.testing.assert_array_equal(keys, [1])
        np.testing.assert_array_equal(values, [4.0])

    def test_rejects_per_node_length_mismatch(self, graph):
        n = graph.num_nodes
        with pytest.raises(ValueError, match="one entry per node"):
            native.quotient_pairs(
                graph.indptr, graph.indices, graph.weights,
                np.zeros(n - 1, np.int64), np.zeros(n), 2,
            )

    def test_rejects_cluster_ids_outside_the_domain(self, graph):
        n = graph.num_nodes
        with pytest.raises(ValueError, match="cid must lie in"):
            native.quotient_pairs(
                graph.indptr, graph.indices, graph.weights,
                np.full(n, 2, np.int64), np.zeros(n), 2,
            )

    def test_unpackable_cluster_count_raises_before_the_kernel(
        self, graph, monkeypatch
    ):
        from repro.core.quotient import quotient_pairs
        from repro.errors import GraphValidationError
        from repro.graph.builder import MAX_PACKED_NODES

        def kernel(*args):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(native, "quotient_pairs", kernel)
        ids = np.zeros(graph.num_nodes, np.int64)
        with pytest.raises(GraphValidationError, match="packed pair-key"):
            quotient_pairs(
                graph, ids, np.zeros(graph.num_nodes), MAX_PACKED_NODES + 1
            )


# --------------------------------------------------------------------- #
# the apply half of the merge
# --------------------------------------------------------------------- #


def _line_graph(n):
    u = np.arange(n - 1, dtype=np.int64)
    return from_edges(u, u + 1, np.ones(n - 1), n)


def _apply_tiers(graph, arrays, active, keys, rows, cols, src):
    """``_apply`` of one merge on both tiers, from the same state:
    ``[(returned, state arrays, new frontier)]`` for py then native."""
    out = []
    for impl in ("py", "native"):
        state = ArrayGrowingState(graph)
        for name, value in arrays.items():
            getattr(state, name)[:] = value
        state._active = active.copy()
        with native.impl_overrides(impl):
            returned = state._apply(keys, rows, *cols, src=src)
        out.append((returned, state.snapshot_arrays(), state._active.copy()))
    return out


def _assert_tiers_agree(results):
    (ref_ret, ref_arrays, ref_active), (ret, arrays, active) = results
    assert ret == ref_ret
    np.testing.assert_array_equal(active, ref_active)
    for name, value in ref_arrays.items():
        np.testing.assert_array_equal(arrays[name], value, err_msg=name)


@needs_native
class TestApply:
    """Native ``_apply`` (``rk_apply``) against the NumPy ``_apply``."""

    def _random_merge(self, rng, n):
        frozen = rng.random(n) < 0.25
        center = np.where(
            rng.random(n) < 0.5, NO_CENTER, rng.integers(0, n, n)
        ).astype(np.int64)
        dist = np.round(rng.random(n) * 4.0) / 4.0
        dist[center == NO_CENTER] = np.inf
        changed = rng.random(n) < 0.3
        arrays = {
            "frozen": frozen, "center": center, "dist": dist,
            "dacc": rng.random(n) * 10.0, "changed": changed,
        }
        active = np.flatnonzero(changed).astype(np.int64)
        c = 3 * n
        keys_all = rng.integers(0, n, c).astype(np.int64)
        nd = np.round(rng.random(c) * 4.0) / 4.0  # ties with dist
        ctr = rng.integers(0, n, c).astype(np.float64)
        w = rng.random(c)
        src = rng.integers(0, n, c).astype(np.int64)  # often adopted too
        with native.impl_overrides("py"):
            keys, rows = scatter_min_rows(
                keys_all, (nd, ctr, src.astype(np.float64)), domain=n
            )
        return arrays, active, keys, rows, (nd, ctr, w), src

    def test_random_merges_match(self):
        rng = np.random.default_rng(21)
        graph = _line_graph(60)
        for trial in range(30):
            arrays, active, keys, rows, cols, src = self._random_merge(
                rng, 60
            )
            results = _apply_tiers(
                graph, arrays, active, keys, rows, cols, src
            )
            _assert_tiers_agree(results)
            assert results[0][0][0] > 0

    def test_wire_format_dacc_column(self):
        """The sharded form: no ``src``, the accumulated distance read
        from the strided ``values[:, 2]`` column of the candidate matrix."""
        rng = np.random.default_rng(22)
        graph = _line_graph(60)
        arrays, active, keys, rows, cols, _ = self._random_merge(rng, 60)
        values = np.column_stack((cols[0], cols[1], cols[2] * 7.0, cols[1]))
        strided = (values[:, 0], values[:, 1], values[:, 2])
        results = _apply_tiers(
            graph, arrays, active, keys, rows, strided, None
        )
        _assert_tiers_agree(results)
        adopted = results[1][2]
        win = rows[np.searchsorted(keys, adopted)]
        np.testing.assert_array_equal(
            results[1][1]["dist_acc"][adopted], values[win, 2]
        )

    def test_frozen_non_improving_and_no_center(self):
        """Target 0 is frozen, 1 ties its distance (not strictly
        improved), 2 improves an assigned row, 3 and 4 get their first
        center: three updates, two of them new."""
        graph = _line_graph(5)
        arrays = {
            "frozen": np.array([1, 0, 0, 0, 0], dtype=bool),
            "center": np.array([0, 1, 1, NO_CENTER, NO_CENTER]),
            "dist": np.array([0.0, 1.0, 2.0, np.inf, np.inf]),
            "dacc": np.array([0.0, 1.0, 2.0, np.inf, np.inf]),
            "changed": np.array([0, 1, 0, 0, 1], dtype=bool),
        }
        keys = np.arange(5, dtype=np.int64)
        rows = np.array([4, 3, 2, 1, 0], dtype=np.int64)
        nd = np.array([0.5, 0.5, 1.5, 1.0, 0.1])
        ctr = np.array([3.0, 3.0, 3.0, 3.0, 3.0])
        w = np.full(5, 0.25)
        src = np.zeros(5, dtype=np.int64)
        results = _apply_tiers(
            graph, arrays, np.array([1, 4]), keys, rows, (nd, ctr, w), src
        )
        _assert_tiers_agree(results)
        (updated, newly), state, active = results[1]
        assert (updated, newly) == (3, 2)
        np.testing.assert_array_equal(active, [2, 3, 4])
        np.testing.assert_array_equal(state["center"], [0, 1, 3, 3, 3])
        np.testing.assert_array_equal(
            state["changed"], [False, False, True, True, True]
        )

    def test_winner_source_adopted_in_the_same_merge(self):
        """A chain: node 1's winner comes from node 0 and node 2's from
        node 1, and nodes 1 and 2 both adopt.  Node 2's accumulated
        distance must use node 1's dacc *before* this merge wrote it."""
        graph = _line_graph(4)
        arrays = {
            "frozen": np.zeros(4, dtype=bool),
            "center": np.array([0, 0, 0, 0]),
            "dist": np.array([0.0, 5.0, 9.0, 9.0]),
            "dacc": np.array([0.0, 5.0, 9.0, 9.0]),
            "changed": np.zeros(4, dtype=bool),
        }
        keys = np.array([1, 2, 3], dtype=np.int64)
        rows = np.array([0, 1, 2], dtype=np.int64)
        nd = np.array([1.0, 2.0, 3.0])
        ctr = np.zeros(3)
        w = np.array([1.0, 2.0, 3.0])
        src = np.array([0, 1, 2], dtype=np.int64)
        results = _apply_tiers(
            graph, arrays, np.empty(0, np.int64), keys, rows,
            (nd, ctr, w), src,
        )
        _assert_tiers_agree(results)
        np.testing.assert_array_equal(
            results[1][1]["dist_acc"], [0.0, 1.0, 7.0, 12.0]
        )


def _push_oracle(indptr, indices, weights, srcs, eff, delta, frozen,
                 owners=None, localidx=None, shard=0):
    """The push's messages, one Python row at a time: ``(key, src, arc)``."""
    rows = []
    for u, e in zip(srcs.tolist(), eff.tolist()):
        for arc in range(indptr[u], indptr[u + 1]):
            key, w = int(indices[arc]), weights[arc]
            if w > delta or e + w > delta:
                continue
            if owners is None:
                closed = frozen[key]
            elif owners[key] == shard:
                closed = frozen[localidx[key]]
            else:
                closed = frozen[u]
            if not closed:
                rows.append((key, u, arc))
    return rows


@needs_native
class TestPushOpenTargets:
    """``rk_emit_push`` keeps exactly the round's messages: light arcs
    within Δ into open targets, on both layouts."""

    def _push(self, indptr, indices, weights, srcs, eff, delta, frozen,
              **sidecars):
        total = int((indptr[srcs + 1] - indptr[srcs]).sum())
        banks = [np.empty(total, np.int64), np.empty(total),
                 np.empty(total, np.int64), np.empty(total, np.int64)]
        cnt = native.emit_push_into(
            indptr, indices, weights, srcs, eff, delta, *banks,
            frozen=frozen, **sidecars,
        )
        keys, nd, src, aidx = (b[:cnt] for b in banks)
        np.testing.assert_array_equal(nd, eff[np.searchsorted(srcs, src)]
                                      + weights[aidx])
        return list(zip(keys.tolist(), src.tolist(), aidx.tolist()))

    def test_whole_graph(self, graph):
        rng = np.random.default_rng(2)
        delta = float(np.median(graph.weights))
        for _ in range(5):
            frozen = rng.random(graph.num_nodes) < 0.4
            srcs = np.flatnonzero(rng.random(graph.num_nodes) < 0.5)
            eff = np.where(frozen[srcs], 0.0, rng.random(len(srcs)) * delta)
            got = self._push(graph.indptr, graph.indices, graph.weights,
                             srcs, eff, delta, frozen)
            assert got == _push_oracle(graph.indptr, graph.indices,
                                       graph.weights, srcs, eff, delta,
                                       frozen)

    @pytest.mark.parametrize("shard_id", [0, 2])
    def test_mapped_layout(self, graph, shard_id):
        """Owned keys are tested through ``localidx``; other shards'
        keys are kept from live sources only."""
        rng = np.random.default_rng(shard_id)
        n = graph.num_nodes
        owners = rng.integers(0, 3, n).astype(np.int32)
        localidx = np.zeros(n, dtype=np.int32)
        for k in range(3):
            mine = np.flatnonzero(owners == k)
            localidx[mine] = np.arange(len(mine))
        rows = np.flatnonzero(owners == shard_id)
        degs = graph.indptr[rows + 1] - graph.indptr[rows]
        indptr = np.concatenate(([0], np.cumsum(degs))).astype(np.int64)
        aidx = np.concatenate(
            [np.arange(graph.indptr[r], graph.indptr[r + 1]) for r in rows]
        )
        indices, weights = graph.indices[aidx], graph.weights[aidx]
        frozen = rng.random(len(rows)) < 0.5
        srcs = np.arange(len(rows), dtype=np.int64)
        delta = float(np.median(graph.weights))
        eff = np.where(frozen, 0.0, rng.random(len(rows)) * delta)
        sidecars = dict(owners=owners, localidx=localidx)
        got = self._push(indptr, indices, weights, srcs, eff, delta, frozen,
                         shard_id=shard_id, **sidecars)
        want = _push_oracle(indptr, indices, weights, srcs, eff, delta,
                            frozen, shard=shard_id, **sidecars)
        assert want and got == want

    @pytest.mark.parametrize("cut", ["below", "tie", "above"])
    def test_delta_cut_is_inclusive(self, graph, cut):
        """An arc is light iff ``w <= Δ`` and kept iff ``eff + w <= Δ``:
        Δ below every weight keeps nothing, Δ equal to a weight keeps
        the arcs that tie it, Δ above every path keeps every open one."""
        w = np.sort(graph.weights)
        delta = {"below": float(w[0]) / 2, "tie": float(w[len(w) // 2]),
                 "above": 4 * float(w[-1])}[cut]
        frozen = np.random.default_rng(5).random(graph.num_nodes) < 0.3
        srcs = np.arange(graph.num_nodes, dtype=np.int64)
        eff = np.zeros(graph.num_nodes)
        got = self._push(graph.indptr, graph.indices, graph.weights,
                         srcs, eff, delta, frozen)
        assert got == _push_oracle(graph.indptr, graph.indices,
                                   graph.weights, srcs, eff, delta, frozen)
        open_arcs = int((~frozen[graph.indices]).sum())
        if cut == "below":
            assert got == []
        elif cut == "tie":
            assert any(graph.weights[a] == delta for _, _, a in got)
        else:
            assert len(got) == open_arcs

    def test_empty_frontier(self, graph):
        srcs = np.empty(0, dtype=np.int64)
        assert self._push(graph.indptr, graph.indices, graph.weights, srcs,
                          np.empty(0), 1.0,
                          np.zeros(graph.num_nodes, bool)) == []

    def test_row_flags_must_be_contiguous_bytes(self, graph):
        args = (graph.indptr, graph.indices, graph.weights,
                np.empty(0, np.int64), np.empty(0), 1.0,
                *(np.empty(0),) * 4)
        for frozen in (np.zeros(graph.num_nodes, np.int64),
                       np.zeros(2 * graph.num_nodes, bool)[::2]):
            with pytest.raises(ValueError, match="row flags"):
                native.emit_push_into(*args, frozen=frozen)

    def test_whole_graph_layout_needs_one_flag_per_id(self, graph):
        """Without sidecars keys index ``frozen`` directly: a shard-sized
        flag array is refused before a kernel reads past it."""
        short = np.zeros(graph.num_nodes - 1, bool)
        with pytest.raises(ValueError, match="whole graph"):
            native.emit_push_into(
                graph.indptr, graph.indices, graph.weights,
                np.empty(0, np.int64), np.empty(0), 1.0,
                *(np.empty(0),) * 4, frozen=short,
            )
        n = graph.num_nodes
        with pytest.raises(ValueError, match="whole graph"):
            native.forced_scan(
                np.zeros(n, np.int64), np.zeros(n), np.zeros(n + 1, bool),
                1.0, graph.indptr, graph.indices, np.zeros(n, np.uint8),
                np.empty(n, np.int64), np.empty(n), np.empty(n, np.int64),
            )

    def test_sidecars_must_be_int32(self, graph):
        with pytest.raises(ValueError, match="int32"):
            native.emit_push_into(
                graph.indptr, graph.indices, graph.weights,
                np.empty(0, np.int64), np.empty(0), 1.0,
                *(np.empty(0),) * 4,
                frozen=np.zeros(graph.num_nodes, bool),
                owners=np.zeros(graph.num_nodes, np.int64),
                localidx=np.zeros(graph.num_nodes, np.int32),
            )


# --------------------------------------------------------------------- #
# quotient eccentricity: the CL-DIAM quotient-diameter kernel
# --------------------------------------------------------------------- #

#: Weight pools the Dijkstra parity must survive: heavy ties, and
#: magnitudes so far apart that fl(d + w) == d (effectively zero arcs).
_WEIGHT_POOLS = (
    (1.0,),
    (1.0, 2.0),
    (1e-300, 1.0, 1e300),
    (1e-300, 1e300),
    (0.1, 0.2, 0.3),
)


@st.composite
def _quotient_graphs(draw):
    """Undirected graphs with isolated nodes and several components."""
    n = draw(st.integers(0, 40))
    pool = draw(st.sampled_from(_WEIGHT_POOLS))
    if n < 2:
        u = v = np.empty(0, dtype=np.int64)
    else:
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=3 * n,
            )
        )
        pairs = [(a, b) for a, b in pairs if a != b]
        u = np.array([a for a, _ in pairs], dtype=np.int64)
        v = np.array([b for _, b in pairs], dtype=np.int64)
    w = np.array(
        draw(st.lists(st.sampled_from(pool), min_size=len(u), max_size=len(u))),
        dtype=np.float64,
    )
    return from_edges(u, v, w, n)


def _scipy_eccs(g):
    """Per-source max finite distance via scipy (the oracle)."""
    if g.num_nodes == 0:
        return np.empty(0)
    dist = dijkstra(g.to_scipy(), directed=False)
    dist[~np.isfinite(dist)] = 0.0
    return dist.max(axis=1)


def _native_eccs(g):
    return np.array(
        [
            native.quotient_ecc(
                g.indptr, g.indices, g.weights, np.array([s]),
                skip_reached=False,
            )
            for s in range(g.num_nodes)
        ]
    )


@needs_native
class TestQuotientEcc:
    @given(_quotient_graphs())
    @settings(max_examples=150, deadline=None)
    def test_single_source_matches_scipy(self, g):
        np.testing.assert_array_equal(_native_eccs(g), _scipy_eccs(g))

    @given(_quotient_graphs())
    @settings(max_examples=150, deadline=None)
    def test_all_sources_is_the_exact_diameter(self, g):
        got = native.quotient_ecc(
            g.indptr, g.indices, g.weights, np.arange(g.num_nodes),
            skip_reached=False,
        )
        ref = _scipy_eccs(g)
        assert got == (ref.max() if len(ref) else 0.0)

    @given(_quotient_graphs())
    @settings(max_examples=150, deadline=None)
    def test_sweep_runs_each_component_from_its_argmax(self, g):
        order = np.argsort(-g.degrees, kind="stable")
        got = native.quotient_ecc(
            g.indptr, g.indices, g.weights, order, skip_reached=True
        )
        eccs = _scipy_eccs(g)
        if g.num_nodes == 0:
            assert got == 0.0
            return
        _, labels = connected_components(g.to_scipy(), directed=False)
        starts = [
            int(np.flatnonzero(labels == c)[np.argmax(g.degrees[labels == c])])
            for c in np.unique(labels)
        ]
        np.testing.assert_array_equal(got, eccs[starts].max())

    @given(_quotient_graphs(), st.sampled_from(["sweep", "exact"]))
    @settings(max_examples=150, deadline=None)
    def test_quotient_diameter_tiers_agree(self, g, mode):
        with native.impl_overrides("py"):
            ref = quotient_diameter(g, mode=mode)
        with native.impl_overrides("native"):
            got = quotient_diameter(g, mode=mode)
        assert got == ref

    def test_trivial_sources(self):
        empty = np.empty(0, dtype=np.int64)
        for n in (0, 1):
            g = from_edges(empty, empty, np.empty(0), n)
            assert native.quotient_ecc(
                g.indptr, g.indices, g.weights, np.arange(n),
                skip_reached=False,
            ) == 0.0
        g = from_edges(
            np.array([0]), np.array([1]), np.array([2.5]), 3
        )
        for sources in (empty, np.array([2])):
            assert native.quotient_ecc(
                g.indptr, g.indices, g.weights, sources, skip_reached=False
            ) == 0.0
        assert native.quotient_ecc(
            g.indptr, g.indices, g.weights, np.array([2, 0, 1]),
            skip_reached=True,
        ) == 2.5
        for bad in (np.array([3]), np.array([-1])):
            with pytest.raises(ValueError):
                native.quotient_ecc(
                    g.indptr, g.indices, g.weights, bad, skip_reached=True
                )


# --------------------------------------------------------------------- #
# degradation: py requested, disabled, or no toolchain
# --------------------------------------------------------------------- #


class TestFallback:
    def test_py_request_forces_pure_tier(self, impl_env):
        os.environ[native.KERNEL_IMPL_ENV] = "py"
        assert not native.use_native()
        assert native.kernel_impl() == "py"

    @pytest.mark.parametrize("value", ["natvie", "PY", "none"])
    def test_unknown_tier_is_a_configuration_error(self, impl_env, value):
        os.environ[native.KERNEL_IMPL_ENV] = value
        with pytest.raises(
            ConfigurationError, match=f"{native.KERNEL_IMPL_ENV}={value!r}"
        ):
            native.use_native()

    def test_empty_tier_means_auto(self, impl_env):
        os.environ[native.KERNEL_IMPL_ENV] = ""
        assert native.requested_impl() == "auto"

    def test_pure_tier_is_complete_without_native(self, graph, impl_env):
        """The full pipeline runs on the pure tier alone — the
        no-toolchain contract."""
        os.environ[native.KERNEL_IMPL_ENV] = "py"
        engine = default_engine(graph, executor="vector", num_workers=2)
        result = mr_cluster(graph, config=CFG, engine=engine)
        assert result.counters.rounds > 0
        assert (result.center >= 0).all()

    def test_no_compiler_degrades_with_warning(self, tmp_path):
        """A host without any C compiler builds nothing and falls back
        cleanly (exercised in a subprocess with a scrubbed PATH)."""
        code = (
            "import warnings, repro.mr.native as n\n"
            "with warnings.catch_warnings(record=True) as w:\n"
            "    warnings.simplefilter('always')\n"
            "    ok = n.native_available()\n"
            "assert not ok\n"
            "assert not n.use_native()\n"
            "assert n.kernel_impl() == 'py'\n"
        )
        env = dict(os.environ)
        env["PATH"] = str(tmp_path)  # no cc/gcc/clang anywhere
        env.pop("CC", None)
        env[native.NATIVE_DIR_ENV] = str(tmp_path / "cache")
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_py_tier_reports_library_unprobed(self, impl_env):
        os.environ[native.KERNEL_IMPL_ENV] = "py"
        info = native.resolved_info()
        assert info["kernel_impl"] == "py"
        assert info["native_available"] is None
        assert "emit_threads" not in info

    @pytest.mark.parametrize("how", ["flag", "env"])
    @pytest.mark.parametrize("executor", ["vector", "sharded"])
    def test_py_tier_builds_nothing(self, tmp_path, executor, how):
        """A ``py`` run neither compiles nor loads the library: against
        an empty native dir it leaves the dir empty, and it prints the
        value the default tier prints."""
        from repro.generators import mesh
        from repro.graph import write_store

        store = tmp_path / "g.rcsr"
        write_store(mesh(8, seed=1), store)
        native_dir = tmp_path / "native"
        native_dir.mkdir()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        env.pop(native.KERNEL_IMPL_ENV, None)
        args = [
            sys.executable, "-m", "repro", "run", "diameter", str(store),
            "--tau", "8", "--seed", "1", "--executor", executor,
        ]
        if executor == "sharded":
            args += ["--shards", "2"]

        def value_line(args, env):
            proc = subprocess.run(
                args, env=env, capture_output=True, text=True, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            assert "Traceback" not in proc.stderr, proc.stderr
            lines = proc.stdout.splitlines()
            return [line for line in lines if line.startswith(
                ("value ", "kernels "))]

        reference = value_line(args, env)
        py_env = dict(env, **{native.NATIVE_DIR_ENV: str(native_dir)})
        if how == "flag":
            got = value_line(args + ["--kernel-impl", "py"], py_env)
        else:
            got = value_line(
                args, dict(py_env, **{native.KERNEL_IMPL_ENV: "py"})
            )
        assert list(native_dir.iterdir()) == []
        assert got[0] == "kernels      : py"
        assert got[1] == reference[1]

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(kernel_impl="fortran")
        with pytest.raises(TypeError):
            ClusterConfig(emit_threads=2)

    def test_impl_overrides_sets_and_restores(self, impl_env):
        os.environ.pop(native.KERNEL_IMPL_ENV, None)
        with native.impl_overrides("py"):
            assert os.environ[native.KERNEL_IMPL_ENV] == "py"
        assert native.KERNEL_IMPL_ENV not in os.environ
        # "auto" defers to the ambient environment.
        os.environ[native.KERNEL_IMPL_ENV] = "py"
        with native.impl_overrides("auto"):
            assert os.environ[native.KERNEL_IMPL_ENV] == "py"
        with pytest.raises(TypeError):
            with native.impl_overrides("py", 2):
                pass


# --------------------------------------------------------------------- #
# end-to-end: every driver x executor x tier is bit-identical
# --------------------------------------------------------------------- #


def _signature(result, counters):
    return (
        result.center.tobytes(),
        result.dist_to_center.tobytes(),
        tuple(sorted(counters.snapshot().items())),
    )


def _run_driver(graph, algorithm, executor, impl):
    os.environ[native.KERNEL_IMPL_ENV] = impl
    engine = default_engine(graph, executor=executor, num_workers=2)
    try:
        result = algorithm(graph, config=CFG, engine=engine)
    finally:
        if hasattr(engine.executor, "close"):
            engine.executor.close()
    return _signature(result, result.counters)


@needs_native
class TestEndToEndParity:
    """Both tiers push, scan forced rounds and finish batches through
    their own kernels; whole drivers must agree bit for bit."""

    EXECUTORS = ("vector", "sharded")

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_cluster_tiers_agree(self, graph, executor, impl_env):
        ref = _run_driver(graph, mr_cluster, executor, "py")
        assert _run_driver(graph, mr_cluster, executor, "native") == ref

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_cluster2_tiers_agree(self, graph, executor, impl_env):
        ref = _run_driver(graph, mr_cluster2, executor, "py")
        assert _run_driver(graph, mr_cluster2, executor, "native") == ref

    def test_core_cluster_tiers_agree(self, graph, impl_env):
        os.environ[native.KERNEL_IMPL_ENV] = "py"
        ref = cluster(graph, config=CFG)
        os.environ[native.KERNEL_IMPL_ENV] = "native"
        got = cluster(graph, config=CFG)
        np.testing.assert_array_equal(got.center, ref.center)
        np.testing.assert_array_equal(got.dist_to_center, ref.dist_to_center)
        assert got.counters.snapshot() == ref.counters.snapshot()

    def test_cl_diam_tiers_agree(self, graph, impl_env):
        os.environ[native.KERNEL_IMPL_ENV] = "py"
        e1 = default_engine(graph, executor="vector", num_workers=2)
        ref = mr_approximate_diameter(graph, config=CFG, engine=e1)
        os.environ[native.KERNEL_IMPL_ENV] = "native"
        e2 = default_engine(graph, executor="vector", num_workers=2)
        got = mr_approximate_diameter(graph, config=CFG, engine=e2)
        assert got.value == ref.value
        assert e2.counters.snapshot() == e1.counters.snapshot()

    def test_runner_stamps_resolved_impl(self, graph, impl_env):
        result = runtime_run(
            "cluster", graph, config=CFG, executor="vector",
            kernel_impl="native",
        )
        assert result.kernel_impl == "native"
        assert result.counters.impl["native_available"] is True
        assert "kernel_impl" in result.snapshot()
        # The comparable counter snapshot itself stays tier-free.
        assert "kernel_impl" not in result.counters.snapshot()
