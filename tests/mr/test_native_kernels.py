"""Property and parity suite for the native (C) kernel tier.

The pure NumPy kernels are the oracle: every native kernel must compute
bit-for-bit what its pure counterpart computes — same IEEE arithmetic,
same ``(nd, center, source)`` tie-breaks, same output ordering — for any
input, including the awkward ones (equal-distance ties, duplicate
targets, empty and singleton frontiers, infinite distances).  The
threaded emit path must additionally be invariant in the thread count.
The quotient-eccentricity kernel has no NumPy twin: scipy's csgraph
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
    """Restore every kernel-tier switch after each test."""
    keys = (native.KERNEL_IMPL_ENV, native.EMIT_THREADS_ENV)
    before = {k: os.environ.get(k) for k in keys}
    yield
    for key, value in before.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


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
    with native.impl_overrides("py", None):
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
            with native.impl_overrides("py", None):
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
        with native.impl_overrides("py", None):
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
            with native.impl_overrides("py", None):
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
    frozen = np.zeros(domain, dtype=bool)
    dist[keys] = np.round(rng.random(n) * 4.0) / 4.0
    frozen[keys[rng.random(n) < 0.3]] = True
    weights = rng.random(80)
    center = rng.integers(-1, 50, 50).astype(np.int64)
    return keys, nd, src, aidx, dist, frozen, weights, center


def _finish(inputs, hist, *, num_workers=1, base=None, base_loads=None,
            top=(0, -1)):
    n = len(inputs[0])
    banks = (
        np.empty(n, np.int64), np.empty(n), np.empty(n, np.int64),
        np.empty(n), np.empty(n), np.empty(n),
    )
    loads = (
        np.zeros(num_workers, np.int64) if base_loads is None
        else base_loads.copy()
    )
    kept, summary = native.finish_batch(
        *inputs, *banks, hist=hist, gk=np.empty(n, np.int64), base=base,
        loads=loads, top=top,
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

    @pytest.mark.parametrize("num_workers", [1, 3, 7])
    def test_fold_onto_base(self, num_workers):
        """With a base (the cache's histogram and running summary), the
        summary is the one of base + batch: new keys open a group, keys
        already in the base only add rows, and tied counts resolve to
        the smallest key."""
        rng = np.random.default_rng(40 + num_workers)
        domain = 60
        for trial in range(40):
            base = rng.integers(0, 3, domain) * (rng.random(domain) < 0.5)
            base = base.astype(np.int64)
            groups = np.flatnonzero(base)
            base_loads = np.zeros(num_workers, np.int64)
            np.add.at(
                base_loads, hash_partition_array(groups, num_workers),
                base[groups] + 1,
            )
            top, key, _ = _summary_oracle(base, num_workers)
            n = int(rng.integers(0, 40))
            inputs = _finish_inputs(rng, n, domain)
            hist = np.zeros(domain, dtype=np.int64)
            _, summary, _ = _finish(
                inputs, hist, num_workers=num_workers, base=base,
                base_loads=base_loads, top=(top, key),
            )
            combined = base + np.bincount(inputs[0], minlength=domain)
            assert summary == _summary_oracle(combined, num_workers)

    def test_filter_columns_and_null_hist(self):
        """The improvement filter keeps open, strictly improved targets
        and gathers w/center/float-source; a NULL histogram skips the
        accounting but filters identically."""
        rng = np.random.default_rng(12)
        inputs = _finish_inputs(rng, 500, 120)
        keys, nd, src, aidx, dist, frozen, weights, center = inputs
        kept, summary, banks = _finish(inputs, np.zeros(120, np.int64))
        imp = ~frozen[keys] & (nd < dist[keys])
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


# --------------------------------------------------------------------- #
# the forced-round scan
# --------------------------------------------------------------------- #


@needs_native
class TestForcedScan:
    """``rk_forced_scan`` against the NumPy forced-round masks."""

    def _state(self, rng, n):
        center = np.where(
            rng.random(n) < 0.3, NO_CENTER, rng.integers(0, max(n, 1), n)
        ).astype(np.int64)
        # Quantized distances so dist == delta ties are common.
        dist = np.round(rng.random(n) * 4.0) / 4.0
        dist[center == NO_CENTER] = np.inf
        frozen = (center != NO_CENTER) & (rng.random(n) < 0.4)
        cache_in = frozen & (rng.random(n) < 0.5)
        return center, dist, frozen, cache_in

    @pytest.mark.parametrize("n", [0, 1, 2, 90])
    def test_matches_masks(self, n):
        rng = np.random.default_rng(n)
        degs = rng.integers(0, 5, n)
        indptr = np.concatenate(([0], np.cumsum(degs))).astype(np.int64)
        for trial in range(20):
            center, dist, frozen, cache_in = self._state(rng, n)
            delta = 0.5
            ids = np.empty(n, np.int64)
            eff = np.empty(n)
            newly = np.empty(n, np.int64)
            assigned = center != NO_CENTER
            live = np.flatnonzero(assigned & ~frozen & (dist < delta))
            for cin in (cache_in, None):
                t, fresh, degsum = native.forced_scan(
                    center, dist, frozen, delta, indptr, ids, eff,
                    cache_in=cin, newly=newly,
                )
                np.testing.assert_array_equal(ids[:t], live)
                np.testing.assert_array_equal(eff[:t], dist[live])
                assert degsum == int(degs[live].sum())
                want = frozen if cin is None else frozen & ~cin
                np.testing.assert_array_equal(
                    newly[:fresh], np.flatnonzero(want)
                )
            t, _, _ = native.forced_scan(
                center, dist, frozen, delta, indptr, ids, eff
            )
            e = np.where(frozen, 0.0, dist)
            rows = np.flatnonzero(assigned & (e < delta))
            np.testing.assert_array_equal(ids[:t], rows)
            np.testing.assert_array_equal(eff[:t], e[rows])


    def test_rejects_short_buffers(self):
        center = np.zeros(4, np.int64)
        dist = np.zeros(4)
        frozen = np.zeros(4, bool)
        indptr = np.zeros(5, np.int64)
        with pytest.raises(ValueError, match="n-row outputs"):
            native.forced_scan(
                center, dist, frozen, 1.0, indptr,
                np.empty(3, np.int64), np.empty(4),
            )
        with pytest.raises(ValueError, match="n-row outputs"):
            native.forced_scan(
                center, dist, frozen, 1.0, indptr,
                np.empty(4, np.int64), np.empty(4), newly=np.empty(2, np.int64),
            )


# --------------------------------------------------------------------- #
# the quotient map side
# --------------------------------------------------------------------- #


def _crossing_tiers(graph, ids, d, nc):
    from repro.core.quotient import crossing_edges

    with native.impl_overrides("py", None):
        ref = crossing_edges(graph, ids, d, nc)
    got = native.crossing_edges(
        graph.indptr, graph.indices, graph.weights, ids, d, nc
    )
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype and g.flags.c_contiguous
        np.testing.assert_array_equal(g, r)
    return got


@needs_native
class TestCrossingEdges:
    """``rk_crossing_edges`` against the NumPy map side it replaced."""

    @pytest.mark.parametrize("nc", [1, 2, 5, 40])
    def test_random_clusterings(self, graph, nc):
        rng = np.random.default_rng(nc)
        for _ in range(5):
            ids = rng.integers(0, nc, graph.num_nodes).astype(np.int64)
            # Quantized offsets: equal values on parallel cluster pairs.
            d = np.round(rng.random(graph.num_nodes) * 4.0) / 4.0
            keys, values = _crossing_tiers(graph, ids, d, nc)
            if nc == 1:
                assert len(keys) == 0

    def test_exact_values_and_order(self):
        g = from_edges(
            np.array([0, 1, 2, 0]), np.array([1, 2, 3, 3]),
            np.array([1.0, 2.0, 1.0, 5.0]), 4,
        )
        ids = np.array([0, 0, 1, 1], dtype=np.int64)
        d = np.array([0.0, 1.0, 1.0, 0.0])
        keys, values = _crossing_tiers(g, ids, d, 2)
        # Arcs 0->3 (w 5) then 1->2 (w 2), CSR order, both pair (0, 1).
        np.testing.assert_array_equal(keys, [1, 1])
        np.testing.assert_array_equal(values, [5.0, 4.0])

    def test_self_loops_never_cross(self):
        from repro.graph.csr import CSRGraph

        # A raw CSR with a self-loop on node 1 (builders drop them).
        g = CSRGraph(
            np.array([0, 1, 3, 4], dtype=np.int64),
            np.array([1, 1, 2, 1], dtype=np.int64),
            np.array([1.0, 3.0, 2.0, 2.0]),
            validate=False,
        )
        keys, _ = _crossing_tiers(g, np.array([0, 1, 2]), np.zeros(3), 3)
        np.testing.assert_array_equal(keys, [0 * 3 + 1, 1 * 3 + 2])

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_graphs(self, n):
        g = from_edges(np.empty(0, np.int64), np.empty(0, np.int64),
                       np.empty(0), n)
        keys, values = _crossing_tiers(
            g, np.zeros(n, np.int64), np.zeros(n), max(n, 1)
        )
        assert len(keys) == len(values) == 0

    def test_rejects_per_node_length_mismatch(self, graph):
        n = graph.num_nodes
        with pytest.raises(ValueError, match="one entry per node"):
            native.crossing_edges(
                graph.indptr, graph.indices, graph.weights,
                np.zeros(n - 1, np.int64), np.zeros(n), 2,
            )

    def test_disconnected_graph(self):
        g = from_edges(
            np.array([0, 2, 4]), np.array([1, 3, 5]),
            np.array([1.0, 1.0, 1.0]), 7,
        )
        ids = np.array([0, 1, 2, 2, 3, 4, 5], dtype=np.int64)
        keys, values = _crossing_tiers(g, ids, np.full(7, 0.5), 6)
        np.testing.assert_array_equal(keys, [0 * 6 + 1, 3 * 6 + 4])
        np.testing.assert_array_equal(values, [2.0, 2.0])


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
        with native.impl_overrides(impl, None):
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
        with native.impl_overrides("py", None):
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


# --------------------------------------------------------------------- #
# fused emit expansion: threading is a no-op on the output
# --------------------------------------------------------------------- #


@needs_native
class TestThreadedEmit:
    def _push_once(self, graph, threads):
        indptr = graph.indptr
        srcs = np.flatnonzero(
            (indptr[1:] - indptr[:-1]) > 0
        ).astype(np.int64)
        eff = np.zeros(len(srcs))
        counts = indptr[srcs + 1] - indptr[srcs]
        total = int(counts.sum())
        banks = [
            np.empty(total, dtype=np.int64),
            np.empty(total),
            np.empty(total, dtype=np.int64),
            np.empty(total, dtype=np.int64),
        ]
        cnt = native.emit_push_into(
            indptr, graph.indices, graph.weights, srcs, eff,
            float(np.median(graph.weights)), counts,
            banks[0], banks[1], banks[2], banks[3], threads,
        )
        return [b[:cnt].copy() for b in banks]

    @pytest.mark.parametrize("threads", [2, 3, 7])
    def test_push_bit_identical_across_threads(self, graph, threads):
        ref = self._push_once(graph, 1)
        got = self._push_once(graph, threads)
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)

    def test_empty_frontier(self, graph):
        srcs = np.empty(0, dtype=np.int64)
        cnt = native.emit_push_into(
            graph.indptr, graph.indices, graph.weights, srcs,
            np.empty(0), 1.0, np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64), np.empty(0),
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 4,
        )
        assert cnt == 0


# --------------------------------------------------------------------- #
# frozen-emission cache kernels
# --------------------------------------------------------------------- #


@needs_native
class TestCacheKernels:
    def test_cache_append_retire_replay(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            # Random frozen sources (rows of a small CSR over 40 ids),
            # appended the way _cache_append_native fills the cache.
            rows = int(rng.integers(1, 12))
            degs = rng.integers(0, 8, rows)
            indptr = np.concatenate(([0], np.cumsum(degs))).astype(np.int64)
            narcs = int(indptr[-1])
            indices = rng.integers(0, 40, narcs).astype(np.int64)
            arc_w = rng.random(narcs)
            delta = 0.7
            # Shard 1 owns the contiguous ids [lo, hi) through the int32
            # sidecars, the way a shard's row set reaches the kernels.
            lo, hi = 10, 30
            ids = np.arange(40)
            owners = ((ids >= lo).astype(np.int32) + (ids >= hi)).astype(
                np.int32
            )
            localidx = (ids - np.array([0, lo, hi])[owners]).astype(np.int32)
            # Reference: frozen sources emit at effective distance 0,
            # so exactly their light arcs, source-major in CSR order.
            light = arc_w <= delta
            k = indices[light]
            s = np.repeat(np.arange(rows, dtype=np.int64), degs)[light]
            a = np.flatnonzero(light).astype(np.int64)
            hist = np.zeros(hi - lo, dtype=np.int64)
            ck = np.zeros(narcs + 8, np.int64)
            cs = np.zeros(narcs + 8, np.int64)
            ca = np.zeros(narcs + 8, np.int64)
            app, total = native.cache_emit(
                indptr, indices, arc_w, np.arange(rows, dtype=np.int64),
                delta, hist, ck, cs, ca, 0,
                owners=owners, localidx=localidx, shard_id=1,
            )
            assert total == len(k)
            owned = (k >= lo) & (k < hi)
            assert app == int(owned.sum())
            np.testing.assert_array_equal(ck[:app], k[owned])
            np.testing.assert_array_equal(cs[:app], s[owned])
            np.testing.assert_array_equal(ca[:app], a[owned])
            np.testing.assert_array_equal(
                hist, np.bincount(k[owned] - lo, minlength=hi - lo)
            )

            frozen = rng.random(hi - lo) < 0.4
            keep = ~frozen[ck[:app] - lo]  # before in-place compaction
            nl = native.cache_retire(
                ck, cs, ca, app, frozen, localidx=localidx
            )
            assert nl == int(keep.sum())
            np.testing.assert_array_equal(ck[:nl], k[owned][keep])

            # The whole-graph replay, fused into the retire pass: the
            # survivors that strictly improve their target come out
            # with their value columns.
            rk, rs, ra = ck[:nl].copy(), cs[:nl].copy(), ca[:nl].copy()
            wfrozen = np.zeros(40, dtype=bool)
            wfrozen[rng.integers(0, 40, 6)] = True
            weights = rng.random(100)
            dist = rng.random(40) * 0.8
            center = rng.integers(-1, 40, rows).astype(np.int64)
            fk = np.zeros(nl + 1, np.int64)
            fs = np.zeros(nl + 1, np.int64)
            fnd, fw, fctr, fsrcf = (np.zeros(nl + 1) for _ in range(4))
            nl2, t = native.cache_retire(
                ck, cs, ca, nl, wfrozen,
                replay=(weights, dist, center, fk, fnd, fs, fw, fctr, fsrcf),
            )
            live = ~wfrozen[rk]
            assert nl2 == int(live.sum())
            np.testing.assert_array_equal(ck[:nl2], rk[live])
            np.testing.assert_array_equal(cs[:nl2], rs[live])
            ref_w = weights[ra[live]]
            imp = ref_w < dist[rk[live]]
            assert t == int(imp.sum())
            np.testing.assert_array_equal(fk[:t], rk[live][imp])
            np.testing.assert_array_equal(fnd[:t], ref_w[imp])
            np.testing.assert_array_equal(fs[:t], rs[live][imp])
            np.testing.assert_array_equal(fw[:t], ref_w[imp])
            np.testing.assert_array_equal(fctr[:t], center[rs[live][imp]])
            np.testing.assert_array_equal(fsrcf[:t], rs[live][imp])

    @pytest.mark.parametrize("num_workers", [1, 2, 7])
    def test_cache_emit_matches_push_plus_append(self, graph, num_workers):
        """The whole-graph layout: no sidecars, every key owned; the
        running group summary follows the appends across two calls."""
        delta = float(np.median(graph.weights))
        newly = np.arange(0, graph.num_nodes, 5, dtype=np.int64)
        bound = int((graph.indptr[newly + 1] - graph.indptr[newly]).sum())
        hist = np.zeros(graph.num_nodes, dtype=np.int64)
        ck = np.zeros(bound, np.int64)
        cs = np.zeros(bound, np.int64)
        ca = np.zeros(bound, np.int64)
        loads = np.zeros(num_workers, np.int64)
        top = np.array([0, -1], np.int64)
        half = len(newly) // 2
        first, cnt1 = native.cache_emit(
            graph.indptr, graph.indices, graph.weights, newly[:half],
            delta, hist, ck, cs, ca, 0, loads=loads, top=top,
        )
        appended, cnt2 = native.cache_emit(
            graph.indptr, graph.indices, graph.weights, newly[half:],
            delta, hist, ck, cs, ca, first, loads=loads, top=top,
        )
        appended += first
        cnt = cnt1 + cnt2
        # Reference: python expansion with eff = 0, light filter only.
        ref_k, ref_s, ref_a = [], [], []
        total = 0
        for u in newly:
            for arc in range(graph.indptr[u], graph.indptr[u + 1]):
                if graph.weights[arc] <= delta:
                    total += 1
                    ref_k.append(graph.indices[arc])
                    ref_s.append(u)
                    ref_a.append(arc)
        assert cnt == total and appended == len(ref_k)
        np.testing.assert_array_equal(ck[:appended], ref_k)
        np.testing.assert_array_equal(cs[:appended], ref_s)
        np.testing.assert_array_equal(ca[:appended], ref_a)
        np.testing.assert_array_equal(
            hist, np.bincount(np.array(ref_k), minlength=graph.num_nodes)
        )
        ref_top, ref_key, ref_load = _summary_oracle(hist, num_workers)
        assert tuple(top) == (ref_top, ref_key)
        assert int(loads.max()) == ref_load
        groups = np.flatnonzero(hist)
        np.testing.assert_array_equal(
            loads,
            np.bincount(
                hash_partition_array(groups, num_workers),
                weights=hist[groups] + 1, minlength=num_workers,
            ).astype(np.int64),
        )
        frozen = np.zeros(graph.num_nodes, dtype=bool)
        frozen[::3] = True
        keep = ~frozen[ck[:appended]]
        nl = native.cache_retire(ck, cs, ca, appended, frozen)
        np.testing.assert_array_equal(ck[:nl], np.array(ref_k)[keep])

    @pytest.mark.parametrize("shard_id", [0, 2])
    def test_mapped_ownership_emit_and_retire(self, graph, shard_id):
        """The lp ownership map (int32 owners/localidx sidecars) against a
        Python oracle: owned keys append, hist counts by local row, and
        retire reads frozen through localidx."""
        rng = np.random.default_rng(shard_id)
        n = graph.num_nodes
        owners = rng.integers(0, 3, n).astype(np.int32)
        localidx = np.zeros(n, dtype=np.int32)
        for k in range(3):
            mine = np.flatnonzero(owners == k)
            localidx[mine] = np.arange(len(mine))
        rows = int((owners == shard_id).sum())
        delta = float(np.median(graph.weights))
        newly = np.arange(1, n, 4, dtype=np.int64)
        bound = int((graph.indptr[newly + 1] - graph.indptr[newly]).sum())
        hist = np.zeros(rows, dtype=np.int64)
        ck, cs, ca = (np.zeros(bound, np.int64) for _ in range(3))
        appended, cnt = native.cache_emit(
            graph.indptr, graph.indices, graph.weights, newly,
            delta, hist, ck, cs, ca, 0,
            owners=owners, localidx=localidx, shard_id=shard_id,
        )
        ref = [
            (int(graph.indices[arc]), int(u), arc)
            for u in newly
            for arc in range(graph.indptr[u], graph.indptr[u + 1])
            if graph.weights[arc] <= delta
        ]
        owned = [r for r in ref if owners[r[0]] == shard_id]
        assert cnt == len(ref) and appended == len(owned)
        np.testing.assert_array_equal(ck[:appended], [r[0] for r in owned])
        np.testing.assert_array_equal(cs[:appended], [r[1] for r in owned])
        np.testing.assert_array_equal(ca[:appended], [r[2] for r in owned])
        np.testing.assert_array_equal(
            hist,
            np.bincount(localidx[ck[:appended]], minlength=rows),
        )

        frozen = rng.random(rows) < 0.4
        keep = [r for r in owned if not frozen[localidx[r[0]]]]
        nl = native.cache_retire(
            ck, cs, ca, appended, frozen, localidx=localidx
        )
        assert nl == len(keep)
        np.testing.assert_array_equal(ck[:nl], [r[0] for r in keep])
        np.testing.assert_array_equal(ca[:nl], [r[2] for r in keep])

    def test_whole_graph_layout_needs_one_hist_row_per_id(self, graph):
        """Without sidecars keys index ``hist`` directly: a shard-sized
        histogram must be refused before the kernel writes past it."""
        buf = np.zeros(1, np.int64)
        with pytest.raises(ValueError, match="whole graph"):
            native.cache_emit(
                graph.indptr, graph.indices, graph.weights,
                np.empty(0, np.int64), 1.0,
                np.zeros(graph.num_nodes - 1, dtype=np.int64),
                buf, buf, buf, 0,
            )

    def test_summary_arguments_are_checked(self, graph):
        """A summary needs a non-empty per-worker loads array (the worker
        count divides the hash) and, for the cache, the whole graph."""
        hist = np.zeros(graph.num_nodes, dtype=np.int64)
        buf = np.zeros(1, np.int64)
        with pytest.raises(ValueError, match="cache summary"):
            native.cache_emit(
                graph.indptr, graph.indices, graph.weights,
                np.empty(0, np.int64), 1.0, hist, buf, buf, buf, 0,
                loads=np.zeros(0, np.int64), top=np.array([0, -1]),
            )
        inputs = _finish_inputs(np.random.default_rng(0), 4, 8)
        banks = (np.empty(4, np.int64), np.empty(4), np.empty(4, np.int64),
                 np.empty(4), np.empty(4), np.empty(4))
        with pytest.raises(ValueError, match="group summary"):
            native.finish_batch(
                *inputs, *banks, hist=np.zeros(8, np.int64),
                gk=np.empty(4, np.int64),
            )

    def test_sidecars_must_be_int32(self, graph):
        hist = np.zeros(graph.num_nodes, dtype=np.int64)
        buf = np.zeros(1, np.int64)
        with pytest.raises(ValueError, match="int32"):
            native.cache_emit(
                graph.indptr, graph.indices, graph.weights,
                np.empty(0, np.int64), 1.0, hist, buf, buf, buf, 0,
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
        with native.impl_overrides("py", None):
            ref = quotient_diameter(g, mode=mode)
        with native.impl_overrides("native", None):
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
        with pytest.raises(ConfigurationError):
            ClusterConfig(emit_threads=0)

    def test_impl_overrides_sets_and_restores(self, impl_env):
        os.environ.pop(native.KERNEL_IMPL_ENV, None)
        with native.impl_overrides("py", 3):
            assert os.environ[native.KERNEL_IMPL_ENV] == "py"
            assert os.environ[native.EMIT_THREADS_ENV] == "3"
        assert native.KERNEL_IMPL_ENV not in os.environ
        # "auto" defers to the ambient environment.
        os.environ[native.KERNEL_IMPL_ENV] = "py"
        with native.impl_overrides("auto", None):
            assert os.environ[native.KERNEL_IMPL_ENV] == "py"


# --------------------------------------------------------------------- #
# end-to-end: every driver x executor x tier is bit-identical
# --------------------------------------------------------------------- #


def _signature(result, counters):
    return (
        result.center.tobytes(),
        result.dist_to_center.tobytes(),
        tuple(sorted(counters.snapshot().items())),
    )


def _run_driver(graph, algorithm, executor, impl, threads=None):
    os.environ[native.KERNEL_IMPL_ENV] = impl
    if threads is None:
        os.environ.pop(native.EMIT_THREADS_ENV, None)
    else:
        os.environ[native.EMIT_THREADS_ENV] = str(threads)
    engine = default_engine(graph, executor=executor, num_workers=2)
    try:
        result = algorithm(graph, config=CFG, engine=engine)
    finally:
        if hasattr(engine.executor, "close"):
            engine.executor.close()
    return _signature(result, result.counters)


@needs_native
class TestEndToEndParity:
    """Both tiers push and replay the frozen-emission cache through
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

    @pytest.mark.parametrize("threads", (1, 2, 7))
    def test_thread_count_is_invisible(self, graph, threads, impl_env):
        ref = _run_driver(graph, mr_cluster, "vector", "py")
        assert _run_driver(
            graph, mr_cluster, "vector", "native", threads
        ) == ref

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
            kernel_impl="native", emit_threads=2,
        )
        assert result.kernel_impl == "native"
        assert result.emit_threads == 2
        assert result.counters.impl["native_available"] is True
        assert "kernel_impl" in result.snapshot()
        # The comparable counter snapshot itself stays tier-free.
        assert "kernel_impl" not in result.counters.snapshot()
