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
from repro.mr.emit import EMIT_ENV, EmitScratch
from repro.mr.kernels import ScatterScratch, scatter_min_rows
from repro.mr.partitioner import hash_partition_array
from repro.mrimpl.cluster2_mr import mr_cluster2
from repro.mrimpl.cluster_mr import mr_cluster
from repro.mrimpl.diameter_mr import mr_approximate_diameter
from repro.mrimpl.growing_mr import default_engine
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
    keys = (
        native.KERNEL_IMPL_ENV,
        native.EMIT_THREADS_ENV,
        EMIT_ENV,
    )
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
    def test_count_keys_matches_unique(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(0, 400))
            bound = int(rng.integers(1, 80))
            keys = rng.integers(0, bound, n).astype(np.int64)
            hist = np.zeros(bound, dtype=np.int64)
            gk = np.empty(max(n, 1), dtype=np.int64)
            gc = np.empty(max(n, 1), dtype=np.int64)
            g = native.count_keys(keys, hist, gk, gc)
            ref_k, ref_c = np.unique(keys, return_counts=True)
            np.testing.assert_array_equal(gk[:g], ref_k)
            np.testing.assert_array_equal(gc[:g], ref_c)
            assert not hist.any(), "hist must be restored to all-zero"

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

    def _pull_once(self, graph, threads):
        narcs = graph.num_arcs
        mask = np.zeros(graph.num_nodes, dtype=bool)
        mask[:: 3] = True
        eff = np.zeros(graph.num_nodes)
        arc_rows = graph.arc_sources_view()
        banks = [
            np.empty(narcs, dtype=np.int64),
            np.empty(narcs),
            np.empty(narcs, dtype=np.int64),
            np.empty(narcs, dtype=np.int64),
        ]
        cnt = native.emit_pull_into(
            arc_rows, graph.indices, graph.weights, mask, eff,
            float(np.median(graph.weights)), 0,
            banks[0], banks[1], banks[2], banks[3], threads,
        )
        return [b[:cnt].copy() for b in banks]

    @pytest.mark.parametrize("threads", [2, 3, 7])
    def test_push_bit_identical_across_threads(self, graph, threads):
        ref = self._push_once(graph, 1)
        got = self._push_once(graph, threads)
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("threads", [2, 3, 7])
    def test_pull_bit_identical_across_threads(self, graph, threads):
        ref = self._pull_once(graph, 1)
        got = self._pull_once(graph, threads)
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
            n = int(rng.integers(0, 60))
            lo, hi = 10, 30
            k = rng.integers(0, 40, n).astype(np.int64)
            s = rng.integers(0, 99, n).astype(np.int64)
            a = rng.integers(0, 99, n).astype(np.int64)
            hist = np.zeros(hi - lo, dtype=np.int64)
            ck = np.zeros(n + 8, np.int64)
            cs = np.zeros(n + 8, np.int64)
            ca = np.zeros(n + 8, np.int64)
            app = native.cache_append(k, s, a, lo, hi, hist, ck, cs, ca, 0)
            owned = (k >= lo) & (k < hi)
            assert app == int(owned.sum())
            np.testing.assert_array_equal(ck[:app], k[owned])
            np.testing.assert_array_equal(
                hist, np.bincount(k[owned] - lo, minlength=hi - lo)
            )

            frozen = rng.random(hi - lo) < 0.4
            keep = ~frozen[ck[:app] - lo]  # before in-place compaction
            nl = native.cache_retire(ck, cs, ca, app, frozen, lo)
            assert nl == int(keep.sum())
            np.testing.assert_array_equal(ck[:nl], k[owned][keep])

            weights = rng.random(100)
            dist = rng.random(40) * 0.8
            fk = np.zeros(nl + 1, np.int64)
            fnd = np.zeros(nl + 1)
            fs = np.zeros(nl + 1, np.int64)
            fa = np.zeros(nl + 1, np.int64)
            t = native.cache_replay(
                ck, cs, ca, nl, weights, dist, fk, fnd, fs, fa
            )
            fw = weights[ca[:nl]]
            imp = fw < dist[ck[:nl]]
            assert t == int(imp.sum())
            np.testing.assert_array_equal(fnd[:t], fw[imp])

    def test_cache_emit_matches_push_plus_append(self, graph):
        delta = float(np.median(graph.weights))
        lo, hi = 0, graph.num_nodes
        newly = np.arange(0, graph.num_nodes, 5, dtype=np.int64)
        bound = int((graph.indptr[newly + 1] - graph.indptr[newly]).sum())
        hist = np.zeros(hi - lo, dtype=np.int64)
        ck = np.zeros(bound, np.int64)
        cs = np.zeros(bound, np.int64)
        ca = np.zeros(bound, np.int64)
        appended, cnt = native.cache_emit(
            graph.indptr, graph.indices, graph.weights, newly,
            delta, lo, hi, hist, ck, cs, ca, 0,
        )
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
            hist, np.bincount(np.array(ref_k), minlength=hi - lo)
        )

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
            delta, 0, 0, hist, ck, cs, ca, 0,
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
            ck, cs, ca, appended, frozen, 0, localidx=localidx
        )
        assert nl == len(keep)
        np.testing.assert_array_equal(ck[:nl], [r[0] for r in keep])
        np.testing.assert_array_equal(ca[:nl], [r[2] for r in keep])

    def test_sidecars_must_be_int32(self, graph):
        hist = np.zeros(graph.num_nodes, dtype=np.int64)
        buf = np.zeros(1, np.int64)
        with pytest.raises(ValueError, match="int32"):
            native.cache_emit(
                graph.indptr, graph.indices, graph.weights,
                np.empty(0, np.int64), 1.0, 0, 0, hist, buf, buf, buf, 0,
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
# end-to-end: every driver x executor x mode x tier is bit-identical
# --------------------------------------------------------------------- #


def _signature(result, counters):
    return (
        result.center.tobytes(),
        result.dist_to_center.tobytes(),
        tuple(sorted(counters.snapshot().items())),
    )


def _run_driver(graph, algorithm, executor, mode, impl, threads=None):
    os.environ[EMIT_ENV] = mode
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
    EXECUTORS = ("vector", "sharded")

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_cluster_tiers_agree(self, graph, executor, impl_env):
        ref = _run_driver(graph, mr_cluster, executor, "push", "py")
        for mode in ("push", "pull", "auto"):
            assert _run_driver(
                graph, mr_cluster, executor, mode, "native"
            ) == ref, (executor, mode)

    @pytest.mark.parametrize("mode", ("push", "pull", "auto"))
    def test_cluster2_tiers_agree(self, graph, mode, impl_env):
        ref = _run_driver(graph, mr_cluster2, "vector", mode, "py")
        assert _run_driver(graph, mr_cluster2, "vector", mode, "native") == ref

    @pytest.mark.parametrize("threads", (1, 2, 7))
    def test_thread_count_is_invisible(self, graph, threads, impl_env):
        ref = _run_driver(graph, mr_cluster, "vector", "auto", "py")
        assert _run_driver(
            graph, mr_cluster, "vector", "auto", "native", threads
        ) == ref

    def test_core_cluster_tiers_agree(self, graph, impl_env):
        os.environ[EMIT_ENV] = "auto"
        os.environ[native.KERNEL_IMPL_ENV] = "py"
        ref = cluster(graph, config=CFG)
        os.environ[native.KERNEL_IMPL_ENV] = "native"
        for mode in ("push", "pull", "auto"):
            os.environ[EMIT_ENV] = mode
            got = cluster(graph, config=CFG)
            np.testing.assert_array_equal(got.center, ref.center)
            np.testing.assert_array_equal(
                got.dist_to_center, ref.dist_to_center
            )
            assert got.counters.snapshot() == ref.counters.snapshot()

    def test_cl_diam_tiers_agree(self, graph, impl_env):
        os.environ[EMIT_ENV] = "auto"
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
