"""Unit and property tests of the fused emit pipeline (repro.mr.emit).

The contract under test: for any state, :meth:`EmitScratch.emit` must
report the *unfiltered* emission (count and per-target histogram) of the
plain ``emit_frontier`` oracle below while materializing exactly the
candidates that could be adopted — and this must hold in every
direction (push / pull / auto), across reused buffers, and across the
frozen-emission cache's append/prune/invalidate transitions.
"""

import os

import numpy as np
import pytest

from repro.generators import rmat
from repro.graph.ops import largest_connected_component
from repro.mr import native
from repro.mr.batch import group_min_first
from repro.mr.emit import EMIT_ENV, EmitScratch, emit_mode
from repro.mr.kernels import scatter_min_rows
from repro.mrimpl.growing_mr import NO_CENTER
from repro.util import expand_ranges


@pytest.fixture(autouse=True)
def _restore_emit_mode():
    before = os.environ.get(EMIT_ENV)
    yield
    if before is None:
        os.environ.pop(EMIT_ENV, None)
    else:
        os.environ[EMIT_ENV] = before


def emit_frontier(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    *,
    center: np.ndarray,
    dist: np.ndarray,
    dacc: np.ndarray,
    frozen: np.ndarray,
    changed: np.ndarray,
    frozen_iter: np.ndarray,
    delta: float,
    force: bool,
    rescale: float = 0.0,
    iteration: int = 0,
    sources=None,
):
    """Expand the new-contribution frontier through CSR rows.

    Local rows, but ``indices`` may carry *global* target ids (shard
    CSRs do); the returned candidate keys are whatever id space
    ``indices`` uses.  Candidates appear in ascending local source
    order, each source's arcs in CSR order — the arrival order the
    merge tie-break depends on.  Because builders deduplicate edges, a
    source contributes at most one candidate per target, so within any
    one target's group "arrival order" and "ascending source id" are
    the same order — the fact the order-free merges rely on.

    ``sources``, when given, is the caller-maintained active frontier
    (ascending local ids whose state changed last merge, i.e. the nodes
    the ``changed`` mask would select): the whole call then costs
    O(frontier + emitted arcs) with no O(n) mask scan.  ``None`` scans
    every node — required on forced rounds, where unchanged (and
    frozen) contributors re-emit.  Effective distances are computed on
    the emitting subset only; no O(n) temporary is allocated on either
    path.

    Returns ``(keys, values)``.
    """
    if sources is None:
        src = np.flatnonzero((center != NO_CENTER) & (changed | force))
    else:
        # Active-frontier nodes are adopted, hence assigned and (at
        # adoption time) unfrozen; a later Contract may have frozen
        # some and cleared their changed flag — drop those, exactly as
        # the mask scan would.
        src = sources[~frozen[sources]] if len(sources) else sources
    if len(src):
        eff = dist[src]  # fancy indexing: already a fresh O(|src|) buffer
        fr = frozen[src]
        if rescale:
            eff[fr] = eff[fr] - rescale * (iteration - frozen_iter[src][fr])
        else:
            eff[fr] = 0.0
        keep = eff < delta
        src = src[keep]
        eff = eff[keep]
    if not len(src):
        return np.empty(0, dtype=np.int64), np.empty((0, 3), dtype=np.float64)
    starts = indptr[src]
    counts = indptr[src + 1] - starts
    arc_idx = expand_ranges(starts, counts)
    tgts = indices[arc_idx]
    w = weights[arc_idx]
    src_rep = np.repeat(src, counts)
    nd_out = np.repeat(eff, counts) + w
    ok = (w <= delta) & (nd_out <= delta)
    keep_src = src_rep[ok]
    cand_values = np.empty((len(keep_src), 3), dtype=np.float64)
    cand_values[:, 0] = nd_out[ok]
    cand_values[:, 1] = center[keep_src]
    cand_values[:, 2] = dacc[keep_src] + w[ok]
    return tgts[ok], cand_values


def small_graph(seed=7):
    return largest_connected_component(rmat(7, edge_factor=6, seed=seed))[0]


def random_state(graph, rng, frozen_frac=0.3, assigned_frac=0.8):
    n = graph.num_nodes
    assigned = rng.random(n) < assigned_frac
    center = np.where(assigned, rng.integers(0, n, n), NO_CENTER).astype(np.int64)
    dist = np.where(assigned, rng.random(n), np.inf)
    frozen = assigned & (rng.random(n) < frozen_frac)
    dacc = np.where(assigned, rng.random(n), np.inf)
    changed = np.zeros(n, dtype=bool)
    frozen_iter = np.zeros(n, dtype=np.int64)
    return center, dist, frozen, dacc, changed, frozen_iter


def legacy_reference(graph, state, delta, force, sources=None, rescale=0.0, iteration=0):
    """The oracle: full emission, then the merge-time adoptability filter."""
    center, dist, frozen, dacc, changed, frozen_iter = state
    keys, values = emit_frontier(
        graph.indptr,
        graph.indices,
        graph.weights,
        center=center,
        dist=dist,
        dacc=dacc,
        frozen=frozen,
        changed=changed,
        frozen_iter=frozen_iter,
        delta=delta,
        force=force,
        rescale=rescale,
        iteration=iteration,
        sources=sources,
    )
    imp = (~frozen[keys]) & (values[:, 0] < dist[keys])
    return keys, values, imp


def sorted_rows(keys, nd, ctr, src):
    order = np.lexsort((src, ctr, nd, keys))
    return keys[order], nd[order], ctr[order], src[order]


def assert_batch_matches_oracle(batch, graph, state, delta, force, sources=None):
    keys, values, imp = legacy_reference(graph, state, delta, force, sources)
    assert batch.emitted == len(keys)
    # Full-multiset histogram.
    dense = np.bincount(keys, minlength=graph.num_nodes)
    np.testing.assert_array_equal(batch.group_keys, np.flatnonzero(dense))
    np.testing.assert_array_equal(
        batch.group_counts, dense[np.flatnonzero(dense)]
    )
    # The filtered rows are exactly the adoptable candidates (as a
    # multiset — cache replay reorders rows).
    assert batch.count == int(imp.sum())
    # emit_frontier does not return source ids, so compare the
    # (keys, nd, center) multiset plus the reconstructed dacc column.
    got = sorted_rows(batch.keys, batch.nd, batch.ctr, batch.src.astype(np.float64))
    ref = np.lexsort((values[imp][:, 1], values[imp][:, 0], keys[imp]))
    rk, rv = keys[imp][ref], values[imp][ref]
    np.testing.assert_array_equal(got[0], rk)
    np.testing.assert_allclose(got[1], rv[:, 0])
    np.testing.assert_allclose(got[2], rv[:, 1])
    dacc_col = state[3][batch.src] + batch.w
    np.testing.assert_allclose(np.sort(dacc_col), np.sort(rv[:, 2]))


class TestEmitMatchesOracle:
    @pytest.mark.parametrize("mode", ["push", "pull", "auto"])
    @pytest.mark.parametrize("force", [True, False])
    def test_random_states(self, mode, force):
        os.environ[EMIT_ENV] = mode
        graph = small_graph()
        rng = np.random.default_rng(3)
        for trial in range(8):
            state = random_state(graph, rng)
            delta = float(rng.random() * 0.8 + 0.1)
            scratch = EmitScratch(graph.indptr, graph.indices, graph.weights)
            if force:
                sources = None
            else:
                assigned = np.flatnonzero(state[0] != NO_CENTER)
                sources = rng.choice(
                    assigned, size=min(20, len(assigned)), replace=False
                )
                sources.sort()
            batch = scratch.emit(
                center=state[0],
                dist=state[1],
                dacc=state[3],
                frozen=state[2],
                frozen_iter=state[5],
                delta=delta,
                force=force,
                sources=sources,
            )
            assert_batch_matches_oracle(batch, graph, state, delta, force, sources)

    def test_push_pull_identical_columns(self):
        graph = small_graph(seed=13)
        rng = np.random.default_rng(5)
        state = random_state(graph, rng)
        delta = 0.7
        results = {}
        for mode in ("push", "pull"):
            os.environ[EMIT_ENV] = mode
            scratch = EmitScratch(graph.indptr, graph.indices, graph.weights)
            b = scratch.emit(
                center=state[0], dist=state[1], dacc=state[3],
                frozen=state[2], frozen_iter=state[5],
                delta=delta, force=True,
            )
            results[mode] = (
                b.emitted,
                sorted_rows(b.keys, b.nd, b.ctr, b.srcf),
                b.group_keys.copy(),
                b.group_counts.copy(),
            )
        assert results["push"][0] == results["pull"][0]
        for a, b in zip(results["push"][1], results["pull"][1]):
            np.testing.assert_allclose(a, b)
        np.testing.assert_array_equal(results["push"][2], results["pull"][2])
        np.testing.assert_array_equal(results["push"][3], results["pull"][3])


class TestScratchReuse:
    def test_no_stale_rows_across_rounds(self):
        """A big emission followed by small ones must not leak rows."""
        os.environ[EMIT_ENV] = "auto"
        graph = small_graph(seed=21)
        rng = np.random.default_rng(11)
        scratch = EmitScratch(graph.indptr, graph.indices, graph.weights)
        for trial in range(12):
            # Alternate huge forced rounds and skinny frontier rounds.
            force = trial % 2 == 0
            state = random_state(
                graph, rng, assigned_frac=0.95 if force else 0.2
            )
            delta = float(rng.random() * 0.9 + 0.05)
            sources = None
            if not force:
                assigned = np.flatnonzero(state[0] != NO_CENTER)
                k = min(int(rng.integers(0, 6)), len(assigned))
                sources = np.sort(
                    rng.choice(assigned, size=k, replace=False)
                ) if k else np.empty(0, dtype=np.int64)
            batch = scratch.emit(
                center=state[0], dist=state[1], dacc=state[3],
                frozen=state[2], frozen_iter=state[5],
                delta=delta, force=force, sources=sources,
            )
            # Fresh scratch = ground truth for this round.
            fresh = EmitScratch(graph.indptr, graph.indices, graph.weights)
            ref = fresh.emit(
                center=state[0], dist=state[1], dacc=state[3],
                frozen=state[2], frozen_iter=state[5],
                delta=delta, force=force, sources=sources,
            )
            assert batch.emitted == ref.emitted
            assert batch.count == ref.count
            for got, want in (
                (batch.keys, ref.keys), (batch.nd, ref.nd),
                (batch.ctr, ref.ctr), (batch.src, ref.src), (batch.w, ref.w),
            ):
                got_s = np.sort(np.asarray(got))
                np.testing.assert_allclose(got_s, np.sort(np.asarray(want)))

    def test_cache_tracks_freezing_and_delta_changes(self):
        """Forced-round replay must equal plain push through a realistic
        freeze / delta-doubling / stage-reset history."""
        graph = small_graph(seed=33)
        n = graph.num_nodes
        rng = np.random.default_rng(17)
        scratch = EmitScratch(graph.indptr, graph.indices, graph.weights)
        center = np.full(n, NO_CENTER, dtype=np.int64)
        dist = np.full(n, np.inf)
        frozen = np.zeros(n, dtype=bool)
        dacc = np.full(n, np.inf)
        fit = np.zeros(n, dtype=np.int64)
        delta = 0.3
        for stage in range(6):
            # Freeze a few assigned nodes, reset the rest, pick centers.
            newly = rng.random(n) < 0.15
            frozen |= newly & (center != NO_CENTER)
            live = ~frozen
            center[live] = NO_CENTER
            dist[live] = np.inf
            dacc[live] = np.inf
            picks = np.flatnonzero(live)[: 1 + stage]
            center[picks] = picks
            dist[picks] = 0.0
            dacc[picks] = 0.0
            if stage == 3:
                delta *= 2  # invalidates the cache wholesale
            os.environ[EMIT_ENV] = "auto"
            batch = scratch.emit(
                center=center, dist=dist, dacc=dacc, frozen=frozen,
                frozen_iter=fit, delta=delta, force=True,
            )
            os.environ[EMIT_ENV] = "push"
            ref = EmitScratch(graph.indptr, graph.indices, graph.weights).emit(
                center=center, dist=dist, dacc=dacc, frozen=frozen,
                frozen_iter=fit, delta=delta, force=True,
            )
            assert batch.emitted == ref.emitted
            assert batch.count == ref.count
            np.testing.assert_array_equal(batch.group_keys, ref.group_keys)
            np.testing.assert_array_equal(batch.group_counts, ref.group_counts)
            got = sorted_rows(batch.keys, batch.nd, batch.ctr, batch.srcf)
            want = sorted_rows(ref.keys, ref.nd, ref.ctr, ref.srcf)
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, b)
        assert scratch.cache_hits >= 1

    def test_reset_clears_cache_but_keeps_working(self):
        graph = small_graph(seed=9)
        rng = np.random.default_rng(23)
        scratch = EmitScratch(graph.indptr, graph.indices, graph.weights)
        state = random_state(graph, rng)
        kwargs = dict(
            center=state[0], dist=state[1], dacc=state[3], frozen=state[2],
            frozen_iter=state[5], delta=0.6, force=True,
        )
        os.environ[EMIT_ENV] = "auto"
        first = scratch.emit(**kwargs)
        scratch.reset()
        again = scratch.emit(**kwargs)
        assert first.emitted == again.emitted
        assert first.count == again.count


class TestDirectionPlanning:
    def test_env_modes(self):
        os.environ[EMIT_ENV] = "pull"
        assert emit_mode() == "pull"
        os.environ[EMIT_ENV] = "bogus"
        assert emit_mode() == "auto"
        os.environ.pop(EMIT_ENV, None)
        assert emit_mode() == "auto"

    def test_auto_threshold(self):
        graph = small_graph()
        scratch = EmitScratch(graph.indptr, graph.indices, graph.weights)
        assert scratch.plan_direction(0, "auto") == "push"
        # auto resolves by tier: the NumPy pull scan beats NumPy push
        # on heavy frontiers, while the C push never loses (it scans
        # exactly the frontier's arcs), so native auto stays push.
        with native.impl_overrides("py", None):
            assert scratch.plan_direction(graph.num_arcs, "auto") == "pull"
        if native.native_available():
            with native.impl_overrides("native", None):
                assert scratch.plan_direction(graph.num_arcs, "auto") == "push"
        assert scratch.plan_direction(graph.num_arcs, "push") == "push"
        assert scratch.plan_direction(0, "pull") == "pull"


class TestOrderFreeReducer:
    def test_matches_arrival_reducer_on_dedup_batches(self):
        """(nd, center, source) scatter-min == arrival-order min-first
        when each source ships at most one row per target."""
        rng = np.random.default_rng(31)
        for _ in range(20):
            groups = rng.integers(1, 6)
            keys, rows3, srcs_col = [], [], []
            for g in range(groups):
                srcs = rng.choice(50, size=rng.integers(1, 8), replace=False)
                srcs.sort()  # arrival order = ascending source
                for src in srcs:
                    nd = float(rng.integers(0, 3))
                    c = float(rng.integers(0, 3))
                    keys.append(g)
                    rows3.append((nd, c, float(rng.random())))
                    srcs_col.append(float(src))
            keys = np.asarray(keys, dtype=np.int64)
            rows3 = np.asarray(rows3)
            srcs_col = np.asarray(srcs_col)
            starts = np.flatnonzero(np.diff(keys, prepend=-1))
            offsets = np.concatenate((starts, [len(keys)])).astype(np.int64)
            k3, v3, _ = group_min_first(
                keys[starts], offsets, rows3, sort_cols=2
            )
            # Shuffle all rows: the by-source merge must not care about
            # arrival order.
            perm = rng.permutation(len(keys))
            k4, rows = scatter_min_rows(
                keys[perm],
                (rows3[perm, 0], rows3[perm, 1], srcs_col[perm]),
                domain=int(groups),
            )
            np.testing.assert_array_equal(k3, k4)
            np.testing.assert_array_equal(v3, rows3[perm][rows])
