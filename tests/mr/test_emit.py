"""Unit and property tests of the fused emit pipeline (repro.mr.emit).

The contract under test: for any state, :meth:`EmitScratch.emit` must
report the messages (count and group summary: worst group and busiest
simulated worker) of the plain ``emit_frontier`` oracle below while
materializing exactly the candidates that could be adopted — on both
kernel tiers, across reused buffers, and across the freeze / Δ-doubling
/ reset history the native scan's silent-row marks follow.  The raw
push expansion of shard-slice scratches (contiguous and lp-mapped rows,
boundary arcs included) is checked against the same oracle run on the
slice's own CSR.
"""

import numpy as np
import pytest

from repro.generators import rmat
from repro.graph.ops import largest_connected_component
from repro.mr import native
from repro.mr.batch import group_min_first
from repro.mr.emit import EmitBatch, EmitScratch
from repro.mr.kernels import scatter_min_rows
from repro.mr.partitioner import hash_partition
from repro.mrimpl.growing_mr import NO_CENTER
from repro.util import expand_ranges


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
    owners=None,
    localidx=None,
    shard=0,
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

    The kept rows are the round's messages: light, within Δ and into an
    open target.  A shard slice passes its partition sidecars
    (``owners``/``localidx`` by global id, and its ``shard`` id): an
    owned target is open when its local row is, and another shard's
    target is sent to from live sources only.

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
    if owners is None:
        open_ = ~frozen[tgts]
    else:
        own = owners[tgts] == shard
        open_ = np.where(
            own, ~frozen[np.where(own, localidx[tgts], 0)], ~frozen[src_rep]
        )
    ok = (w <= delta) & (nd_out <= delta) & open_
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
    """The oracle: the round's messages, then the merge-time
    adoptability filter."""
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
    imp = values[:, 0] < dist[keys]
    return keys, values, imp


def oracle_summary(keys, num_nodes, num_workers):
    """The literal accounting of a round's messages:
    ``(max_count, max_key, max_load)`` of its per-target groups, each
    routed by the scalar hash partitioner with its rows plus one
    output row."""
    dense = np.bincount(keys, minlength=num_nodes)
    groups = np.flatnonzero(dense)
    if not len(groups):
        return 0, None, 0
    top = int(dense.max())
    loads = [0] * num_workers
    for key in groups.tolist():
        loads[hash_partition(key, num_workers)] += int(dense[key]) + 1
    return top, int(groups[dense[groups] == top][0]), max(loads)


def summary_tuple(summary):
    return summary.max_count, summary.max_key, summary.max_load


def forced_batch(graph, state, delta, num_workers=1):
    """One forced round on a fresh scratch through the NumPy forced
    sets (no silent-row marks): the plain push expansion plus the
    shared filter/accounting tail."""
    center, dist, frozen, _, _, frozen_iter = state
    scratch = EmitScratch(graph.indptr, graph.indices, graph.weights)
    m_loc, e_loc = scratch._forced_sets(
        center, dist, frozen, frozen_iter, delta, 0.0, 0
    )
    src = np.flatnonzero(m_loc)
    cols = scratch._emit_push(src, e_loc[src], delta, frozen)
    return scratch._finish(EmitBatch(), cols, center, dist, num_workers)


def sorted_rows(keys, nd, ctr, src):
    order = np.lexsort((src, ctr, nd, keys))
    return keys[order], nd[order], ctr[order], src[order]


def assert_batch_matches_oracle(
    batch, graph, state, delta, force, sources=None, num_workers=1
):
    keys, values, imp = legacy_reference(graph, state, delta, force, sources)
    assert batch.emitted == len(keys)
    # Full-multiset accounting.
    assert summary_tuple(batch.summary) == oracle_summary(
        keys, graph.num_nodes, num_workers
    )
    # The filtered rows are exactly the adoptable candidates.
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


TIERS = (
    "py",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native.native_available(),
            reason="native kernel tier unavailable (no C toolchain)",
        ),
    ),
)


class TestEmitMatchesOracle:
    @pytest.mark.parametrize("impl", TIERS)
    @pytest.mark.parametrize("force", [True, False])
    @pytest.mark.parametrize("num_workers", [1, 2, 7])
    def test_random_states(self, force, impl, num_workers):
        """Each tier's fused finish — ``rk_finish_batch`` on the native
        tier — reports the oracle's group summary and adoptable rows."""
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
            with native.impl_overrides(impl, None):
                batch = scratch.emit(
                    center=state[0],
                    dist=state[1],
                    frozen=state[2],
                    frozen_iter=state[5],
                    delta=delta,
                    force=force,
                    sources=sources,
                    num_workers=num_workers,
                )
            assert_batch_matches_oracle(
                batch, graph, state, delta, force, sources, num_workers
            )


def shard_scratch(graph, layout, shard, num_shards=3):
    """An :class:`EmitScratch` over one shard's rows, shaped the way the
    sharded workers build it: the mapped layout with the partition
    sidecars (``row_gids``/``localidx``/``owners``) over a
    ``contiguous`` row set (the one ``lp`` returns when a contiguous
    split cuts least) or an interleaved (``mapped``) one.  Both keep
    global neighbour ids, so arcs into other shards' rows stay in the
    slice.  Returns the scratch and the global ids of its rows."""
    n = graph.num_nodes
    if layout == "whole":
        scratch = EmitScratch(graph.indptr, graph.indices, graph.weights)
        return scratch, np.arange(n, dtype=np.int64)
    if layout == "contiguous":
        bounds = np.linspace(0, n, num_shards + 1).astype(np.int64)
        owners = np.repeat(np.arange(num_shards), np.diff(bounds))
    else:
        owners = np.arange(n) % num_shards
    rows = np.flatnonzero(owners == shard).astype(np.int64)
    degs = graph.indptr[rows + 1] - graph.indptr[rows]
    aidx = expand_ranges(graph.indptr[rows], degs)
    indptr = np.concatenate(([0], np.cumsum(degs))).astype(np.int64)
    indices = graph.indices[aidx]
    assert np.any(owners[indices] != shard)  # the slice has boundary arcs
    localidx = np.zeros(n, dtype=np.int32)
    for k in range(num_shards):
        mine = owners == k
        localidx[mine] = np.arange(int(mine.sum()))
    scratch = EmitScratch(
        indptr, indices, graph.weights[aidx],
        row_gids=rows, localidx=localidx,
        owners=owners.astype(np.int32), shard_id=shard,
    )
    return scratch, rows


def canonical_columns(scratch, cols):
    """Raw expansion columns ``(keys, src, nd, w)`` in (target, arrival)
    order: a stable sort by key keeps each target group's arrival order,
    which must be ascending source."""
    keys, nd, src, aidx, count = cols
    order = np.argsort(keys[:count], kind="stable")
    return (
        keys[:count][order].copy(),
        src[:count][order].copy(),
        nd[:count][order].copy(),
        scratch.weights[aidx[:count][order]],
    )


def oracle_columns(scratch, state, delta, force, **kwargs):
    """``emit_frontier`` on the scratch's own (slice) CSR, as canonical
    raw columns.  Each assigned row is made its own center and ``dacc``
    is zero, so the oracle's value columns read back as the source row
    and the arc weight."""
    center, dist, frozen, frozen_iter = state
    rows = np.arange(len(center), dtype=np.int64)
    keys, values = emit_frontier(
        scratch.indptr, scratch.indices, scratch.weights,
        center=np.where(center != NO_CENTER, rows, NO_CENTER),
        dist=dist, dacc=np.zeros(len(center)), frozen=frozen,
        changed=np.zeros(len(center), dtype=bool), frozen_iter=frozen_iter,
        delta=delta, force=force, owners=scratch.owners,
        localidx=scratch.localidx, shard=scratch.shard_id, **kwargs,
    )
    order = np.argsort(keys, kind="stable")
    return (
        keys[order],
        values[order, 1].astype(np.int64),
        values[order, 0],
        values[order, 2],
    )


LAYOUTS = [("whole", 0)] + [
    (layout, shard)
    for layout in ("contiguous", "mapped")
    for shard in range(3)
]


class TestShardSlicesMatchOracle:
    """The push expansion emits the oracle's candidate columns, in the
    oracle's within-target order, on every scratch layout — whole
    graph and contiguous and interleaved shard row sets through the
    partition sidecars, boundary arcs included — on both kernel
    tiers."""

    @pytest.mark.parametrize("impl", TIERS)
    @pytest.mark.parametrize("layout, shard", LAYOUTS)
    def test_forced_round(self, layout, shard, impl):
        graph = small_graph(seed=41)
        scratch, rows = shard_scratch(graph, layout, shard)
        center, dist, frozen, _, _, frozen_iter = random_state(
            graph, np.random.default_rng(shard)
        )
        state = (center[rows], dist[rows], frozen[rows], frozen_iter[rows])
        with native.impl_overrides(impl, None):
            m_loc, e_loc = scratch._forced_sets(*state, 0.6, 0.0, 0)
            src = np.flatnonzero(m_loc)
            push = canonical_columns(
                scratch, scratch._emit_push(src, e_loc[src], 0.6, state[2])
            )
        want = oracle_columns(scratch, state, 0.6, True)
        assert len(want[0])
        for got, ref in zip(push, want):
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("impl", TIERS)
    @pytest.mark.parametrize("layout, shard", LAYOUTS)
    @pytest.mark.parametrize("force", [True, False])
    def test_emit_raw(self, layout, shard, force, impl):
        """``emit_raw``: a rescaled forced round and a frontier round."""
        graph = small_graph(seed=43)
        rng = np.random.default_rng(10 + shard)
        center, dist, frozen, _, _, frozen_iter = random_state(graph, rng)
        frozen_iter = rng.integers(0, 3, graph.num_nodes)
        assigned = np.flatnonzero(center != NO_CENTER)
        sources = np.sort(rng.choice(assigned, size=60, replace=False))
        scratch, rows = shard_scratch(graph, layout, shard)
        local = np.flatnonzero(np.isin(rows, sources))
        state = (center[rows], dist[rows], frozen[rows], frozen_iter[rows])
        kwargs = dict(
            rescale=0.05 if force else 0.0, iteration=3,
            sources=None if force else local,
        )
        with native.impl_overrides(impl, None):
            cols = scratch.emit_raw(
                center=state[0], dist=state[1], frozen=state[2],
                frozen_iter=state[3], delta=0.7, force=force, **kwargs,
            )
        want = oracle_columns(scratch, state, 0.7, force, **kwargs)
        assert len(want[0])
        for got, ref in zip(canonical_columns(scratch, cols), want):
            np.testing.assert_array_equal(got, ref)


class TestScratchReuse:
    def test_no_stale_rows_across_rounds(self):
        """A big emission followed by small ones must not leak rows."""
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
            kwargs = dict(
                center=state[0], dist=state[1], frozen=state[2],
                frozen_iter=state[5], delta=delta, force=force,
                sources=sources,
            )
            # Unrelated states thaw rows: forget the silent-row marks
            # (the banks stay).
            scratch.reset()
            batch = scratch.emit(**kwargs)
            # Fresh scratch = ground truth for this round.
            ref = EmitScratch(
                graph.indptr, graph.indices, graph.weights
            ).emit(**kwargs)
            assert batch.emitted == ref.emitted
            assert batch.count == ref.count
            for got, want in (
                (batch.keys, ref.keys), (batch.nd, ref.nd),
                (batch.ctr, ref.ctr), (batch.src, ref.src), (batch.w, ref.w),
            ):
                np.testing.assert_array_equal(got, want)

    @staticmethod
    def _history(graph, rng):
        """Forced-round states of a realistic stage history: a few
        assigned nodes freeze, the rest reset, new centers start, and Δ
        doubles once — the frozen set only grows."""
        n = graph.num_nodes
        center = np.full(n, NO_CENTER, dtype=np.int64)
        dist = np.full(n, np.inf)
        frozen = np.zeros(n, dtype=bool)
        fit = np.zeros(n, dtype=np.int64)
        delta = 0.3
        for stage in range(6):
            newly = rng.random(n) < 0.3
            frozen |= newly & (center != NO_CENTER)
            live = ~frozen
            center[live] = NO_CENTER
            dist[live] = np.inf
            picks = np.flatnonzero(live)[: 1 + 3 * stage]
            center[picks] = picks
            dist[picks] = 0.0
            # Grow the centers' neighbourhoods so frozen rows pile up.
            for u in picks:
                nbrs = graph.indices[graph.indptr[u]:graph.indptr[u + 1]]
                nbrs = nbrs[live[nbrs] & (center[nbrs] == NO_CENTER)]
                center[nbrs] = u
                dist[nbrs] = 0.1
            if stage == 3:
                delta *= 2
            yield center, dist, frozen, fit, delta

    @pytest.mark.parametrize("impl", TIERS)
    @pytest.mark.parametrize("num_workers", [1, 2, 7])
    def test_forced_rounds_track_freezing(self, impl, num_workers):
        """Forced rounds on one scratch through a freeze / Δ-doubling
        history equal a fresh scratch's: the same rows and the oracle's
        group summary.  On the native tier the scan marks exactly the
        frozen rows left with no open neighbour."""
        graph = small_graph(seed=33)
        n = graph.num_nodes
        scratch = EmitScratch(graph.indptr, graph.indices, graph.weights)
        marked = False
        for center, dist, frozen, fit, delta in self._history(
            graph, np.random.default_rng(17)
        ):
            with native.impl_overrides(impl, None):
                batch = scratch.emit(
                    center=center, dist=dist, frozen=frozen,
                    frozen_iter=fit, delta=delta, force=True,
                    num_workers=num_workers,
                )
                ref = forced_batch(
                    graph, (center, dist, frozen, None, None, fit), delta,
                    num_workers,
                )
            assert batch.emitted == ref.emitted
            assert batch.count == ref.count
            state = (center, dist, frozen, dist, np.zeros(n, bool), fit)
            keys, _, _ = legacy_reference(graph, state, delta, True)
            assert summary_tuple(batch.summary) == oracle_summary(
                keys, n, num_workers
            )
            assert summary_tuple(batch.summary) == summary_tuple(ref.summary)
            for a, b in zip(
                (batch.keys, batch.nd, batch.ctr, batch.srcf),
                (ref.keys, ref.nd, ref.ctr, ref.srcf),
            ):
                np.testing.assert_array_equal(a, b)
            if impl == "native":
                open_nbr = np.zeros(n, dtype=bool)
                src = np.repeat(np.arange(n), np.diff(graph.indptr))
                np.logical_or.at(open_nbr, src, ~frozen[graph.indices])
                silent = frozen & ~open_nbr
                np.testing.assert_array_equal(
                    scratch._dead.astype(bool), silent
                )
                marked |= bool(silent.any())
        assert impl == "py" or marked

    def test_reset_forgets_silent_rows(self):
        """Thawing rows (a new phase, a restore) after :meth:`reset`
        emits what a fresh scratch does."""
        graph = small_graph(seed=9)
        n = graph.num_nodes
        scratch = EmitScratch(graph.indptr, graph.indices, graph.weights)
        center = np.arange(n, dtype=np.int64)
        kwargs = dict(
            center=center, dist=np.zeros(n), frozen_iter=np.zeros(n, np.int64),
            delta=0.6, force=True,
        )
        frozen = np.ones(n, dtype=bool)
        frozen[0] = False
        scratch.emit(frozen=frozen, **kwargs)
        thawed = np.zeros(n, dtype=bool)
        scratch.reset()
        again = scratch.emit(frozen=thawed, **kwargs)
        fresh = EmitScratch(graph.indptr, graph.indices, graph.weights).emit(
            frozen=thawed, **kwargs
        )
        assert again.emitted == fresh.emitted > 0
        assert again.count == fresh.count


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
