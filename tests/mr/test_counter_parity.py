"""One ``messages`` count on every path.

A round's messages are the candidates over light arcs (``w <= Δ``) that
pass the Δ test (``nd <= Δ``) and whose target is not frozen when the
round emits (``docs/mr_model.md``).  For a drawn graph, node state and
Δ, every implementation of a growing round must report the same count:

* the whole-graph push (:meth:`EmitScratch.emit`) on both kernel tiers;
* the shard layout at K = 1, 2 and 7, summing what each worker counts
  (its local rows, its shipped rows and the ghost rows it regenerates);
* the serial core's growing step (``rk_core_emit_push`` and its NumPy
  twin);
* the per-key oracle of ``tests/oracle/mr_literal.py``, whose candidate
  pairs are the messages.

Draws cover zero, tied and extreme weights, disconnected graphs, n = 0
and n = 1, forced and frontier rounds, and Contract2 rescaling.  The
second half runs whole CLUSTER and CL-DIAM runs against the oracle: the
counters, the simulated critical path and the ``M_L`` check follow the
oracle's candidate groups round by round.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mr_literal
from mr_literal import PairGrowingState, candidate_messages, literal_engine

from repro.core.config import ClusterConfig
from repro.core.growing import delta_growing_step
from repro.core.state import ClusterState
from repro.errors import MemoryLimitExceeded
from repro.generators import road_network
from repro.graph.builder import from_edges
from repro.graph.csr import CSRGraph
from repro.mr import native
from repro.mr.emit import EmitScratch
from repro.mr.engine import MREngine
from repro.mr.metrics import Counters
from repro.mr.model import MRSpec
from repro.mr.partitioner import hash_partition
from repro.mr.sharded import ShardedExecutor
from repro.mrimpl.cluster_mr import mr_cluster
from repro.mrimpl.diameter_mr import mr_approximate_diameter
from repro.mrimpl.growing_mr import NO_CENTER, default_engine

TIERS = ("py", "native") if native.native_available() else ("py",)
SHARD_COUNTS = (1, 2, 7)

#: Weight pools: zero, ties, and magnitudes so far apart that
#: fl(d + w) == d.
WEIGHT_POOLS = (
    (1.0,),
    (0.0, 1.0),
    (0.5, 1.0, 2.0),
    (1e-300, 1.0, 1e300),
    (0.0, 0.5, 1.0, 2.0, 1e-300, 1e300),
)
DISTANCES = (0.0, 0.5, 1.0, 2.0, 1e300)
DELTAS = (1e-300, 0.5, 1.0, 2.0, 1e300)


# --------------------------------------------------------------------- #
# One round, every path
# --------------------------------------------------------------------- #


@st.composite
def rounds(draw):
    """``(graph, arrays, delta, force, sources, rescale, iteration)``.

    Hypothesis draws the shape (size, edge density, weight pool, how
    many nodes are assigned and frozen, Δ, the round kind) and a seed
    for the arrays.  Sparse draws leave the graph disconnected.
    ``arrays`` are the global state columns the checkpoint payload
    carries; ``sources`` (frontier rounds) are live assigned nodes.
    """
    n = draw(st.sampled_from(range(13)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.25, 0.5, 0.9)))
    pool = draw(st.sampled_from(WEIGHT_POOLS))
    upper = np.triu(rng.random((n, n)) < density, k=1)
    weight = np.where(upper, rng.choice(pool, size=(n, n)), 0.0)
    adjacency = upper | upper.T
    weight = weight + weight.T
    graph = CSRGraph(
        np.concatenate(([0], np.cumsum(adjacency.sum(axis=1)))),
        np.nonzero(adjacency)[1],
        weight[adjacency],
        validate=False,  # zero weights: the builders reject them
    )
    assigned = rng.random(n) < draw(st.sampled_from((0.5, 0.8, 1.0)))
    frozen = assigned & (rng.random(n) < draw(st.sampled_from((0.0, 0.3, 0.6))))
    dist = np.where(assigned, rng.choice(DISTANCES, size=n), np.inf)
    arrays = {
        "center": np.where(
            assigned, rng.integers(0, max(n, 1), n), NO_CENTER
        ).astype(np.int64),
        "dist": dist,
        "dist_acc": dist.copy(),
        "frozen": frozen,
        "frozen_iter": rng.integers(0, 3, n).astype(np.int64),
        "changed": np.zeros(n, dtype=bool),
    }
    force = draw(st.booleans())
    live = np.flatnonzero(assigned & ~frozen)
    sources = None if force else live[rng.random(len(live)) < 0.6]
    delta = draw(st.sampled_from(DELTAS))
    rescale = draw(st.sampled_from((0.0, 0.5)))
    return graph, arrays, delta, force, sources, rescale, 3


def vector_count(graph, arrays, delta, force, sources, rescale, iteration):
    scratch = EmitScratch(graph.indptr, graph.indices, graph.weights)
    batch = scratch.emit(
        center=arrays["center"], dist=arrays["dist"],
        frozen=arrays["frozen"], frozen_iter=arrays["frozen_iter"],
        delta=delta, force=force, rescale=rescale, iteration=iteration,
        sources=sources,
    )
    return batch.emitted


def shard_count(workers, arrays, delta, force, sources, rescale, iteration):
    """Summed over workers: each counts the messages whose target's
    frozen bit it holds."""
    total = 0
    for worker in workers:
        worker.restore_arrays(arrays)
        if force:
            reply = worker.exchange_step(
                delta, True, rescale, iteration, [], []
            )
            total += reply["emitted"]
        else:
            mine = sources[np.isin(sources, worker.row_gids)]
            local = np.searchsorted(worker.row_gids, mine)
            total += worker._emit_fused(
                delta, False, rescale, iteration, local
            )[0]
    return total


def core_count(graph, arrays, delta, force, sources, rescale, iteration):
    state = ClusterState(graph.num_nodes)
    state.center[:] = arrays["center"]
    state.dist[:] = arrays["dist"]
    state.dist_acc[:] = arrays["dist_acc"]
    state.frozen[:] = arrays["frozen"]
    state.frozen_iter[:] = arrays["frozen_iter"]
    counters = Counters()
    delta_growing_step(
        graph, state, delta, counters, sources=sources,
        iteration=iteration, rescale=rescale,
    )
    return counters.messages


def literal_count(graph, arrays, delta, force, sources, rescale, iteration):
    """The candidate pairs of one literal round.  A frontier round's
    sources are re-created the way they arise: each starts the round
    unassigned and adopts its state from one injected candidate."""
    state = PairGrowingState(graph)
    arrays = dict(arrays)
    inject = []
    if not force:
        for name in ("center", "dist", "dist_acc"):
            arrays[name] = arrays[name].copy()
        for u in sources.tolist():
            inject.append((u, ("C", arrays["dist"][u], arrays["center"][u],
                               arrays["dist_acc"][u])))
        arrays["center"][sources] = NO_CENTER
        arrays["dist"][sources] = np.inf
        arrays["dist_acc"][sources] = np.inf
    state.restore_arrays(arrays)
    engine = MREngine(MRSpec(10**9, 10**9), enforce_memory=False)
    reducer = lambda key, values: mr_literal.growing_reducer(  # noqa: E731
        key, values, delta, force, rescale, iteration
    )
    out = mr_literal.literal_round(engine, state.pairs + inject, reducer)
    return candidate_messages(out)


@given(rounds())
@settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_every_path_counts_the_same_messages(drawn):
    graph, arrays, delta, force, sources, rescale, iteration = drawn
    args = (arrays, delta, force, sources, rescale, iteration)
    counts = {}
    for impl in TIERS:
        with native.impl_overrides(impl):
            counts[f"vector/{impl}"] = vector_count(graph, *args)
            counts[f"core/{impl}"] = core_count(graph, *args)
    counts["literal"] = literal_count(graph, *args)
    # An empty graph has no shard stores to map (the drivers reject it
    # before partitioning).
    if graph.num_nodes:
        for shards in SHARD_COUNTS:
            executor = ShardedExecutor(num_shards=shards)
            try:
                executor._ensure_workers(graph)
                for impl in TIERS:
                    with native.impl_overrides(impl):
                        counts[f"sharded{shards}/{impl}"] = shard_count(
                            executor._pool.workers, *args
                        )
            finally:
                executor.close()
    assert len(set(counts.values())) == 1, counts


def test_frozen_targets_are_not_messages():
    """A path 0 - 1 - 2 with node 1 frozen: a forced round sends 0 -> 1
    and 2 -> 1 nothing, and 1 -> 0, 1 -> 2 one message each."""
    graph = from_edges(
        np.array([0, 1]), np.array([1, 2]), np.array([1.0, 1.0]), 3
    )
    arrays = {
        "center": np.array([0, 1, 2]),
        "dist": np.zeros(3),
        "dist_acc": np.zeros(3),
        "frozen": np.array([False, True, False]),
        "frozen_iter": np.zeros(3, np.int64),
        "changed": np.zeros(3, bool),
    }
    args = (arrays, 1.0, True, None, 0.0, 0)
    assert vector_count(graph, *args) == 2
    assert core_count(graph, *args) == 2
    assert literal_count(graph, *args) == 2


# --------------------------------------------------------------------- #
# Whole runs against the oracle's candidate groups
# --------------------------------------------------------------------- #

CFG = ClusterConfig(seed=42, stage_threshold_factor=1.0, tau=2)
WORDS_PER_PAIR = 4  # the growing merge: 1 key word + 3 payload words
ALGORITHMS = {"cluster": mr_cluster, "cl-diam": mr_approximate_diameter}


@pytest.fixture(scope="module")
def graph():
    """``road_network(24)`` plus two hubs, each joined to 10 nodes: the
    hubs' reducer groups outgrow any grid node's."""
    road = road_network(24, seed=1)
    n = road.num_nodes
    rng = np.random.default_rng(1)
    u, v, w = (list(a) for a in road.edge_arrays())
    for hub in (n, n + 1):
        spokes = rng.choice(n, 10, replace=False)
        u += [hub] * 10
        v += list(spokes)
        w += list(rng.integers(100, 5000, 10).astype(float))
    return from_edges(np.array(u), np.array(v), np.array(w), n + 2)


def oracle_trace(graph, algorithm, num_workers, monkeypatch):
    """Run the per-key oracle, recording each growing round's candidate
    groups: ``(result, engine, rounds)`` with ``rounds`` a list of
    ``(candidate counts by key, pairs, simulated-time delta)``."""
    rounds = []
    literal_round = mr_literal.literal_round

    def recording_round(engine, pairs, reducer):
        groups = Counter(key for key, value in pairs if value[0] == "C")
        before = engine.simulated_time
        out = literal_round(engine, pairs, reducer)
        rounds.append((groups, len(pairs), engine.simulated_time - before))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(mr_literal, "literal_round", recording_round)
        engine = literal_engine(graph, num_workers=num_workers)
        result = ALGORITHMS[algorithm](graph, config=CFG, engine=engine)
    return result, engine, rounds


def expected_accounting(engine, rounds, num_workers):
    """The batch cost model's counters and critical path, from the
    oracle's candidate groups (plus any non-growing rounds as run)."""
    messages = peak = sim = 0
    for groups, _, _ in rounds:
        loads = [0] * num_workers
        for key, count in groups.items():
            loads[hash_partition(key, num_workers)] += count + 1
        emitted = sum(groups.values())
        messages += emitted
        peak = max(peak, emitted)
        sim += max(loads)
    other_messages = engine.counters.messages - sum(p for _, p, _ in rounds)
    if other_messages:
        peak = max(peak, other_messages)
    snapshot = dict(
        engine.counters.snapshot(),
        messages=messages + other_messages,
        peak_round_messages=peak,
    )
    snapshot["work"] = snapshot["messages"] + snapshot["updates"]
    other_sim = engine.simulated_time - sum(d for _, _, d in rounds)
    return snapshot, sim + other_sim


def run_vector(graph, algorithm, impl, num_workers, spec=None):
    with native.impl_overrides(impl):
        engine = default_engine(graph, executor="vector", num_workers=num_workers)
        if spec is not None:
            engine = MREngine(spec)
        result = ALGORITHMS[algorithm](graph, config=CFG, engine=engine)
    return result, engine


@pytest.mark.parametrize("num_workers", [1, 2, 7])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("impl", TIERS)
def test_runs_match_oracle_accounting(
    graph, algorithm, impl, num_workers, monkeypatch
):
    reference, oracle, rounds = oracle_trace(
        graph, algorithm, num_workers, monkeypatch
    )
    result, engine = run_vector(graph, algorithm, impl, num_workers)
    snapshot, sim = expected_accounting(oracle, rounds, num_workers)
    assert engine.counters.snapshot() == snapshot
    assert engine.simulated_time == sim
    if algorithm == "cluster":
        np.testing.assert_array_equal(result.center, reference.center)
        np.testing.assert_array_equal(
            result.dist_to_center, reference.dist_to_center
        )
    else:
        assert result.value == reference.value


@pytest.mark.parametrize("num_workers", [1, 2, 7])
@pytest.mark.parametrize("impl", TIERS)
def test_memory_limit_names_the_oracles_worst_group(
    graph, impl, num_workers, monkeypatch
):
    """An ``M_L`` just below the worst candidate group of the run: the
    check fires in the round that first holds it, with the oracle's
    word count and key."""
    _, _, rounds = oracle_trace(graph, "cluster", num_workers, monkeypatch)
    best = (0, None)
    for groups, _, _ in rounds:
        if groups:
            top = max(groups.values())
            key = min(k for k, c in groups.items() if c == top)
            if top > best[0]:
                best = (top, key)
    count, key = best
    assert count > 1
    limit = WORDS_PER_PAIR * count - 1
    base = default_engine(graph, num_workers=num_workers).spec
    spec = MRSpec(
        total_memory=base.total_memory, local_memory=limit,
        num_workers=num_workers,
    )
    with pytest.raises(MemoryLimitExceeded) as info:
        run_vector(graph, "cluster", impl, num_workers, spec=spec)
    assert info.value.used == WORDS_PER_PAIR * count
    assert info.value.limit == limit
    assert info.value.key == key
