"""Accounting parity of cache-replayed forced rounds against the oracle.

A forced round the frozen-emission cache answers never builds the
round's per-target histogram: the cache keeps a running group summary
(per-worker loads and the worst group) as rows are appended, and the
replay folds only the live rows onto it.  This suite pins that summary
to the per-key oracle of ``tests/oracle/mr_literal.py`` on a road graph
whose forced rounds replay a non-empty cache, for CLUSTER and CL-DIAM,
on both kernel tiers of ``vector`` and for several simulated worker
counts.  Two interchange hubs of degree 10 give the graph reducer
groups larger than any grid node's, and a late replayed round is the
first to fill one, so an ``M_L`` check can be made to fire there.

The oracle's own ``messages`` and ``simulated_time`` count adjacency
and state pairs too, so the expected figures are derived from its pair
multiset instead: round by round, the candidate (``"C"``) pairs each
key receives are the groups the batch cost model charges — messages are
their number, each group loads its hash-routed worker with its rows
plus one output row, and the worst group (largest, then smallest key)
is the one an ``M_L`` check reports.  CL-DIAM's quotient round is the
same ``round_batch`` on both engines, so its share is taken from the
oracle run as is.
"""

from collections import Counter

import numpy as np
import pytest
import mr_literal
from mr_literal import literal_engine

from repro.core.config import ClusterConfig
from repro.errors import MemoryLimitExceeded
from repro.generators import road_network
from repro.graph.builder import from_edges
from repro.mr import native
from repro.mr.emit import EmitScratch
from repro.mr.engine import MREngine
from repro.mr.model import MRSpec
from repro.mr.partitioner import hash_partition
from repro.mrimpl.cluster_mr import mr_cluster
from repro.mrimpl.diameter_mr import mr_approximate_diameter
from repro.mrimpl.growing_mr import default_engine

CFG = ClusterConfig(seed=42, stage_threshold_factor=1.0, tau=2)
WORDS_PER_PAIR = 4  # the growing merge: 1 key word + 3 payload words
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
ALGORITHMS = {"cluster": mr_cluster, "cl-diam": mr_approximate_diameter}


@pytest.fixture(scope="module")
def graph():
    """``road_network(24)`` plus two hubs, each joined to 10 nodes."""
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

    monkeypatch.setattr(mr_literal, "literal_round", recording_round)
    engine = literal_engine(graph, num_workers=num_workers)
    result = ALGORITHMS[algorithm](graph, config=CFG, engine=engine)
    monkeypatch.undo()
    return result, engine, rounds


def worst_group(groups):
    """``(count, key)`` of the largest group, smallest key on ties."""
    if not groups:
        return 0, None
    top = max(groups.values())
    return top, min(k for k, c in groups.items() if c == top)


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


def replayed_rounds(monkeypatch, run):
    """Run ``run()`` on ``vector`` and return, per growing round, whether
    its batch was replayed from a non-empty frozen-emission cache."""
    batches = []
    replays = []
    emit = EmitScratch.emit
    cached = EmitScratch._emit_forced_cached

    def recording_emit(self, **kwargs):
        batch = emit(self, **kwargs)
        batches.append(batch)
        return batch

    def recording_cached(self, batch, *args):
        out = cached(self, batch, *args)
        if self._cache_inert or len(self._cache_keys):
            replays.append(out)
        return out

    monkeypatch.setattr(EmitScratch, "emit", recording_emit)
    monkeypatch.setattr(EmitScratch, "_emit_forced_cached", recording_cached)
    run()
    monkeypatch.undo()
    # Step i's emission is merged — and accounted — in round i + 1.
    flags = [False] + [any(b is r for r in replays) for b in batches]
    return flags[: len(batches)]


def run_vector(graph, algorithm, impl, num_workers, spec=None):
    with native.impl_overrides(impl, None):
        engine = default_engine(graph, executor="vector", num_workers=num_workers)
        if spec is not None:
            engine = MREngine(spec)
        result = ALGORITHMS[algorithm](graph, config=CFG, engine=engine)
    return result, engine


@pytest.mark.parametrize("num_workers", [1, 2, 7])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("impl", TIERS)
def test_replayed_rounds_match_oracle(
    graph, algorithm, impl, num_workers, monkeypatch
):
    reference, oracle, rounds = oracle_trace(
        graph, algorithm, num_workers, monkeypatch
    )
    flags = replayed_rounds(
        monkeypatch, lambda: run_vector(graph, algorithm, impl, num_workers)
    )
    assert any(flags), "no forced round replayed a non-empty cache"
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
def test_memory_limit_raised_in_a_replayed_round(
    graph, impl, num_workers, monkeypatch
):
    """An ``M_L`` just below the worst group of a replayed round, and
    above every earlier round's: the check fires in that round, with
    the oracle's word count and key."""
    _, _, rounds = oracle_trace(graph, "cluster", num_workers, monkeypatch)
    flags = replayed_rounds(
        monkeypatch, lambda: run_vector(graph, "cluster", impl, num_workers)
    )
    worst = [worst_group(groups) for groups, _, _ in rounds]
    assert len(flags) == len(worst)
    best = 0
    for (count, key), replayed in zip(worst, flags):
        if replayed and count > best:
            break
        best = max(best, count)
    else:
        pytest.fail("no replayed round holds a new worst group")
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
