"""Tests for the per-key MR oracle of ``tests/oracle/mr_literal.py``.

The oracle is only worth its place if it is the literal model: grouping
in input order, the ``M_L``/``M_T`` word budgets and per-pair
accounting.  Its growing step is held to the same step-by-step contract
as the batch backends' states in ``tests/mrimpl/test_growing_mr.py``.
"""

import pytest
from mr_literal import PairGrowingState, literal_round

from repro.errors import MemoryLimitExceeded
from repro.mr.engine import MREngine
from repro.mr.model import MRSpec


def identity_reducer(key, values):
    return [(key, v) for v in values]


def sum_reducer(key, values):
    return [(key, sum(values))]


def wordcount_reducer(key, values):
    return [(key, len(values))]


@pytest.fixture
def engine():
    return MREngine(MRSpec(total_memory=10_000, local_memory=100))


class TestRound:
    def test_groups_by_key(self, engine):
        pairs = [("a", 1), ("b", 2), ("a", 3)]
        out = literal_round(engine, pairs, sum_reducer)
        assert sorted(out) == [("a", 4), ("b", 2)]

    def test_wordcount(self, engine):
        text = "the quick fox the lazy the".split()
        out = literal_round(engine, [(w, 1) for w in text], wordcount_reducer)
        assert dict(out)["the"] == 3

    def test_values_arrive_in_input_order(self, engine):
        pairs = [("k", i) for i in range(10)]

        def check_order(key, values):
            assert values == list(range(10))
            return []

        literal_round(engine, pairs, check_order)

    def test_empty_input(self, engine):
        assert literal_round(engine, [], identity_reducer) == []

    def test_rounds_counted(self, engine):
        literal_round(engine, [("a", 1)], identity_reducer)
        literal_round(engine, [("a", 1)], identity_reducer)
        assert engine.counters.rounds == 2

    def test_messages_counted(self, engine):
        literal_round(engine, [("a", 1), ("b", 2), ("a", 3)], identity_reducer)
        assert engine.counters.messages == 3


class TestMemoryEnforcement:
    def test_local_limit(self):
        engine = MREngine(MRSpec(total_memory=1000, local_memory=4))
        pairs = [("hot", i) for i in range(10)]  # 20 words on one key
        with pytest.raises(MemoryLimitExceeded) as exc:
            literal_round(engine, pairs, identity_reducer)
        assert exc.value.key == "hot"

    def test_total_limit(self):
        engine = MREngine(MRSpec(total_memory=10, local_memory=10))
        pairs = [(i, i) for i in range(20)]
        with pytest.raises(MemoryLimitExceeded):
            literal_round(engine, pairs, identity_reducer)

    def test_enforcement_off(self):
        engine = MREngine(
            MRSpec(total_memory=10, local_memory=4), enforce_memory=False
        )
        pairs = [("hot", i) for i in range(10)]
        out = literal_round(engine, pairs, identity_reducer)
        assert len(out) == 10

    def test_tuple_values_cost_their_length(self):
        engine = MREngine(MRSpec(total_memory=1000, local_memory=5))
        # One pair with a 10-element tuple: 11 words > 5.
        with pytest.raises(MemoryLimitExceeded):
            literal_round(engine, [("k", tuple(range(10)))], identity_reducer)


class TestTimeModel:
    def test_critical_path_shrinks_with_workers(self):
        pairs = [(i, i) for i in range(64)]
        t1 = MREngine(MRSpec(10_000, 1000, num_workers=1))
        t8 = MREngine(MRSpec(10_000, 1000, num_workers=8))
        literal_round(t1, pairs, identity_reducer)
        literal_round(t8, pairs, identity_reducer)
        assert t8.simulated_time < t1.simulated_time

    def test_single_worker_time_is_total_load(self):
        engine = MREngine(MRSpec(10_000, 1000, num_workers=1))
        literal_round(engine, [(i, i) for i in range(10)], identity_reducer)
        # 10 input + 10 output pairs on the only worker.
        assert engine.simulated_time == 20


class TestPairGrowingState:
    """The oracle's pair layout; its step semantics are pinned, next to
    the batch backends', by ``tests/mrimpl/test_growing_mr.py``."""

    def test_pair_counts(self, triangle):
        # One adjacency + one state record per node.
        assert len(PairGrowingState(triangle).pairs) == 6
