"""The growing-state contract, step by step, on every backend.

The drivers only talk to the state :func:`make_growing_state` hands
them: ``begin_stage``/``step``/``freeze_assigned``/``make_singletons``
plus the checkpoint arrays.  This suite pins that contract on small
graphs whose outcome is known by hand, for ``vector``'s
:class:`ArrayGrowingState` on both kernel tiers, the ``sharded``
backend's state, and the per-key oracle of ``tests/oracle/mr_literal.py``
— one growing step emits candidates, the next one merges them with the
paper's tie-break (smallest distance, then smallest center) under the Δ
filter, and frozen nodes propagate at effective distance 0.
"""

import numpy as np
import pytest
from mr_literal import LiteralExecutor

from repro.graph.builder import from_edge_list
from repro.mr import native
from repro.mr.engine import MREngine
from repro.mr.model import MRSpec
from repro.mr.sharded import ShardedExecutor
from repro.mrimpl.growing_mr import NO_CENTER, ArrayGrowingState, make_growing_state

BACKENDS = ("vector-native", "vector-py", "sharded", "literal")


@pytest.fixture(params=BACKENDS)
def make_state(request, monkeypatch):
    """``graph -> (state, engine)`` on one backend; executors are closed
    after the test."""
    backend = request.param
    if backend.startswith("vector-"):
        monkeypatch.setenv(native.KERNEL_IMPL_ENV, backend.split("-")[1])
    executors = []

    def build(graph):
        if backend == "sharded":
            executor = ShardedExecutor(num_shards=2)
            executors.append(executor)
        elif backend == "literal":
            executor = LiteralExecutor()
        else:
            executor = None
        engine = MREngine(
            MRSpec(total_memory=100_000, local_memory=1000), executor=executor
        )
        return make_growing_state(graph, engine), engine

    yield build
    for executor in executors:
        executor.close()


def set_state(state, u, center, dist, dacc, frozen):
    """Overwrite node ``u``'s state through a checkpoint round trip."""
    arrays = state.snapshot_arrays()
    arrays["center"][u] = center
    arrays["dist"][u] = dist
    arrays["dist_acc"][u] = dacc
    arrays["frozen"][u] = frozen
    state.restore_arrays(arrays)


def relax(state, engine, delta):
    """One forced broadcast and the step that merges it."""
    state.step(engine, delta, force=True)
    return state.step(engine, delta)


class TestStateContract:
    def test_states_blank(self, make_state, triangle):
        state, _ = make_state(triangle)
        center, dacc = state.result()
        assert (center == NO_CENTER).all()
        assert np.isinf(dacc).all()
        assert state.uncovered().tolist() == [0, 1, 2]
        assert not state.in_flight()

    def test_two_rounds_relax_one_hop(self, make_state):
        """Round 1 (forced) emits candidates; round 2 merges them."""
        state, engine = make_state(from_edge_list([(0, 1, 1.0)], 2))
        state.begin_stage(np.array([0]))
        upd1, _ = state.step(engine, 5.0, force=True)
        assert upd1 == 0  # candidates in flight only
        assert state.in_flight()
        upd2, newly = state.step(engine, 5.0)
        assert upd2 == 1 and newly == 1
        center, dacc = state.result()
        assert center[1] == 0
        assert dacc[1] == 1.0

    def test_one_hop_per_round_on_a_path(self, make_state, path5):
        state, engine = make_state(path5)
        state.begin_stage(np.array([0]))
        state.step(engine, 10.0, force=True)
        reached = []
        for _ in range(4):
            state.step(engine, 10.0)
            reached.append(int(np.count_nonzero(state.result()[0] == 0)))
        assert reached == [2, 3, 4, 5]
        assert state.result()[1].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_delta_filter(self, make_state):
        state, engine = make_state(from_edge_list([(0, 1, 3.0)], 2))
        state.begin_stage(np.array([0]))
        upd, _ = relax(state, engine, 2.0)
        assert upd == 0
        assert state.result()[0][1] == NO_CENTER

    def test_tiebreak_smaller_center(self, make_state):
        state, engine = make_state(
            from_edge_list([(0, 1, 1.0), (2, 1, 1.0)], 3)
        )
        state.begin_stage(np.array([2, 0]))
        relax(state, engine, 5.0)
        assert state.result()[0][1] == 0

    def test_shorter_distance_beats_smaller_center(self, make_state):
        state, engine = make_state(
            from_edge_list([(0, 1, 2.0), (2, 1, 1.0)], 3)
        )
        state.begin_stage(np.array([0, 2]))
        relax(state, engine, 5.0)
        center, dacc = state.result()
        assert center[1] == 2
        assert dacc[1] == 1.0

    def test_frozen_not_updated_but_propagates(self, make_state):
        state, engine = make_state(
            from_edge_list([(0, 1, 1.0), (1, 2, 1.0)], 3)
        )
        set_state(state, 1, center=0, dist=0.7, dacc=0.5, frozen=True)
        relax(state, engine, 1.5)
        arrays = state.snapshot_arrays()
        # Node 2 received center 0 at stage-distance w = 1 (eff 0 + 1).
        assert arrays["center"][2] == 0
        assert arrays["dist"][2] == pytest.approx(1.0)
        # And accumulated distance dacc = 0.5 + 1.
        assert arrays["dist_acc"][2] == pytest.approx(1.5)
        # Frozen node 1 unchanged.
        assert arrays["dist"][1] == pytest.approx(0.7)

    def test_engine_counts_rounds(self, make_state):
        state, engine = make_state(from_edge_list([(0, 1, 1.0)], 2))
        state.begin_stage(np.array([0]))
        state.step(engine, 1.0, force=True)
        assert engine.counters.rounds == 1
        assert engine.counters.growing_steps == 1
        state.step(engine, 1.0)
        assert engine.counters.rounds == 2
        assert engine.counters.growing_steps == 2
        assert engine.counters.updates == 1

    def test_discarded_candidates_never_land(self, make_state):
        state, engine = make_state(from_edge_list([(0, 1, 1.0)], 2))
        state.begin_stage(np.array([0]))
        state.step(engine, 5.0, force=True)
        assert state.in_flight()
        state.discard_candidates()
        assert not state.in_flight()
        upd, _ = state.step(engine, 5.0)
        assert upd == 0
        assert state.result()[0][1] == NO_CENTER

    def test_freeze_assigned_covers_the_cluster(self, make_state, path5):
        state, engine = make_state(path5)
        state.begin_stage(np.array([0]))
        relax(state, engine, 10.0)
        assert state.freeze_assigned(iteration=3) == 2
        assert state.uncovered().tolist() == [2, 3, 4]
        arrays = state.snapshot_arrays()
        assert arrays["frozen"].tolist() == [True, True, False, False, False]
        assert arrays["frozen_iter"][:2].tolist() == [3, 3]
        # Frozen nodes are counted once.
        assert state.freeze_assigned(iteration=4) == 0

    def test_begin_stage_resets_only_live_nodes(self, make_state, path5):
        state, engine = make_state(path5)
        state.begin_stage(np.array([0]))
        relax(state, engine, 10.0)
        state.freeze_assigned()
        state.begin_stage(np.array([4]))
        center, dacc = state.result()
        assert center.tolist() == [0, 0, NO_CENTER, NO_CENTER, 4]
        assert dacc[:2].tolist() == [0.0, 1.0]
        assert np.isinf(dacc[2:4]).all() and dacc[4] == 0.0

    def test_make_singletons(self, make_state, path5):
        state, engine = make_state(path5)
        state.begin_stage(np.array([0]))
        relax(state, engine, 10.0)
        state.freeze_assigned()
        assert state.make_singletons(iteration=2) == 3
        center, dacc = state.result()
        assert center.tolist() == [0, 0, 2, 3, 4]
        assert dacc.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]
        assert len(state.uncovered()) == 0

    def test_snapshot_restore_round_trip(self, make_state, path5):
        state, engine = make_state(path5)
        state.begin_stage(np.array([0, 4]))
        relax(state, engine, 10.0)
        state.freeze_assigned(iteration=1)
        saved = state.snapshot_arrays()

        fresh, _ = make_state(path5)
        fresh.restore_arrays(saved)
        restored = fresh.snapshot_arrays()
        assert restored.keys() == saved.keys()
        for name in saved:
            assert np.array_equal(restored[name], saved[name]), name
        assert fresh.uncovered().tolist() == [2]


def test_vector_state_is_reused_across_phases(triangle):
    """``vector`` keeps one array state per engine and graph: a second
    phase resets it in place instead of rebuilding its scratch."""
    engine = MREngine(MRSpec(total_memory=100_000, local_memory=1000))
    state = make_growing_state(triangle, engine)
    assert isinstance(state, ArrayGrowingState)
    state.begin_stage(np.array([0]))
    assert make_growing_state(triangle, engine) is state
    assert (state.result()[0] == NO_CENTER).all()
