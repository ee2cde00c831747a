"""Tests for the execution backends."""

from repro.mr.engine import MREngine
from repro.mr.executor import SerialExecutor, VectorExecutor
from repro.mr.model import MRSpec


def double_reducer(key, values):
    return [(key, 2 * v) for v in values]


class TestSerialExecutor:
    def test_output_and_loads(self):
        ex = SerialExecutor()
        out, loads = ex.run({"a": [1, 2], "b": [3]}, double_reducer, 2)
        assert sorted(out) == [("a", 2), ("a", 4), ("b", 6)]
        assert len(loads) == 2
        # Load counts inputs + outputs across both workers.
        assert sum(loads) == 6

    def test_empty_groups(self):
        ex = SerialExecutor()
        out, loads = ex.run({}, double_reducer, 3)
        assert out == []
        assert loads == [0, 0, 0]


class TestVectorExecutor:
    """Per-key rounds on the batch backend run the serial simulation."""

    def test_matches_serial(self):
        groups = {i: [i, i + 1] for i in range(8)}
        serial_out, serial_loads = SerialExecutor().run(
            groups, double_reducer, 4
        )
        out, loads = VectorExecutor().run(groups, double_reducer, 4)
        assert sorted(out) == sorted(serial_out)
        assert loads == serial_loads

    def test_engine_integration(self):
        engine = MREngine(
            MRSpec(10_000, 1000, num_workers=2), executor=VectorExecutor()
        )
        out = engine.round([("a", 1), ("b", 2)], double_reducer)
        assert sorted(out) == [("a", 2), ("b", 4)]
        assert engine.supports_batch

    def test_empty_groups(self):
        out, loads = VectorExecutor().run({}, double_reducer, 3)
        assert out == []
        assert loads == [0, 0, 0]
