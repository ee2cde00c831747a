"""Tests for report formatting."""

import json

import pytest

from repro.bench.reporting import (
    BENCH_SCHEMA,
    bench_record,
    format_bar_chart,
    format_bench_json,
    format_table,
    write_bench_json,
)


class TestFormatTable:
    def test_basic(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        out = format_table(rows)
        lines = out.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert "22" in lines[3]

    def test_column_selection_and_order(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        out = format_table(rows, columns=["c", "a"])
        assert out.splitlines()[0].split() == ["c", "a"]
        assert "2" not in out.splitlines()[2]

    def test_title(self):
        out = format_table([{"x": 1}], title="Table 2")
        assert out.startswith("Table 2")

    def test_empty(self):
        assert "(empty)" in format_table([])

    def test_large_numbers_scientific(self):
        out = format_table([{"work": 1_350_000_000_00}])
        assert "e+" in out

    def test_float_formatting(self):
        out = format_table([{"r": 1.23456789}])
        assert "1.235" in out

    def test_missing_key_blank(self):
        out = format_table([{"a": 1}, {"b": 2}], columns=["a", "b"])
        assert out  # no KeyError


class TestFormatBarChart:
    def test_basic(self):
        out = format_bar_chart({"x": 10.0, "y": 5.0})
        lines = out.splitlines()
        assert lines[0].startswith("x")
        assert lines[0].count("#") > lines[1].count("#")

    def test_log_scale_compresses(self):
        out_lin = format_bar_chart({"a": 1.0, "b": 10000.0}, width=50)
        out_log = format_bar_chart({"a": 1.0, "b": 10000.0}, log=True, width=50)
        a_lin = out_lin.splitlines()[0].count("#")
        a_log = out_log.splitlines()[0].count("#")
        assert a_log > a_lin  # log scale keeps the small bar visible

    def test_title_and_log_marker(self):
        out = format_bar_chart({"a": 1.0}, title="Figure 2", log=True)
        assert "Figure 2" in out and "[log scale]" in out

    def test_empty(self):
        assert "(empty)" in format_bar_chart({})

    def test_zero_values_handled(self):
        out = format_bar_chart({"a": 0.0, "b": 3.0}, log=True)
        assert "a" in out


class TestBenchRecords:
    def _record(self, **overrides):
        base = dict(
            workload="rmat16_lcc",
            n=40_336,
            m=477_299,
            backend="sharded",
            wall_s=1.234567,
            rounds=14,
            bytes_shipped=4_931_752,
        )
        base.update(overrides)
        return bench_record(**base)

    def test_schema_keys_lead_in_order(self):
        record = self._record(extra_metric=7)
        assert tuple(record)[: len(BENCH_SCHEMA)] == BENCH_SCHEMA
        assert record["extra_metric"] == 7

    def test_types_normalized(self):
        record = self._record(wall_s="1.5", n=10.0, rounds=True)
        assert record["wall_s"] == 1.5
        assert record["n"] == 10
        assert record["rounds"] == 1

    def test_format_is_valid_json(self):
        text = format_bench_json([self._record(), self._record(backend="sharded")])
        rows = json.loads(text)
        assert len(rows) == 2
        assert rows[1]["backend"] == "sharded"

    def test_missing_schema_key_rejected(self):
        record = self._record()
        del record["bytes_shipped"]
        with pytest.raises(ValueError, match="bytes_shipped"):
            format_bench_json([record])

    def test_write_round_trips(self, tmp_path):
        path = write_bench_json(
            tmp_path / "BENCH_x.json", [self._record()]
        )
        rows = json.loads(path.read_text())
        assert rows[0]["workload"] == "rmat16_lcc"
        assert rows[0]["bytes_shipped"] == 4_931_752

    def test_experiment_record_as_bench_record(self):
        from repro.bench.harness import ExperimentRecord

        record = ExperimentRecord(
            graph="mesh", algorithm="CL-DIAM", estimate=10.0,
            lower_bound=8.0, time_s=0.5, rounds=12, work=1000,
            messages=900, updates=100,
        )
        row = record.as_bench_record(n=64, m=112, backend="vector")
        assert row["workload"] == "mesh"
        assert row["backend"] == "vector"
        assert row["rounds"] == 12
        assert row["ratio"] == 1.25
        json.loads(format_bench_json([row]))  # schema-complete
