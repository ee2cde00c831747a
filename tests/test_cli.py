"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.generators import mesh
from repro.graph.io import write_dimacs, write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.gr"
    write_dimacs(mesh(8, seed=1), path)
    return str(path)


class TestInfo:
    def test_basic(self, graph_file, capsys):
        assert main(["info", graph_file]) == 0
        out = capsys.readouterr().out
        assert "nodes        : 64" in out
        assert "components   : 1" in out

    def test_edge_list_input(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(mesh(4, seed=2), path)
        assert main(["info", str(path)]) == 0
        assert "nodes        : 16" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["info", "/nonexistent/g.gr"]) == 2
        assert "error" in capsys.readouterr().err


class TestGenerate:
    @pytest.mark.parametrize(
        "family,size",
        [("mesh", 6), ("rmat", 6), ("road", 8), ("gnm", 20), ("powerlaw", 30)],
    )
    def test_families(self, tmp_path, capsys, family, size):
        out_path = tmp_path / "out.gr"
        rc = main(
            ["generate", family, "--size", str(size), "-o", str(out_path), "--seed", "3"]
        )
        assert rc == 0
        assert out_path.exists()
        assert main(["info", str(out_path)]) == 0

    def test_roads_family(self, tmp_path):
        out_path = tmp_path / "r.gr"
        assert main(["generate", "roads", "--size", "2", "-o", str(out_path)]) == 0

    def test_gnm_edges_flag(self, tmp_path, capsys):
        out_path = tmp_path / "g.gr"
        main(["generate", "gnm", "--size", "15", "--edges", "30", "-o", str(out_path)])
        out = capsys.readouterr().out
        # 30 random edges plus a 14-edge connecting path, minus overlaps.
        edges = int(out.split("/")[1].split()[0])
        assert 30 <= edges <= 44


class TestDiameter:
    def test_basic(self, graph_file, capsys):
        assert main(["diameter", graph_file, "--tau", "3"]) == 0
        out = capsys.readouterr().out
        assert "estimate" in out and "rounds" in out

    def test_exact_flag(self, graph_file, capsys):
        assert main(["diameter", graph_file, "--tau", "3", "--exact"]) == 0
        out = capsys.readouterr().out
        assert "true ratio" in out

    def test_cluster2_flag(self, graph_file, capsys):
        assert main(["diameter", graph_file, "--tau", "3", "--cluster2"]) == 0

    def test_estimate_dominates_lower_bound(self, graph_file, capsys):
        main(["diameter", graph_file, "--tau", "3"])
        out = capsys.readouterr().out
        est = float(out.split("estimate     : ")[1].splitlines()[0])
        lb = float(out.split("lower bound  : ")[1].splitlines()[0])
        assert est >= lb - 1e-9

    @pytest.mark.parametrize("executor", ["vector", "sharded"])
    def test_executor_backends_agree(self, graph_file, capsys, executor):
        main(["diameter", graph_file, "--tau", "3"])
        baseline = capsys.readouterr().out
        args = ["diameter", graph_file, "--tau", "3", "--executor", executor]
        if executor == "sharded":
            args += ["--shards", "2"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert f"executor     : {executor}" in out
        est = float(out.split("estimate     : ")[1].splitlines()[0])
        ref = float(baseline.split("estimate     : ")[1].splitlines()[0])
        assert est == pytest.approx(ref)

    @pytest.mark.parametrize("executor", ["gpu", "parallel", "mmap", "serial"])
    def test_bad_executor_rejected(self, graph_file, executor):
        with pytest.raises(SystemExit):
            main(["diameter", graph_file, "--executor", executor])


class TestSssp:
    def test_basic(self, graph_file, capsys):
        assert main(["sssp", graph_file, "--source", "0"]) == 0
        out = capsys.readouterr().out
        assert "reached       : 64 / 64" in out

    def test_numeric_delta(self, graph_file, capsys):
        assert main(["sssp", graph_file, "--source", "0", "--delta", "0.25"]) == 0
        assert "delta         : 0.25" in capsys.readouterr().out

    def test_library_error_is_clean(self, graph_file, capsys):
        rc = main(["sssp", graph_file, "--source", "9999"])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestCompare:
    def test_basic(self, graph_file, capsys):
        assert main(["compare", graph_file, "--tau", "3"]) == 0
        out = capsys.readouterr().out
        assert "CL-DIAM" in out and "delta-stepping" in out


class TestEccentricity:
    def test_basic(self, graph_file, capsys):
        assert main(["eccentricity", graph_file, "--tau", "3", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "diameter bracket" in out
        assert out.count("ecc in") == 3

    def test_bracket_ordered(self, graph_file, capsys):
        main(["eccentricity", graph_file, "--tau", "3"])
        out = capsys.readouterr().out
        bracket = out.split("[")[1].split("]")[0]
        lo, hi = (float(x) for x in bracket.split(","))
        assert lo <= hi


class TestComponents:
    def test_connected(self, graph_file, capsys):
        assert main(["components", graph_file, "--tau", "2"]) == 0
        assert "components   : 1" in capsys.readouterr().out

    def test_disconnected(self, tmp_path, capsys):
        from repro.graph.builder import from_edge_list

        path = tmp_path / "d.txt"
        write_edge_list(from_edge_list([(0, 1, 1.0), (2, 3, 2.0)], 4), path)
        assert main(["components", str(path), "--tau", "1"]) == 0
        out = capsys.readouterr().out
        assert "components   : 2" in out


class TestPartition:
    @pytest.fixture
    def store_file(self, graph_file, tmp_path):
        out = tmp_path / "g.rcsr"
        assert main(["convert", graph_file, str(out)]) == 0
        return str(out)

    def test_writes_shards_and_reports_cut(self, store_file, capsys, tmp_path):
        assert main(["partition", store_file, "--shards", "3", "--report"]) == 0
        out = capsys.readouterr().out
        assert "3-way lp partition" in out
        assert "cut_arcs" in out
        assert (tmp_path / "g.rcsr.shards" / "3-lp" / "part-2.rcsr").exists()
        assert (tmp_path / "g.rcsr.shards" / "3-lp" / "manifest.json").exists()

    def test_info_summary_and_no_partitioner_option(self, store_file,
                                                    capsys, tmp_path):
        assert main(["partition", store_file, "--shards", "2"]) == 0
        capsys.readouterr()
        assert main(["info", store_file]) == 0
        out = capsys.readouterr().out
        assert "partitions   : 2-way lp (cut" in out
        # lp is the only partitioner: the option that chose one is gone.
        with pytest.raises(SystemExit) as exc:
            main(["partition", store_file, "--partitioner", "range"])
        assert exc.value.code == 2
        assert not (tmp_path / "g.rcsr.shards" / "2").exists()

    def test_sharded_executor_reuses_partition(self, store_file, capsys):
        assert main(["partition", store_file, "--shards", "2"]) == 0
        capsys.readouterr()
        rc = main(
            ["diameter", store_file, "--tau", "3", "--seed", "1",
             "--executor", "sharded", "--shards", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "executor     : sharded (2 workers)" in out
        assert "estimate" in out

    def test_sharded_matches_core_estimate(self, store_file, capsys):
        assert main(["diameter", store_file, "--tau", "3", "--seed", "1"]) == 0
        core = capsys.readouterr().out
        main(
            ["diameter", store_file, "--tau", "3", "--seed", "1",
             "--executor", "sharded", "--shards", "2"]
        )
        sharded = capsys.readouterr().out
        pick = lambda out: [  # noqa: E731 - tiny local helper
            line for line in out.splitlines() if line.startswith("estimate")
        ]
        assert pick(core) == pick(sharded)

    def test_shards_require_sharded_executor(self, store_file, capsys):
        rc = main(
            ["diameter", store_file, "--executor", "vector", "--shards", "2"]
        )
        assert rc == 2
        assert "--shards requires" in capsys.readouterr().err

    def test_invalid_shard_count(self, store_file, capsys):
        assert main(["partition", store_file, "--shards", "0"]) == 2
        assert "--shards must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "variable, value",
        [
            ("REPRO_SHARD_RESIDENT_MB", "abc"),
            ("REPRO_SHARD_RESIDENT_MB", "0"),
            ("REPRO_SHARD_RESIDENT_MB", "-1"),
            ("REPRO_SHARD_RESIDENT_MB", "nan"),
            ("REPRO_KERNEL_IMPL", "natvie"),
            ("REPRO_EMIT_THREADS", "abc"),
            ("REPRO_EMIT_THREADS", "0"),
            ("REPRO_EMIT_THREADS", "-2"),
            ("REPRO_NATIVE_BUILD_TIMEOUT_S", "abc"),
            ("REPRO_NATIVE_BUILD_TIMEOUT_S", "0"),
            ("REPRO_NATIVE_BUILD_TIMEOUT_S", "-1"),
            ("REPRO_STORE_MAX_BYTES", "abc"),
        ],
    )
    def test_malformed_sharded_env_is_clean(
        self, store_file, capsys, monkeypatch, variable, value
    ):
        from repro.runtime import store

        monkeypatch.setenv(variable, value)
        # A fresh CLI process builds its process-wide graph store (which
        # reads REPRO_STORE_MAX_BYTES) on first use.
        monkeypatch.setattr(store, "_DEFAULT", None)
        rc = main(
            ["run", "diameter", store_file, "--executor", "sharded",
             "--shards", "2"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{variable}={value!r}" in err


class TestConvert:
    def test_text_to_store(self, graph_file, tmp_path, capsys):
        out = tmp_path / "g.rcsr"
        assert main(["convert", graph_file, str(out)]) == 0
        assert out.exists()
        assert "converted" in capsys.readouterr().out

    def test_store_round_trips_through_cli(self, graph_file, tmp_path, capsys):
        store = tmp_path / "g.rcsr"
        back = tmp_path / "back.gr"
        main(["convert", graph_file, str(store)])
        main(["convert", str(store), str(back)])
        capsys.readouterr()
        main(["info", str(back)])
        assert "nodes        : 64" in capsys.readouterr().out

    @pytest.mark.parametrize("ext", ["gr", "metis", "txt", "npz"])
    def test_formats(self, graph_file, tmp_path, capsys, ext):
        out = tmp_path / f"g.{ext}"
        assert main(["convert", graph_file, str(out)]) == 0
        assert main(["info", str(out)]) == 0
        assert "nodes        : 64" in capsys.readouterr().out

    def test_missing_input(self, tmp_path):
        assert main(["convert", "/nonexistent.gr", str(tmp_path / "o.rcsr")]) == 2


class TestInfoStore:
    def test_header_metadata_without_arrays(self, graph_file, tmp_path, capsys):
        store = tmp_path / "g.rcsr"
        main(["convert", graph_file, str(store)])
        capsys.readouterr()
        assert main(["info", str(store)]) == 0
        out = capsys.readouterr().out
        from repro.graph.serialize import STORE_VERSION

        assert f"GraphStore v{STORE_VERSION}" in out
        assert "nodes        : 64" in out
        assert "sections     :" in out

    def test_algorithms_accept_store_files(self, graph_file, tmp_path, capsys):
        store = tmp_path / "g.rcsr"
        main(["convert", graph_file, str(store)])
        capsys.readouterr()
        assert main(["diameter", str(store), "--tau", "3"]) == 0
        out = capsys.readouterr().out
        assert "estimate" in out


class TestRunCommand:
    @pytest.mark.parametrize(
        "algorithm",
        ["diameter", "cluster", "cluster2", "sssp", "eccentricity",
         "components", "unweighted-diameter"],
    )
    def test_every_registered_algorithm(self, graph_file, capsys, algorithm):
        assert main(["run", algorithm, graph_file, "--tau", "3"]) == 0
        out = capsys.readouterr().out
        assert f"algorithm    : {algorithm}" in out
        assert "value        :" in out
        assert "elapsed      :" in out

    def test_run_matches_dedicated_command(self, graph_file, capsys):
        main(["diameter", graph_file, "--tau", "3"])
        dedicated = capsys.readouterr().out
        main(["run", "diameter", graph_file, "--tau", "3"])
        generic = capsys.readouterr().out
        est_a = dedicated.split("estimate     : ")[1].splitlines()[0]
        est_b = generic.split("value        : ")[1].splitlines()[0]
        assert est_a == est_b

    def test_run_with_executor(self, graph_file, capsys):
        args = ["run", "cluster", graph_file, "--tau", "3",
                "--executor", "sharded", "--workers", "2"]
        assert main(args) == 0
        assert "executor     : sharded (2 workers)" in capsys.readouterr().out

    def test_unknown_algorithm(self, graph_file, capsys):
        assert main(["run", "fft", graph_file]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_executor_rejected_for_core_only(self, graph_file, capsys):
        rc = main(["run", "sssp", graph_file, "--executor", "vector"])
        assert rc == 1
        assert "does not support" in capsys.readouterr().err

    def test_unsupported_option_rejected(self, graph_file, capsys):
        rc = main(["run", "cluster", graph_file, "--exact"])
        assert rc == 1
        assert "does not understand" in capsys.readouterr().err

    @pytest.mark.parametrize("executor", [None, "vector"])
    @pytest.mark.parametrize(
        "plan", ["explode:shard=1,round=4", "kill:shard=1,round=4"]
    )
    def test_malformed_fault_plan_is_clean(
        self, graph_file, capsys, monkeypatch, executor, plan
    ):
        from repro.mr.faults import FAULT_PLAN_ENV, reset_fault_plan

        monkeypatch.setenv(FAULT_PLAN_ENV, plan)
        reset_fault_plan()
        args = ["run", "diameter", graph_file, "--tau", "3"]
        if executor is not None:
            args += ["--executor", executor]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and FAULT_PLAN_ENV in err

    def test_components_report_counters(self, graph_file, capsys):
        assert main(["run", "components", graph_file, "--tau", "3"]) == 0
        out = capsys.readouterr().out
        rounds = int(out.split("rounds       : ")[1].splitlines()[0])
        assert rounds > 0


class TestAlgorithms:
    def test_listing(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for name in ("diameter", "cluster2", "sssp", "unweighted-diameter"):
            assert name in out


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])
