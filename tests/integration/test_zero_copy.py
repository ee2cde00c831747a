"""Acceptance tests for the zero-copy runtime path.

A *stored* R-MAT graph is memory-mapped through the GraphStore, and
the mapped graph must be indistinguishable from the parsed one — on
the vector engine, and end to end through the CLI on the sharded
backend, whose shard workers map their own shard files instead of
copying slices of the graph arrays.
"""

import numpy as np
import pytest

from repro.core.config import ClusterConfig
from repro.generators import rmat
from repro.graph.ops import largest_connected_component
from repro.mrimpl.diameter_mr import mr_approximate_diameter
from repro.runtime import GraphStore

CFG = ClusterConfig(seed=7, stage_threshold_factor=1.0, tau=16)


@pytest.fixture(scope="module")
def stored_rmat(tmp_path_factory):
    """An R-MAT LCC written to a GraphStore file and mmap-opened."""
    graph = largest_connected_component(rmat(9, edge_factor=8, seed=4))[0]
    store = GraphStore(cache_dir=tmp_path_factory.mktemp("store"))
    path = store.cache_dir / "rmat.rcsr"
    store.cache_dir.mkdir(parents=True, exist_ok=True)
    from repro.graph.serialize import write_store

    write_store(graph, path)
    mapped = store.get(path)
    assert mapped.is_mmap
    return graph, mapped


def test_mmap_graph_results_equal_in_memory_graph(stored_rmat):
    """The mapped graph is indistinguishable from the parsed one."""
    in_memory, mapped = stored_rmat
    a = mr_approximate_diameter(in_memory, config=CFG.with_(executor="vector"))
    b = mr_approximate_diameter(mapped, config=CFG.with_(executor="vector"))
    assert a.value == b.value
    assert np.array_equal(a.clustering.center, b.clustering.center)


def test_cli_sharded_on_store_matches_default(tmp_path, monkeypatch):
    """End to end through the CLI: stored graph, sharded == default path."""
    from repro.cli import main
    from repro.graph.serialize import write_store

    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "cache"))
    import repro.runtime.store as store_mod

    monkeypatch.setattr(store_mod, "_DEFAULT", None)

    graph = largest_connected_component(rmat(8, edge_factor=4, seed=3))[0]
    path = tmp_path / "g.rcsr"
    write_store(graph, path)

    import io
    from contextlib import redirect_stdout

    def run_cli(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(argv) == 0
        return buf.getvalue()

    base = run_cli(["diameter", str(path), "--tau", "8", "--seed", "1"])
    sharded = run_cli(
        ["diameter", str(path), "--tau", "8", "--seed", "1",
         "--executor", "sharded", "--shards", "2"]
    )
    est_base = base.split("estimate     : ")[1].splitlines()[0]
    est_sharded = sharded.split("estimate     : ")[1].splitlines()[0]
    assert est_base == est_sharded
    assert "executor     : sharded" in sharded
