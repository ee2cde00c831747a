"""Partition planner + partitioned-store layout properties.

The owner-compute contract: shards cover ``[0, n)`` exactly, the
edge-cut report is consistent with the graph, shard files reassemble to
the original CSR, the manifest round-trips, a stale source store
invalidates its shards (directly and through the GraphStore cache), a
shard too large for the int32 sidecars is refused, and a layout left by
the retired contiguous-range planner is rewritten, not loaded.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ConfigurationError, GraphFormatError
from repro.generators import gnm_random_graph, mesh, path_graph, rmat
from repro.graph.csr import CSRGraph
from repro.graph.ops import largest_connected_component
from repro.graph.partition import (
    MANIFEST_NAME,
    MAX_SHARD_ROWS,
    PARTITION_VERSION,
    PartitionPlan,
    _manifest_digest,
    ensure_partitioned,
    load_partitioned,
    plan_partition,
    shards_dir_for,
    write_partitioned_store,
)
from repro.graph.serialize import open_store, write_store
from repro.integrity import file_sha256

SHARD_COUNTS = (1, 2, 3, 7, 64)


@pytest.fixture(scope="module")
def graphs():
    return {
        "mesh": mesh(8, seed=1),
        "gnm": gnm_random_graph(90, 260, seed=4, connect=True),
        "rmat": largest_connected_component(rmat(9, seed=2))[0],
        "path": path_graph(12, weights="unit"),
    }


class TestPlanPartition:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("name", ["mesh", "gnm", "rmat", "path"])
    def test_ranges_cover_node_space(self, graphs, name, shards):
        graph = graphs[name]
        plan = plan_partition(graph, shards)
        assert plan.num_shards == shards
        assert plan.starts[0] == 0
        assert plan.starts[-1] == graph.num_nodes
        assert np.all(np.diff(plan.starts) >= 0)
        # Every node owned exactly once; starts count each shard's nodes.
        owners = plan.owner_of(np.arange(graph.num_nodes))
        sizes = np.bincount(owners, minlength=shards)
        assert np.array_equal(sizes, np.diff(plan.starts))

    @pytest.mark.parametrize("shards", (2, 3, 7))
    def test_balanced_by_arcs(self, graphs, shards):
        graph = graphs["gnm"]
        plan = plan_partition(graph, shards)
        # lp trades up to 1.5x arc load for cut; the contiguous candidate
        # it may return instead is balanced up to one node's degree.
        bound = max(
            1.5 * graph.num_arcs / shards,
            graph.num_arcs / shards + int(graph.degrees.max()),
        )
        assert int(plan.shard_arcs.max()) <= bound

    @pytest.mark.parametrize("name", ["mesh", "gnm", "rmat"])
    def test_cut_report_matches_brute_force(self, graphs, name):
        graph = graphs[name]
        plan = plan_partition(graph, 3)
        assert int(plan.shard_arcs.sum()) == graph.num_arcs
        owner = plan.owner_of(np.arange(graph.num_nodes))
        cut_arcs = np.zeros(3, dtype=np.int64)
        boundary = [set(), set(), set()]
        for u in range(graph.num_nodes):
            nbrs, _ = graph.neighbors(u)
            for v in nbrs:
                if owner[u] != owner[v]:
                    cut_arcs[owner[u]] += 1
                    boundary[owner[u]].add(u)
        assert np.array_equal(plan.cut_arcs, cut_arcs)
        assert np.array_equal(
            plan.boundary_nodes,
            np.array([len(b) for b in boundary], dtype=np.int64),
        )
        assert plan.cut_fraction == pytest.approx(
            cut_arcs.sum() / graph.num_arcs
        )

    def test_single_shard_has_no_cut(self, graphs):
        plan = plan_partition(graphs["mesh"], 1)
        assert plan.total_cut_arcs == 0
        assert plan.cut_fraction == 0.0
        assert plan.boundary_nodes.sum() == 0

    def test_more_shards_than_nodes(self, graphs):
        graph = graphs["path"]
        plan = plan_partition(graph, 64)
        assert plan.starts[-1] == graph.num_nodes
        assert int(plan.shard_arcs.sum()) == graph.num_arcs

    def test_rejects_zero_shards(self, graphs):
        with pytest.raises(ValueError):
            plan_partition(graphs["mesh"], 0)


class TestPartitionedStore:
    @pytest.mark.parametrize("shards", (1, 2, 7))
    def test_shards_reassemble_to_original(self, graphs, tmp_path, shards):
        graph = graphs["gnm"]
        store = tmp_path / "g.rcsr"
        write_store(graph, store)
        partitioned = write_partitioned_store(graph, store, shards)
        plan = partitioned.plan
        seen = np.zeros(graph.num_nodes, dtype=bool)
        for k in range(shards):
            shard = partitioned.open_shard(k)
            rows = plan.shard_rows(k)
            assert shard.num_nodes == len(rows)
            # The sidecars map each owned node to its shard and local row.
            assert np.all(partitioned.assignment[rows] == k)
            assert np.array_equal(
                partitioned.localidx[rows], np.arange(len(rows))
            )
            for r, u in enumerate(rows):
                a, b = graph.indptr[u], graph.indptr[u + 1]
                lo, hi = shard.indptr[r], shard.indptr[r + 1]
                assert np.array_equal(shard.indices[lo:hi], graph.indices[a:b])
                assert np.array_equal(shard.weights[lo:hi], graph.weights[a:b])
            seen[rows] = True
        assert seen.all()

    def test_manifest_round_trips(self, graphs, tmp_path):
        graph = graphs["mesh"]
        store = tmp_path / "m.rcsr"
        write_store(graph, store)
        written = write_partitioned_store(graph, store, 3)
        loaded = load_partitioned(written.directory)
        assert np.array_equal(loaded.plan.assignment, written.plan.assignment)
        assert np.array_equal(loaded.plan.starts, written.plan.starts)
        assert np.array_equal(loaded.plan.shard_arcs, written.plan.shard_arcs)
        assert np.array_equal(loaded.plan.cut_arcs, written.plan.cut_arcs)
        assert np.array_equal(
            loaded.plan.boundary_nodes, written.plan.boundary_nodes
        )
        assert loaded.shard_paths == written.shard_paths
        assert loaded.source == store

    def test_ensure_reuses_fresh_partition(self, graphs, tmp_path):
        graph = graphs["mesh"]
        store = tmp_path / "m.rcsr"
        write_store(graph, store)
        first = ensure_partitioned(store, 2)
        manifest = (first.directory / MANIFEST_NAME).read_text()
        again = ensure_partitioned(store, 2)
        assert (again.directory / MANIFEST_NAME).read_text() == manifest

    def test_rewritten_store_invalidates_shards(self, graphs, tmp_path):
        store = tmp_path / "g.rcsr"
        write_store(graphs["mesh"], store)
        stale = ensure_partitioned(store, 2)
        assert stale.plan.num_nodes == graphs["mesh"].num_nodes
        # Rewrite the store with a different graph: the manifest's
        # (mtime, size) signature no longer matches.
        write_store(graphs["gnm"], store)
        fresh = ensure_partitioned(store, 2)
        assert fresh.plan.num_nodes == graphs["gnm"].num_nodes
        assert fresh.plan.num_arcs == graphs["gnm"].num_arcs

    def test_shard_counts_get_separate_directories(self, graphs, tmp_path):
        store = tmp_path / "m.rcsr"
        write_store(graphs["mesh"], store)
        two = ensure_partitioned(store, 2)
        seven = ensure_partitioned(store, 7)
        assert two.directory != seven.directory
        assert shards_dir_for(store, 2) == two.directory
        assert load_partitioned(two.directory).plan.num_shards == 2

    def test_load_rejects_missing_or_torn_manifest(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_partitioned(tmp_path)
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(GraphFormatError):
            load_partitioned(tmp_path)

    def test_load_rejects_missing_shard_file(self, graphs, tmp_path):
        store = tmp_path / "m.rcsr"
        write_store(graphs["mesh"], store)
        partitioned = ensure_partitioned(store, 2)
        partitioned.shard_paths[1].unlink()
        with pytest.raises(GraphFormatError):
            load_partitioned(partitioned.directory)
        # ensure_partitioned self-heals by rewriting the shards.
        healed = ensure_partitioned(store, 2)
        assert all(p.exists() for p in healed.shard_paths)


class TestGraphStorePartitionCache:
    def test_get_partitioned_from_text_source(self, tmp_path):
        from repro.graph.io import write_auto
        from repro.runtime.store import GraphStore

        graph = mesh(6, seed=2)
        source = tmp_path / "mesh.gr"
        write_auto(graph, source)
        store = GraphStore(cache_dir=tmp_path / "cache")
        partitioned = store.get_partitioned(source, 2)
        assert partitioned.plan.num_nodes == graph.num_nodes
        assert partitioned.directory.is_dir()
        assert str(partitioned.directory).startswith(str(tmp_path / "cache"))

    def test_stale_source_invalidates_partition(self, tmp_path):
        import time

        from repro.graph.io import write_auto
        from repro.runtime.store import GraphStore

        source = tmp_path / "g.gr"
        write_auto(mesh(6, seed=2), source)
        store = GraphStore(cache_dir=tmp_path / "cache")
        old = store.get_partitioned(source, 2)
        assert old.directory.exists()
        # Edit the source: a new conversion (and partition) must appear,
        # and the stale conversion's shards must be cleaned up.
        time.sleep(0.01)  # ensure a distinct mtime_ns signature
        write_auto(mesh(7, seed=3), source)
        new = store.get_partitioned(source, 2)
        assert new.directory != old.directory
        assert new.plan.num_nodes == mesh(7, seed=3).num_nodes
        assert not old.directory.exists()

    def test_partition_used_by_sharded_run(self, tmp_path):
        """End to end: runtime run() on a stored path reuses the cached
        partition written next to the converted store."""
        from repro.graph.io import write_auto
        from repro.runtime import run
        from repro.runtime.store import GraphStore

        graph = mesh(6, seed=2)
        source = tmp_path / "mesh.gr"
        write_auto(graph, source)
        store = GraphStore(cache_dir=tmp_path / "cache")
        core = run("cluster", source, tau=3, seed=1, store=store)
        sharded = run(
            "cluster", source, tau=3, seed=1, store=store,
            executor="sharded", shards=2,
        )
        assert np.array_equal(core.raw.center, sharded.raw.center)
        shards_dir = shards_dir_for(store.store_path(source), 2)
        assert shards_dir.name == "2-lp"
        assert (shards_dir / MANIFEST_NAME).exists()

    def test_get_partitioned_accepts_only_lp(self, tmp_path):
        from repro.graph.io import write_auto
        from repro.runtime.store import GraphStore

        source = tmp_path / "mesh.gr"
        write_auto(mesh(5, seed=2), source)
        store = GraphStore(cache_dir=tmp_path / "cache")
        assert store.get_partitioned(source, 2, partitioner="lp").plan
        with pytest.raises(ValueError, match="range"):
            store.get_partitioned(source, 2, partitioner="range")


class TestSidecarLimit:
    def test_oversized_shard_is_refused_before_writing(self, tmp_path):
        """A shard of 2**31 rows overflows the int32 ``localidx``: the
        write must fail with a ConfigurationError and leave no files.
        The stub plan only claims the size, so nothing that large is
        allocated."""
        graph = path_graph(4, weights="unit")
        store = tmp_path / "g.rcsr"
        write_store(graph, store)
        n = 2**31
        assert n > MAX_SHARD_ROWS
        plan = PartitionPlan(
            num_nodes=n,
            num_arcs=0,
            starts=np.array([0, 0, n], dtype=np.int64),
            shard_arcs=np.zeros(2, dtype=np.int64),
            cut_arcs=np.zeros(2, dtype=np.int64),
            boundary_nodes=np.zeros(2, dtype=np.int64),
            assignment=np.zeros(0, dtype=np.int32),
        )
        directory = tmp_path / "shards"
        with pytest.raises(ConfigurationError, match="shard 1 of 2"):
            write_partitioned_store(
                graph, store, 2, plan=plan, directory=directory
            )
        assert not directory.exists()


def write_range_layout(graph, store, directory, num_shards=2):
    """The layout the retired contiguous-range planner wrote: contiguous
    arc-balanced row slices, no sidecars, a v3 manifest naming
    ``range`` with valid digests."""
    directory.mkdir(parents=True)
    targets = graph.num_arcs * np.arange(1, num_shards) // num_shards
    starts = np.concatenate(
        ([0], np.searchsorted(graph.indptr, targets), [graph.num_nodes])
    ).astype(np.int64)
    owner = np.repeat(np.arange(num_shards), np.diff(starts))
    cut = owner[graph.arc_sources()] != owner[graph.indices]
    names, digests = [], []
    for k in range(num_shards):
        lo, hi = starts[k], starts[k + 1]
        a, b = graph.indptr[lo], graph.indptr[hi]
        path = directory / f"part-{k}.rcsr"
        write_store(
            CSRGraph(
                graph.indptr[lo : hi + 1] - a,
                graph.indices[a:b],
                graph.weights[a:b],
                validate=False,
            ),
            path,
        )
        names.append(path.name)
        digests.append(file_sha256(path))
    stat = store.stat()
    manifest = {
        "version": PARTITION_VERSION,
        "source": str(store),
        "source_mtime_ns": stat.st_mtime_ns,
        "source_size": stat.st_size,
        "num_nodes": graph.num_nodes,
        "num_arcs": graph.num_arcs,
        "num_shards": num_shards,
        "partitioner": "range",
        "starts": starts.tolist(),
        "shard_arcs": np.diff(graph.indptr[starts]).tolist(),
        "cut_arcs": np.bincount(
            owner[graph.arc_sources()][cut], minlength=num_shards
        ).tolist(),
        "boundary_nodes": [0] * num_shards,
        "shards": names,
        "shard_sha256": digests,
        "sidecar_sha256": {},
    }
    manifest["manifest_sha256"] = _manifest_digest(manifest)
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))


class TestLeftoverRangeLayout:
    @pytest.fixture
    def stored(self, graphs, tmp_path):
        store = tmp_path / "g.rcsr"
        write_store(graphs["mesh"], store)
        directory = tmp_path / "g.rcsr.shards" / "2"
        write_range_layout(graphs["mesh"], store, directory)
        return graphs["mesh"], store, directory

    def test_load_rejects_range_manifest(self, stored):
        _, _, directory = stored
        with pytest.raises(GraphFormatError, match="'range'"):
            load_partitioned(directory)

    def test_ensure_rewrites_range_layout_in_place(self, stored):
        graph, store, directory = stored
        rewritten = ensure_partitioned(
            store, 2, graph=graph, directory=directory
        )
        assert rewritten.directory == directory
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        assert manifest["partitioner"] == "lp"
        loaded = load_partitioned(directory)
        assert np.array_equal(loaded.assignment, rewritten.plan.assignment)

    def test_info_and_deep_verify_still_handle_it(self, stored, capsys):
        """A leftover not yet cleaned up (the lp layout written directly,
        not through ``ensure_partitioned``): ``repro info`` lists it next
        to the live layout; ``repro verify --deep`` re-hashes its shard
        files."""
        graph, store, directory = stored
        lp = write_partitioned_store(graph, store, 2)
        assert main(["info", str(store)]) == 0
        out = capsys.readouterr().out
        assert "2-way range (cut" in out and "2-way lp (cut" in out
        assert main(["verify", str(store), "--deep"]) == 0
        out = capsys.readouterr().out
        for layout in (directory, lp.directory):
            assert f"ok    partition  {layout}  (verified manifest.json" in out
        assert "part-1.rcsr" in out and "0 failure(s)" in out

    @pytest.mark.parametrize("fresh", [False, True])
    def test_ensure_removes_leftover_after_commit(self, stored, capsys, fresh):
        """Once the lp manifest is committed — written now, or already
        fresh on disk — ``ensure_partitioned`` deletes the range
        leftover, and only it."""
        graph, store, directory = stored
        if fresh:
            write_partitioned_store(graph, store, 2)
            assert directory.is_dir()
        lp = ensure_partitioned(store, 2, graph=graph)
        assert not directory.exists()
        assert (lp.directory / MANIFEST_NAME).is_file()
        assert store.is_file()
        assert main(["info", str(store)]) == 0
        out = capsys.readouterr().out
        assert "2-way lp (cut" in out and "range" not in out

    def test_foreign_or_linked_leftovers_stay(self, graphs, tmp_path):
        """A ``<K>/`` directory whose manifest does not name ``range``,
        and a symlinked one, are not the retired layout: kept."""
        graph = graphs["mesh"]
        store = tmp_path / "g.rcsr"
        write_store(graph, store)
        foreign = tmp_path / "g.rcsr.shards" / "2"
        foreign.mkdir(parents=True)
        (foreign / MANIFEST_NAME).write_text('{"partitioner": "other"}')
        elsewhere = tmp_path / "elsewhere"
        write_range_layout(graph, store, elsewhere, num_shards=3)
        linked = tmp_path / "g.rcsr.shards" / "3"
        linked.symlink_to(elsewhere, target_is_directory=True)
        ensure_partitioned(store, 2, graph=graph)
        ensure_partitioned(store, 3, graph=graph)
        assert (foreign / MANIFEST_NAME).is_file()
        assert linked.is_symlink() and (elsewhere / MANIFEST_NAME).is_file()
