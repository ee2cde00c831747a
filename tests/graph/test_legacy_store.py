"""Stores written with the retired ``rsrc`` section keep working.

``data/mesh6_seed5_rsrc_v2.rcsr`` is ``mesh(6, seed=5)`` as written by
the last writer that emitted the section: flag bit 0 set, the ``rsrc``
section after ``weights``, and a v2 digest block with an ``rsrc``
entry.  Readers parse the flag only to bounds-check the section and to
place the digest block; no code maps the section's contents.  The
digest and section-flip cases for the section live with the other
integrity checks in ``test_integrity.py``.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.generators import mesh
from repro.graph.csr import CSRGraph
from repro.graph.partition import ensure_partitioned
from repro.graph.serialize import open_store, read_store_header, write_store
from repro.runtime import run
from repro.runtime.store import GraphStore
from repro.runtime.verify import verify_tree

LEGACY_STORE = Path(__file__).parent / "data" / "mesh6_seed5_rsrc_v2.rcsr"


@pytest.fixture()
def graph():
    return mesh(6, seed=5)


@pytest.fixture()
def stores(tmp_path, graph):
    """``(legacy, fresh)`` store paths in private directories, so their
    shard caches (``<store>.shards/``) do not collide."""
    legacy = tmp_path / "legacy" / "g.rcsr"
    fresh = tmp_path / "fresh" / "g.rcsr"
    legacy.parent.mkdir()
    fresh.parent.mkdir()
    shutil.copyfile(LEGACY_STORE, legacy)
    write_store(graph, fresh)
    return legacy, fresh


def test_fixture_is_legacy_format():
    header = read_store_header(LEGACY_STORE)
    assert header.version == 2 and header.has_digests
    assert header.flags & 0x1
    assert [name for name, _, _ in header.sections()] == [
        "indptr", "indices", "weights", "rsrc",
    ]


def test_open_equals_generated_and_maps_no_reverse_array(graph):
    opened = open_store(LEGACY_STORE)
    assert opened.is_mmap
    assert opened == graph
    assert "_rsrc" not in CSRGraph.__slots__
    assert not hasattr(opened, "rsrc")


def test_fresh_store_has_no_rsrc(stores):
    _, fresh = stores
    header = read_store_header(fresh)
    assert not header.flags & 0x1
    assert header.rsrc_offset == 0
    assert header.file_size < read_store_header(LEGACY_STORE).file_size


def test_cli_info_prints_sections(capsys):
    assert main(["info", str(LEGACY_STORE)]) == 0
    out = capsys.readouterr().out
    header = read_store_header(LEGACY_STORE)
    assert "nodes        : 36" in out
    assert f"rsrc@{header.rsrc_offset}" in out
    assert "reverse csr" not in out


def test_verify_tree_deep_passes(stores):
    legacy, _ = stores
    reports = verify_tree(legacy, deep=True)
    assert reports and all(r["ok"] for r in reports)


def test_partition_matches_fresh_store(stores):
    legacy, fresh = stores
    old = ensure_partitioned(legacy, 2)
    new = ensure_partitioned(fresh, 2)
    for k in range(2):
        assert old.open_shard(k) == new.open_shard(k)
        assert read_store_header(old.shard_paths[k]).rsrc_offset == 0
    np.testing.assert_array_equal(old.assignment, new.assignment)
    np.testing.assert_array_equal(old.localidx, new.localidx)


def test_vector_diameter_matches_fresh_store(stores, tmp_path):
    store = GraphStore(cache_dir=tmp_path / "cache")
    results = [
        run("diameter", str(path), executor="vector", seed=3, tau=8,
            store=store)
        for path in stores
    ]
    old, new = results
    assert old.value == new.value
    assert old.counters.snapshot() == new.counters.snapshot()
