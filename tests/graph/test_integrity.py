"""Data-plane integrity: digests, verify tiers, and corruption detection.

The contract under test: under ``REPRO_STORE_VERIFY=full`` *every*
injected corruption — a byte flip or truncation in any section, sidecar,
or manifest — is detected as a structured :class:`CorruptArtifact`,
never a wrong result; under the default ``header`` tier the open path
never crashes unstructured (payload flips may pass — the O(1) promise —
but anything raised is a :class:`ReproError`).
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import CorruptArtifact, GraphFormatError, ReproError
from repro.generators import gnm_random_graph, mesh
from repro.graph.csr import CSRGraph
from repro.graph.partition import (
    MANIFEST_NAME,
    ensure_partitioned,
    load_partitioned,
    verify_partition,
    write_partitioned_store,
)
from repro.graph.serialize import (
    STORE_VERSION,
    open_store,
    read_store_digests,
    read_store_header,
    verify_store,
    write_store,
)
from repro.integrity import VERIFY_ENV, verify_level


#: A store written before the ``rsrc`` section was retired: flag bit 0,
#: the section after ``weights``, and its entry in the v2 digest block.
LEGACY_STORE = Path(__file__).parent / "data" / "mesh6_seed5_rsrc_v2.rcsr"
FRESH_SECTIONS = ["header", "indptr", "indices", "weights"]


@pytest.fixture()
def stored(tmp_path, small_mesh):
    path = tmp_path / "g.rcsr"
    write_store(small_mesh, path)
    return small_mesh, path


@pytest.fixture()
def legacy(tmp_path):
    """A private copy of the legacy store (tests flip its bytes)."""
    path = tmp_path / "legacy.rcsr"
    shutil.copyfile(LEGACY_STORE, path)
    return mesh(6, seed=5), path


def flip_byte(path, offset):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes((byte[0] ^ 0xFF,)))


# --------------------------------------------------------------------- #
# digest block round-trip
# --------------------------------------------------------------------- #


class TestDigestBlock:
    def test_v2_default_carries_digests(self, stored):
        graph, path = stored
        header = read_store_header(path)
        assert header.version == STORE_VERSION == 2
        assert header.has_digests
        digests = read_store_digests(path, header)
        assert set(digests) == set(FRESH_SECTIONS)
        assert open_store(path) == graph

    def test_legacy_store_digests_cover_rsrc(self, legacy):
        graph, path = legacy
        header = read_store_header(path)
        assert header.has_digests and header.flags & 0x1
        digests = read_store_digests(path, header)
        assert set(digests) == set(FRESH_SECTIONS) | {"rsrc"}
        assert open_store(path) == graph

    def test_digests_false_writes_legacy_v1(self, tmp_path, small_mesh):
        path = tmp_path / "v1.rcsr"
        write_store(small_mesh, path, digests=False)
        header = read_store_header(path)
        assert header.version == 1
        assert not header.has_digests
        assert open_store(path) == small_mesh
        # A v1 store verifies vacuously at every level (no digest block).
        report = verify_store(path, level="full")
        assert report["checked"] == []

    def test_full_verify_checks_every_section(self, stored):
        _, path = stored
        report = verify_store(path, level="full")
        assert report["checked"] == FRESH_SECTIONS

    def test_full_verify_checks_legacy_rsrc(self, legacy):
        _, path = legacy
        report = verify_store(path, level="full")
        assert report["checked"] == FRESH_SECTIONS + ["rsrc"]

    def test_verify_level_env(self, monkeypatch):
        monkeypatch.delenv(VERIFY_ENV, raising=False)
        assert verify_level() == "header"
        monkeypatch.setenv(VERIFY_ENV, "full")
        assert verify_level() == "full"
        monkeypatch.setenv(VERIFY_ENV, "off")
        assert verify_level() == "off"
        monkeypatch.setenv(VERIFY_ENV, "bogus")
        with pytest.raises(ReproError):
            verify_level()


# --------------------------------------------------------------------- #
# deterministic corruption matrix: one flip per section
# --------------------------------------------------------------------- #


class TestSectionCorruption:
    @pytest.mark.parametrize(
        "kind, section",
        [("fresh", "indptr"), ("fresh", "indices"), ("fresh", "weights"),
         ("legacy", "rsrc")],
    )
    def test_full_detects_any_section_flip(self, request, kind, section):
        _, path = request.getfixturevalue(
            "stored" if kind == "fresh" else "legacy"
        )
        header = read_store_header(path)
        offsets = dict(
            (name, (off, size)) for name, off, size in header.sections()
        )
        off, size = offsets[section]
        flip_byte(path, off + size // 2)
        with pytest.raises(CorruptArtifact, match=section):
            verify_store(path, level="full")
        # The header tier passes by design: payload digests are the
        # full tier's job (that asymmetry is the O(1) open promise).
        verify_store(path, level="header")

    def test_header_flip_caught_at_header_level(self, stored):
        _, path = stored
        flip_byte(path, 20)  # inside the 64-byte header's n field
        with pytest.raises(GraphFormatError):
            # Either the structural check or the header digest fires;
            # both are structured errors.
            verify_store(path, level="header")

    def test_digest_block_flip_caught(self, stored):
        _, path = stored
        size = path.stat().st_size
        flip_byte(path, size - 8)  # inside the last digest entry
        with pytest.raises(CorruptArtifact):
            verify_store(path, level="full")

    def test_tail_truncation_caught_at_header_read(self, stored):
        _, path = stored
        raw = path.read_bytes()
        path.write_bytes(raw[:-24])
        with pytest.raises(GraphFormatError):
            read_store_header(path)


@pytest.fixture()
def full_verify(monkeypatch):
    monkeypatch.setenv(VERIFY_ENV, "full")


class TestOpenVerify:
    def test_open_mmap_full_rejects_flip(self, stored, full_verify):
        _, path = stored
        header = read_store_header(path)
        name, off, size = header.sections()[1]
        flip_byte(path, off + size // 2)
        with pytest.raises(CorruptArtifact):
            CSRGraph.open_mmap(path)

    def test_open_mmap_off_skips_checks(self, stored, monkeypatch):
        graph, path = stored
        monkeypatch.setenv(VERIFY_ENV, "off")
        header = read_store_header(path)
        name, off, size = header.sections()[2]  # weights
        flip_byte(path, off + size // 2)
        mapped = CSRGraph.open_mmap(path)  # structurally fine
        assert mapped.num_nodes == graph.num_nodes


# --------------------------------------------------------------------- #
# hypothesis: flips and truncations anywhere in the file
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One pristine store file the property tests copy per example."""
    root = tmp_path_factory.mktemp("integrity-corpus")
    graph = gnm_random_graph(60, 180, seed=7, connect=True)
    path = root / "corpus.rcsr"
    write_store(graph, path)
    return graph, path, path.read_bytes()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_flip_detected_under_full(corpus, tmp_path, data):
    """Property: a byte flip anywhere is detected by full verify — as a
    structured error, never a silently wrong graph."""
    graph, _, raw = corpus
    offset = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    mutated = bytearray(raw)
    mutated[offset] ^= data.draw(st.integers(min_value=1, max_value=255))
    victim = tmp_path / f"flip-{offset}.rcsr"
    victim.write_bytes(bytes(mutated))
    try:
        verify_store(victim, level="full")
    except ReproError:
        return  # detected: structured error
    # Verify passed — the flip must not have changed any loaded bytes
    # the digests cover (i.e. it was inside alignment padding).
    loaded = open_store(victim)
    assert loaded == graph


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_truncation_never_crashes_header_tier(corpus, tmp_path, data):
    """Property: any truncation surfaces as ReproError under the cheap
    header tier — never an unstructured crash, never a wrong result."""
    graph, _, raw = corpus
    keep = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    victim = tmp_path / f"trunc-{keep}.rcsr"
    victim.write_bytes(raw[:keep])
    try:
        header = read_store_header(victim)
        verify_store(victim, level="header", header=header)
        loaded = open_store(victim)
    except ReproError:
        return  # structured detection
    assert loaded == graph  # pragma: no cover - truncation always detected


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_flip_is_structured_under_header(corpus, tmp_path, data):
    """Property: the header tier may miss payload flips (O(1) promise)
    but never raises anything outside the ReproError hierarchy."""
    graph, _, raw = corpus
    offset = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    mutated = bytearray(raw)
    mutated[offset] ^= 0xFF
    victim = tmp_path / f"hflip-{offset}.rcsr"
    victim.write_bytes(bytes(mutated))
    try:
        header = read_store_header(victim)
        verify_store(victim, level="header", header=header)
        open_store(victim)
    except ReproError:
        pass  # structured is the contract
    except Exception as exc:  # pragma: no cover
        pytest.fail(f"unstructured {type(exc).__name__}: {exc}")


# --------------------------------------------------------------------- #
# partition layout integrity
# --------------------------------------------------------------------- #


@pytest.fixture()
def layout(tmp_path):
    graph = mesh(10, seed=4)
    store = tmp_path / "part.rcsr"
    write_store(graph, store)
    directory = tmp_path / "part.rcsr.shards" / "3-lp"
    write_partitioned_store(graph, store, 3, directory=directory)
    return graph, store, directory


class TestPartitionIntegrity:
    def test_manifest_carries_digests(self, layout):
        _, _, directory = layout
        import json

        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        assert len(manifest["shard_sha256"]) == 3
        assert manifest["sidecar_sha256"]
        assert manifest["manifest_sha256"]
        report = verify_partition(directory, level="full")
        assert MANIFEST_NAME in report["checked"]
        assert len(report["checked"]) >= 1 + 3  # manifest + shards

    def test_shard_flip_detected_full(self, layout):
        _, _, directory = layout
        shard = directory / "part-1.rcsr"
        flip_byte(shard, shard.stat().st_size // 2)
        with pytest.raises(CorruptArtifact):
            verify_partition(directory, level="full")

    def test_sidecar_flip_detected_full(self, layout):
        _, _, directory = layout
        sidecar = directory / "assignment.i32"
        flip_byte(sidecar, sidecar.stat().st_size // 2)
        with pytest.raises(CorruptArtifact, match="assignment"):
            verify_partition(directory, level="full")

    def test_manifest_tamper_detected_header(self, layout):
        _, _, directory = layout
        manifest_path = directory / MANIFEST_NAME
        text = manifest_path.read_text().replace(
            '"num_shards": 3', '"num_shards": 4'
        )
        manifest_path.write_text(text)
        with pytest.raises(CorruptArtifact, match="manifest"):
            verify_partition(directory, level="header")
        with pytest.raises(GraphFormatError):
            load_partitioned(directory)

    def test_ensure_partitioned_quarantines_and_rebuilds(
        self, layout, monkeypatch
    ):
        monkeypatch.setenv(VERIFY_ENV, "full")
        graph, store, directory = layout
        sidecar = directory / "localidx.i32"
        flip_byte(sidecar, sidecar.stat().st_size // 2)
        rebuilt = ensure_partitioned(
            store, 3, graph=graph, directory=directory
        )
        assert rebuilt.plan.num_shards == 3
        # The damaged layout was moved aside, and the fresh one verifies.
        quarantine = store.parent / "part.rcsr.quarantine"
        assert quarantine.is_dir() and any(quarantine.iterdir())
        verify_partition(directory, level="full")
