"""Binary serialization for graphs and clusterings.

Two binary graph containers coexist:

* the legacy **npz dump** (:func:`save_graph` / :func:`load_graph`) —
  compressed, self-describing, always loads full copies of the arrays;
* the **GraphStore format** (:func:`write_store` / :func:`read_store_header`
  / :func:`open_store`) — an uncompressed, versioned container whose raw
  int64/float64 sections are 64-byte aligned so
  :meth:`~repro.graph.csr.CSRGraph.open_mmap` can memory-map them
  read-only.  Repeated CLI/benchmark invocations and every shard
  worker then share the same page-cache bytes: opening a stored graph is
  O(1) regardless of size, and nothing is pickled or copied.

GraphStore on-disk layout (version 2, little-endian)::

    offset  size          field
    ------  ------------  ---------------------------------------------
    0       8             magic ``b"REPROCSR"``
    8       4             format version (uint32, currently 2)
    12      4             flags (uint32; bit 0 = reverse section present,
                          bit 1 = trailing digest block present)
    16      8             num_nodes n (int64)
    24      8             num_arcs 2m (int64)
    32      8             indptr section offset (int64)
    40      8             indices section offset (int64)
    48      8             weights section offset (int64)
    56      8             rsrc section offset (int64, 0 when absent)
    ...                   sections, each 64-byte aligned:
                          indptr  (n+1) x int64
                          indices (2m)  x int64
                          weights (2m)  x float64
                          rsrc    (2m)  x int64   [optional]
    ...                   digest block (64-byte aligned, flag bit 1)::

                              0   8    magic ``b"RCSRDIG1"``
                              8   4    entry count (uint32)
                              12  4    reserved (0)
                              16  40*k entries: name (8s, NUL-padded)
                                       + raw sha256 (32s); entry 0 is
                                       ``header`` (digest of the 64
                                       header bytes), then one entry
                                       per section in file order.

The digest block sits at a *deterministic* offset — ``_align64`` of the
end of the last section — because all 64 header bytes are spoken for;
flag bit 1 is the only pointer to it.  Version-1 stores (no block) stay
fully readable.  ``REPRO_STORE_VERIFY`` picks how much of the block an
open pays for: ``header`` (default) re-hashes only the 64 header bytes
and bounds-checks the block, which is O(1) yet catches torn headers and
any tail truncation; ``full`` streams every section.

The optional **reverse-CSR section** (``rsrc``, flag bit 0) stores the
source row of every arc slot.  Stored graphs are symmetric with sorted
rows, so the reverse CSR shares ``indptr``/``indices``/``weights`` with
the forward one — reading row ``t`` target-major lists exactly ``t``'s
in-arcs with ascending sources — and the arc→row map is the only
structure the pull-mode growing step (:mod:`repro.mr.emit`) needs to
gather by.  The section is written by ``write_store(...,
reverse=True)`` or appended lazily by
:meth:`repro.runtime.store.GraphStore.ensure_reverse`; readers that
predate it ignore the flag and the trailing section (the field was
reserved-zero before).

Clusterings keep the npz form (:func:`save_clustering`), so a
decomposition computed once (expensive at scale) can be re-analyzed
without recomputing.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import CorruptArtifact, GraphFormatError
from repro.graph.csr import CSRGraph
from repro.integrity import file_sha256, preflight_free_space, verify_level

__all__ = [
    "save_graph",
    "load_graph",
    "save_clustering",
    "load_clustering",
    "write_store",
    "ensure_reverse_section",
    "read_store_header",
    "open_store",
    "verify_store",
    "is_store",
    "StoreHeader",
    "STORE_SUFFIX",
    "STORE_VERSION",
    "FLAG_REVERSE",
    "FLAG_DIGESTS",
]

PathLike = Union[str, Path]

_GRAPH_MAGIC = "repro-csr-v1"
_CLUSTERING_MAGIC = "repro-clustering-v1"

#: Canonical file suffix of the GraphStore container.
STORE_SUFFIX = ".rcsr"
#: Current GraphStore format version (2 = trailing digest block).
STORE_VERSION = 2
#: Versions :func:`read_store_header` accepts.
_SUPPORTED_VERSIONS = (1, 2)

_STORE_MAGIC = b"REPROCSR"
_HEADER_SIZE = 64
_HEADER_FMT = "<8sII6q"  # magic, version, flags, n, arcs, 4 section offsets

#: Header flag bit: the reverse-CSR (``rsrc``) section is present.
FLAG_REVERSE = 0x1
#: Header flag bit: the trailing per-section digest block is present.
FLAG_DIGESTS = 0x2

_DIGEST_MAGIC = b"RCSRDIG1"
_DIGEST_HEADER_FMT = "<8sII"  # magic, entry count, reserved
_DIGEST_ENTRY_FMT = "<8s32s"  # section name, raw sha256
_DIGEST_HEADER_SIZE = struct.calcsize(_DIGEST_HEADER_FMT)
_DIGEST_ENTRY_SIZE = struct.calcsize(_DIGEST_ENTRY_FMT)
#: Digest-block entry name for the 64 header bytes.
_HEADER_ENTRY = "header"


def _align64(offset: int) -> int:
    return (offset + 63) & ~63


def _store_fault(kind: str, path: Path):
    """Consult the fault plan for a scheduled store-write fault.

    ``kind`` is ``"pre"`` (before any byte lands: may raise a scheduled
    ``enospc``/``ioerror``) or ``"post"`` (after publish: returns True
    when a scheduled ``corrupt`` should flip a payload byte).  Imported
    lazily — the fault plane lives in :mod:`repro.mr.faults` and is a
    no-op unless ``REPRO_FAULT_PLAN`` is armed.
    """
    from repro.mr import faults

    plan = faults.get_fault_plan()
    if plan is None:
        return False
    ordinal = faults.store_write_ordinal(advance=(kind == "pre"))
    if kind == "pre":
        import errno

        action = plan.io_fault("store", ordinal)
        if action == "enospc":
            raise OSError(errno.ENOSPC, f"fault plan: enospc writing {path}")
        if action == "ioerror":
            raise OSError(errno.EIO, f"fault plan: ioerror writing {path}")
        return False
    return plan.corrupt_fault("store", ordinal)


@dataclass(frozen=True)
class StoreHeader:
    """Decoded GraphStore header — everything except the arrays.

    ``repro info`` prints these fields for ``.rcsr`` files without
    touching the data sections, and :meth:`CSRGraph.open_mmap` uses the
    offsets to build its zero-copy views.
    """

    path: Path
    version: int
    num_nodes: int
    num_arcs: int
    indptr_offset: int
    indices_offset: int
    weights_offset: int
    file_size: int
    flags: int = 0
    rsrc_offset: int = 0

    @property
    def num_edges(self) -> int:
        """Undirected edge count (half the stored arcs)."""
        return self.num_arcs // 2

    @property
    def has_reverse(self) -> bool:
        """Whether the reverse-CSR (``rsrc``) section is present."""
        return bool(self.flags & FLAG_REVERSE) and self.rsrc_offset > 0

    @property
    def has_digests(self) -> bool:
        """Whether the trailing digest block is present (flag bit 1)."""
        return bool(self.flags & FLAG_DIGESTS)

    @property
    def data_bytes(self) -> int:
        """Bytes occupied by the array sections (without padding)."""
        base = 8 * (self.num_nodes + 1) + 16 * self.num_arcs
        if self.has_reverse:
            base += 8 * self.num_arcs
        return base

    def sections(self) -> List[Tuple[str, int, int]]:
        """``(name, offset, nbytes)`` of every section in file order."""
        out = [
            ("indptr", self.indptr_offset, 8 * (self.num_nodes + 1)),
            ("indices", self.indices_offset, 8 * self.num_arcs),
            ("weights", self.weights_offset, 8 * self.num_arcs),
        ]
        if self.has_reverse:
            out.append(("rsrc", self.rsrc_offset, 8 * self.num_arcs))
        return out

    @property
    def digests_offset(self) -> int:
        """Deterministic offset of the digest block (0 when absent)."""
        if not self.has_digests:
            return 0
        name, offset, nbytes = self.sections()[-1]
        return _align64(offset + nbytes)

    @property
    def digests_size(self) -> int:
        """Byte size of the digest block (0 when absent)."""
        if not self.has_digests:
            return 0
        return _digest_block_size(len(self.sections()))


def _digest_block_size(nsections: int) -> int:
    return _DIGEST_HEADER_SIZE + _DIGEST_ENTRY_SIZE * (nsections + 1)


def _pack_digest_block(entries: List[Tuple[str, bytes]]) -> bytes:
    parts = [struct.pack(_DIGEST_HEADER_FMT, _DIGEST_MAGIC, len(entries), 0)]
    for name, raw in entries:
        parts.append(struct.pack(_DIGEST_ENTRY_FMT, name.encode("ascii"), raw))
    return b"".join(parts)


def read_store_digests(path: PathLike, header: StoreHeader) -> Dict[str, str]:
    """Decode the digest block into ``{entry name: hex sha256}``.

    Raises :class:`~repro.errors.CorruptArtifact` when the block itself
    is damaged (bad magic, wrong entry count, truncation).
    """
    expected = len(header.sections()) + 1
    with open(path, "rb") as fh:
        fh.seek(header.digests_offset)
        raw = fh.read(header.digests_size)
    if len(raw) < header.digests_size:
        raise CorruptArtifact(
            path, detail="digest block truncated"
        )
    magic, count, _ = struct.unpack_from(_DIGEST_HEADER_FMT, raw)
    if magic != _DIGEST_MAGIC or count != expected:
        raise CorruptArtifact(
            path,
            detail=f"digest block damaged (magic={magic!r}, entries={count})",
        )
    digests: Dict[str, str] = {}
    for i in range(count):
        name, sha = struct.unpack_from(
            _DIGEST_ENTRY_FMT, raw, _DIGEST_HEADER_SIZE + i * _DIGEST_ENTRY_SIZE
        )
        digests[name.rstrip(b"\x00").decode("ascii", "replace")] = sha.hex()
    return digests


def is_store(path: PathLike) -> bool:
    """Whether ``path`` is a GraphStore file (by magic, not extension)."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(_STORE_MAGIC)) == _STORE_MAGIC
    except OSError:
        return False


def write_store(
    graph: CSRGraph,
    path: PathLike,
    *,
    reverse: bool = False,
    digests: bool = True,
) -> Path:
    """Write ``graph`` as a GraphStore file and return its path.

    The write is atomic (temp file + ``os.replace``): a concurrent
    :class:`~repro.runtime.store.GraphStore` reader either sees the old
    file or the complete new one, never a torn header.  Free space is
    preflighted so an ENOSPC surfaces before any byte lands, and the
    temp file is always unlinked on failure.

    ``reverse=True`` additionally writes the reverse-CSR ``rsrc``
    section (the source row of every arc slot) so pull-mode growing
    steps can memory-map their gather index instead of rebuilding it
    per process.

    ``digests=True`` (the default) writes a version-2 store with the
    trailing sha256 digest block; ``digests=False`` writes the legacy
    version-1 layout byte for byte — useful for compatibility fixtures.
    """
    path = Path(path)
    n = graph.num_nodes
    arcs = graph.num_arcs
    indptr_off = _align64(_HEADER_SIZE)
    indices_off = _align64(indptr_off + 8 * (n + 1))
    weights_off = _align64(indices_off + 8 * arcs)
    rsrc_off = _align64(weights_off + 8 * arcs) if reverse else 0
    flags = FLAG_REVERSE if reverse else 0
    if digests:
        flags |= FLAG_DIGESTS
    header = struct.pack(
        _HEADER_FMT,
        _STORE_MAGIC,
        STORE_VERSION if digests else 1,
        flags,
        n,
        arcs,
        indptr_off,
        indices_off,
        weights_off,
        rsrc_off,
    ).ljust(_HEADER_SIZE, b"\x00")

    sections = [
        ("indptr", indptr_off, graph.indptr),
        ("indices", indices_off, graph.indices),
        ("weights", weights_off, graph.weights),
    ]
    if reverse:
        rsrc = graph.rsrc if graph.rsrc is not None else graph.arc_sources()
        sections.append(("rsrc", rsrc_off, rsrc))

    end = sections[-1][1] + np.ascontiguousarray(sections[-1][2]).nbytes
    total = _align64(end) + _digest_block_size(len(sections)) if digests else end
    preflight_free_space(path.parent, total, label=f"write_store({path.name})")
    _store_fault("pre", path)

    import tempfile

    # A private temp file (mkstemp, not a PID-derived name) keeps two
    # concurrent writers of the same path from truncating each other;
    # the final os.replace publishes whichever finished last, whole.
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".tmp", dir=str(path.parent))
    try:
        # mkstemp creates 0600 files; publish with umask-honouring
        # permissions like every other graph writer.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        entries = [(_HEADER_ENTRY, hashlib.sha256(header).digest())]
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            for name, offset, array in sections:
                payload = np.ascontiguousarray(array).tobytes()
                fh.write(b"\x00" * (offset - fh.tell()))
                fh.write(payload)
                entries.append((name, hashlib.sha256(payload).digest()))
            if digests:
                fh.write(b"\x00" * (_align64(fh.tell()) - fh.tell()))
                fh.write(_pack_digest_block(entries))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # pragma: no cover - only on a failed write
            os.unlink(tmp)
    if _store_fault("post", path):
        _flip_store_byte(path)
    return path


def _flip_store_byte(path: Path) -> None:
    """Flip one payload byte in place (scheduled ``corrupt:`` faults only)."""
    header = read_store_header(path)
    name, offset, nbytes = header.sections()[-1]
    target = offset + nbytes // 2
    with open(path, "r+b") as fh:
        fh.seek(target)
        byte = fh.read(1)
        fh.seek(target)
        fh.write(bytes([byte[0] ^ 0xFF]))


def ensure_reverse_section(path: PathLike) -> StoreHeader:
    """Make sure ``path`` carries the reverse-CSR section; return its header.

    A store that already has the section is untouched (O(1) header
    read); otherwise the file is atomically rewritten with the ``rsrc``
    section appended.  This is the lazy builder
    :meth:`repro.runtime.store.GraphStore.ensure_reverse` delegates to.
    """
    header = read_store_header(path)
    if header.has_reverse:
        return header
    graph = open_store(path)
    write_store(graph, path, reverse=True)
    return read_store_header(path)


def read_store_header(path: PathLike) -> StoreHeader:
    """Read and validate a GraphStore header (64 bytes, no array I/O).

    Raises
    ------
    GraphFormatError
        On a wrong magic or an unsupported format version.
    CorruptArtifact
        When the file *is* a GraphStore (magic matched, version known)
        but its structure is inconsistent: negative lengths, sections or
        the digest block outside the file.  This is the signal the
        quarantine layer reacts to — a wrong-magic file is merely "not
        ours" and is left alone.
    """
    path = Path(path)
    file_size = path.stat().st_size
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER_SIZE)
    if len(raw) < _HEADER_SIZE or raw[: len(_STORE_MAGIC)] != _STORE_MAGIC:
        raise GraphFormatError(f"{path}: not a GraphStore file")
    (_, version, flags, n, arcs, indptr_off, indices_off, weights_off,
     rsrc_off) = struct.unpack(_HEADER_FMT, raw[: struct.calcsize(_HEADER_FMT)])
    if version not in _SUPPORTED_VERSIONS:
        raise GraphFormatError(
            f"{path}: GraphStore version {version} not supported "
            f"(expected one of {_SUPPORTED_VERSIONS})"
        )
    if n < 0 or arcs < 0:
        raise CorruptArtifact(path, detail="negative section length in header")
    sections = [
        (indptr_off, 8 * (n + 1)),
        (indices_off, 8 * arcs),
        (weights_off, 8 * arcs),
    ]
    if flags & FLAG_REVERSE:
        sections.append((rsrc_off, 8 * arcs))
    for offset, length in sections:
        if offset < _HEADER_SIZE or offset + length > file_size:
            raise CorruptArtifact(
                path,
                detail=(
                    f"section [{offset}, {offset + length}) outside "
                    f"file of {file_size} bytes"
                ),
            )
    header = StoreHeader(
        path=path,
        version=version,
        num_nodes=n,
        num_arcs=arcs,
        indptr_offset=indptr_off,
        indices_offset=indices_off,
        weights_offset=weights_off,
        file_size=file_size,
        flags=flags,
        rsrc_offset=rsrc_off if flags & FLAG_REVERSE else 0,
    )
    if header.has_digests:
        # O(1) truncation guard: the digest block is the last thing in
        # the file, so "block fits" catches any shortened tail without
        # reading a single section byte.
        if header.digests_offset + header.digests_size > file_size:
            raise CorruptArtifact(
                path,
                detail=(
                    f"digest block [{header.digests_offset}, "
                    f"{header.digests_offset + header.digests_size}) outside "
                    f"file of {file_size} bytes"
                ),
            )
    return header


def verify_store(
    path: PathLike,
    *,
    level: Optional[str] = None,
    header: Optional[StoreHeader] = None,
) -> Dict[str, object]:
    """Check a store's integrity at the requested verify tier.

    ``level=None`` resolves ``REPRO_STORE_VERIFY`` (default ``header``).
    Returns a small report dict (``level``, ``version``, ``digests``,
    ``checked`` section names) and raises
    :class:`~repro.errors.CorruptArtifact` on the first mismatch.

    * ``off``: no checks beyond the structural ones a header read does.
    * ``header``: O(1) — digest block well-formed + the 64 header bytes
      re-hash to the recorded value.  Catches torn headers and tail
      truncation; payload bit flips pass (by design — this tier must
      cost nothing on the open path).
    * ``full``: streams every section and compares sha256 digests.
    """
    level = verify_level(level)
    path = Path(path)
    if header is None:
        header = read_store_header(path)
    report: Dict[str, object] = {
        "path": str(path),
        "level": level,
        "version": header.version,
        "digests": header.has_digests,
        "checked": [],
    }
    if level == "off" or not header.has_digests:
        return report
    digests = read_store_digests(path, header)
    with open(path, "rb") as fh:
        raw_header = fh.read(_HEADER_SIZE)
    if hashlib.sha256(raw_header).hexdigest() != digests.get(_HEADER_ENTRY):
        raise CorruptArtifact(path, detail="header digest mismatch")
    report["checked"] = [_HEADER_ENTRY]
    if level != "full":
        return report
    for name, offset, nbytes in header.sections():
        recorded = digests.get(name)
        if recorded is None:
            raise CorruptArtifact(path, detail=f"no digest for section {name!r}")
        actual = file_sha256(path, offset=offset, length=nbytes)
        if actual != recorded:
            raise CorruptArtifact(
                path,
                detail=(
                    f"section {name!r} digest mismatch "
                    f"(recorded {recorded[:12]}…, got {actual[:12]}…)"
                ),
            )
        report["checked"].append(name)
    return report


def open_store(path: PathLike, *, validate: bool = False) -> CSRGraph:
    """Memory-map a GraphStore file as a read-only :class:`CSRGraph`.

    Alias of :meth:`CSRGraph.open_mmap`; see there for semantics.
    """
    return CSRGraph.open_mmap(path, validate=validate)


def save_graph(graph: CSRGraph, path: PathLike) -> None:
    """Write a graph as a compressed ``.npz`` CSR dump."""
    np.savez_compressed(
        path,
        magic=np.array(_GRAPH_MAGIC),
        indptr=graph.indptr,
        indices=graph.indices,
        weights=graph.weights,
    )


def load_graph(path: PathLike) -> CSRGraph:
    """Load a graph written by :func:`save_graph`.

    Raises
    ------
    GraphFormatError
        If the file is not a v1 CSR dump.
    """
    with np.load(path, allow_pickle=False) as data:
        if "magic" not in data or str(data["magic"]) != _GRAPH_MAGIC:
            raise GraphFormatError(f"{path}: not a {_GRAPH_MAGIC} file")
        return CSRGraph(data["indptr"], data["indices"], data["weights"])


def save_clustering(clustering, path: PathLike) -> None:
    """Write a :class:`~repro.core.cluster.Clustering` as ``.npz``.

    Persists the assignment arrays and scalar metadata; the per-stage
    diagnostics and counters are execution artifacts and are not stored.
    """
    np.savez_compressed(
        path,
        magic=np.array(_CLUSTERING_MAGIC),
        center=clustering.center,
        dist_to_center=clustering.dist_to_center,
        centers=clustering.centers,
        scalars=np.array(
            [clustering.radius, clustering.delta_end, float(clustering.tau),
             float(clustering.singleton_count)]
        ),
    )


def load_clustering(path: PathLike):
    """Load a clustering written by :func:`save_clustering`."""
    from repro.core.cluster import Clustering
    from repro.mr.metrics import Counters

    with np.load(path, allow_pickle=False) as data:
        if "magic" not in data or str(data["magic"]) != _CLUSTERING_MAGIC:
            raise GraphFormatError(f"{path}: not a {_CLUSTERING_MAGIC} file")
        radius, delta_end, tau, singletons = data["scalars"]
        clustering = Clustering(
            center=data["center"],
            dist_to_center=data["dist_to_center"],
            centers=data["centers"],
            radius=float(radius),
            delta_end=float(delta_end),
            tau=int(tau),
            counters=Counters(),
            singleton_count=int(singletons),
        )
    clustering.validate()
    return clustering
