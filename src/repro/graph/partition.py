"""Owner-compute graph partitioning on disk: range and locality-aware.

The paper's MR algorithms assume each machine holds a fixed subgraph and
that a round exchanges only the messages crossing machine boundaries.
This module provides the storage half of that contract:

* :func:`plan_partition` — assign every node to one of ``num_shards``
  shards and report the edge cut (per-shard internal/cut arcs and
  boundary-node counts).  Two partitioners:

  - ``"range"`` — contiguous node ranges balanced by arc count; shard
    ownership of a node id is one
    :func:`~repro.mr.partitioner.range_partition_array` call against the
    plan's interior boundaries.
  - ``"lp"`` — the locality-aware multilevel label-propagation pipeline
    (:func:`~repro.mr.partitioner.lp_assignment`); ownership is an
    explicit node→shard ``assignment`` array.  Node ids are *never*
    relabeled — a shard simply owns a non-contiguous row set — which is
    what keeps sharded results bit-identical across partitioners.
* :func:`write_partitioned_store` / :func:`ensure_partitioned` — the
  partitioned on-disk layout next to a GraphStore file::

      graph.rcsr                     the (unsharded) store
      graph.rcsr.shards/<K>/         range partition (K shards)
      graph.rcsr.shards/<K>-lp/      locality-aware partition
          manifest.json              plan + source signature (commit point)
          part-0.rcsr … part-K-1.rcsr
          assignment.i32             lp only: node → owning shard
          localidx.i32               lp only: node → dense local row

  Each ``part-k.rcsr`` is a GraphStore container (written through the
  same atomic :func:`~repro.graph.serialize.write_store` path) holding
  the CSR *rows* of shard ``k``'s node set: a local ``indptr`` of
  length ``num_rows + 1`` whose ``indices`` keep **global** node ids.
  Under ``lp`` the row set is non-contiguous; the two int32 sidecars
  (memory-mapped, so forked workers share their pages) give the
  node→shard and node→local-row maps workers route by.
  A shard-owning worker memory-maps exactly its rows — O(shard) pages,
  never the whole graph — and routes emitted messages by comparing the
  global neighbour ids against the plan's boundaries.

  ``manifest.json`` records the source store's (mtime, size) signature;
  :func:`ensure_partitioned` re-partitions whenever the signature (or
  requested shard count) no longer matches, so editing a store
  invalidates its shards the same way editing a text graph invalidates
  its cached conversion.  The manifest is written last, atomically: a
  reader either sees a complete partition or none.

Shard files reuse :class:`~repro.graph.csr.CSRGraph` purely as an array
container (``validate=False`` — global neighbour ids are out of range
for the local row count, by design); they are not meaningful graphs on
their own.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.errors import CorruptArtifact, GraphFormatError
from repro.graph.csr import CSRGraph
from repro.graph.serialize import STORE_SUFFIX, open_store, write_store
from repro.integrity import (
    bytes_sha256,
    file_sha256,
    preflight_free_space,
    quarantine_artifact,
    sweep_orphan_tmps,
    verify_level,
)
from repro.mr.partitioner import lp_assignment, range_partition_array

__all__ = [
    "PartitionPlan",
    "PartitionedStore",
    "plan_partition",
    "write_partitioned_store",
    "ensure_partitioned",
    "load_partitioned",
    "verify_partition",
    "shards_dir_for",
    "MANIFEST_NAME",
    "SHARDS_DIR_SUFFIX",
    "PARTITION_VERSION",
    "PARTITIONERS",
    "DEFAULT_PARTITIONER",
    "ASSIGNMENT_NAME",
    "LOCALIDX_NAME",
]

PathLike = Union[str, Path]

#: Manifest file name inside a shard directory.
MANIFEST_NAME = "manifest.json"
#: Directory suffix of a store's partition root (``<store>.shards/``);
#: shared with the GraphStore cache's cleanup/budget accounting.
SHARDS_DIR_SUFFIX = ".shards"
#: Partitioned-layout format version (bump on incompatible changes).
#: v2 added the partitioner field and the lp sidecar files; v3 added
#: the integrity digests (per-shard and per-sidecar sha256 plus the
#: manifest self-digest).  A v2 layout is simply considered stale and
#: rewritten on the next :func:`ensure_partitioned`.
PARTITION_VERSION = 3
#: Supported partitioner names.
PARTITIONERS = ("range", "lp")
#: Partitioner used when none is requested (kept as the library default
#: so existing range-based callers and caches stay valid).
DEFAULT_PARTITIONER = "range"
#: Sidecar file names for lp partitions (int32, one entry per node).
ASSIGNMENT_NAME = "assignment.i32"
LOCALIDX_NAME = "localidx.i32"


@dataclass(frozen=True)
class PartitionPlan:
    """A node partition plus its edge-cut report.

    Attributes
    ----------
    num_nodes, num_arcs:
        Shape of the partitioned graph.
    starts:
        int64 array of length ``num_shards + 1``.  Under ``range`` mode
        shard ``k`` owns the contiguous node range
        ``[starts[k], starts[k+1])``; under ``lp`` mode the entries are
        the prefix sums of per-shard node counts (``np.diff(starts)`` is
        the shard-size vector in both modes, but lp row sets are not
        contiguous).  ``starts[0] == 0`` and ``starts[-1] == num_nodes``
        always hold.
    shard_arcs:
        Arcs whose *source* lies in each shard (these are the rows the
        shard stores; they sum to ``num_arcs``).
    cut_arcs:
        Of those, the arcs whose target lies in a different shard.  An
        undirected cut edge contributes one cut arc to each endpoint's
        shard.
    boundary_nodes:
        Nodes per shard with at least one cut arc — the set whose
        updates can ever need to cross a shard boundary.
    mode:
        ``"range"`` or ``"lp"``.
    assignment:
        ``lp`` only: int32 node→shard map (``None`` for range plans).
    """

    num_nodes: int
    num_arcs: int
    starts: np.ndarray
    shard_arcs: np.ndarray
    cut_arcs: np.ndarray
    boundary_nodes: np.ndarray
    mode: str = "range"
    assignment: Optional[np.ndarray] = None

    @property
    def num_shards(self) -> int:
        return len(self.starts) - 1

    @property
    def splitters(self) -> np.ndarray:
        """Interior boundaries, in :func:`range_partition_array` form."""
        if self.mode != "range":
            raise ValueError("splitters are defined for range plans only")
        return self.starts[1:-1]

    @property
    def shard_nodes(self) -> np.ndarray:
        """Nodes owned per shard (valid in both modes)."""
        return np.diff(self.starts)

    @property
    def total_cut_arcs(self) -> int:
        return int(self.cut_arcs.sum())

    @property
    def cut_fraction(self) -> float:
        """Fraction of arcs crossing a shard boundary (0 for one shard)."""
        return self.total_cut_arcs / self.num_arcs if self.num_arcs else 0.0

    def owner_of(self, keys) -> np.ndarray:
        """Owning shard of each node id (vectorized)."""
        if self.mode == "range":
            return range_partition_array(keys, self.starts[1:-1])
        return self.assignment[np.asarray(keys)].astype(np.int64)

    def shard_range(self, shard: int) -> tuple:
        """``(lo, hi)`` node range owned by ``shard`` (range mode only)."""
        if self.mode != "range":
            raise ValueError(
                "shard_range is undefined for lp plans; use shard_rows"
            )
        return int(self.starts[shard]), int(self.starts[shard + 1])

    def shard_rows(self, shard: int) -> np.ndarray:
        """Ascending global node ids owned by ``shard`` (either mode)."""
        if self.mode == "range":
            lo, hi = self.shard_range(shard)
            return np.arange(lo, hi, dtype=np.int64)
        return np.flatnonzero(self.assignment == shard).astype(np.int64)


def _cut_report(graph: CSRGraph, row_shard: np.ndarray, num_shards: int):
    """Per-shard (shard_arcs, cut_arcs, boundary_nodes) for an assignment."""
    shard_arcs = np.zeros(num_shards, dtype=np.int64)
    cut_arcs = np.zeros(num_shards, dtype=np.int64)
    boundary = np.zeros(num_shards, dtype=np.int64)
    if graph.num_arcs:
        arc_src_shard = np.repeat(row_shard, graph.degrees)
        cut = arc_src_shard != row_shard[graph.indices]
        shard_arcs = np.bincount(arc_src_shard, minlength=num_shards)
        cut_arcs = np.bincount(arc_src_shard[cut], minlength=num_shards)
        cut_sources = np.unique(graph.arc_sources()[cut])
        boundary = np.bincount(row_shard[cut_sources], minlength=num_shards)
    return (
        shard_arcs.astype(np.int64),
        cut_arcs.astype(np.int64),
        boundary.astype(np.int64),
    )


def plan_partition(
    graph: CSRGraph,
    num_shards: int,
    *,
    partitioner: str = DEFAULT_PARTITIONER,
    slack: float = 0.5,
    seed: int = 0,
) -> PartitionPlan:
    """Assign ``graph``'s nodes to ``num_shards`` shards.

    ``partitioner="range"`` chooses contiguous boundaries on the
    ``indptr`` prefix sums so every shard owns roughly
    ``num_arcs / num_shards`` arcs (up to one node's degree); shards may
    be empty when ``num_shards > num_nodes``.  ``partitioner="lp"`` runs
    the locality-aware multilevel label-propagation pipeline
    (:func:`~repro.mr.partitioner.lp_assignment`), trading up to
    ``1 + slack`` arc-load imbalance for a lower edge cut; it never cuts
    more than the range plan.  Either way the shards cover
    ``[0, num_nodes)`` exactly.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if partitioner not in PARTITIONERS:
        raise ValueError(
            f"unknown partitioner {partitioner!r} (expected one of "
            f"{', '.join(PARTITIONERS)})"
        )
    n = graph.num_nodes
    arcs = graph.num_arcs
    if partitioner == "lp":
        assignment = lp_assignment(graph, num_shards, slack=slack, seed=seed)
        row_shard = assignment.astype(np.int64)
        counts = np.bincount(row_shard, minlength=num_shards)
        starts = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        shard_arcs, cut_arcs, boundary = _cut_report(
            graph, row_shard, num_shards
        )
        return PartitionPlan(
            num_nodes=n,
            num_arcs=arcs,
            starts=starts,
            shard_arcs=shard_arcs,
            cut_arcs=cut_arcs,
            boundary_nodes=boundary,
            mode="lp",
            assignment=assignment,
        )

    targets = (arcs * np.arange(1, num_shards, dtype=np.int64)) // num_shards
    cuts = np.searchsorted(graph.indptr, targets, side="left")
    starts = np.concatenate(
        ([0], np.clip(cuts, 0, n), [n])
    ).astype(np.int64)
    starts = np.maximum.accumulate(starts)

    row_shard = np.repeat(
        np.arange(num_shards, dtype=np.int64), np.diff(starts)
    )
    shard_arcs, cut_arcs, boundary = _cut_report(graph, row_shard, num_shards)
    return PartitionPlan(
        num_nodes=n,
        num_arcs=arcs,
        starts=starts,
        shard_arcs=shard_arcs,
        cut_arcs=cut_arcs,
        boundary_nodes=boundary,
    )


@dataclass(frozen=True)
class PartitionedStore:
    """A partition on disk: the plan plus where its shard files live.

    For lp partitions, ``assignment`` and ``localidx`` are the two
    memory-mapped int32 sidecars (node→shard and node→local-row); they
    are ``None`` for range partitions, where both maps are arithmetic.
    """

    directory: Path
    plan: PartitionPlan
    shard_paths: List[Path]
    source: Path
    assignment: Optional[np.ndarray] = None
    localidx: Optional[np.ndarray] = None

    def open_shard(self, shard: int) -> CSRGraph:
        """Memory-map one shard's rows (local indptr, global indices)."""
        return open_store(self.shard_paths[shard])


def shards_dir_for(
    store_path: PathLike,
    num_shards: int,
    partitioner: str = DEFAULT_PARTITIONER,
) -> Path:
    """Directory holding ``store_path``'s ``num_shards``-way partition."""
    store_path = Path(store_path)
    leaf = str(num_shards) if partitioner == "range" else (
        f"{num_shards}-{partitioner}"
    )
    return (
        store_path.parent
        / (store_path.name + SHARDS_DIR_SUFFIX)
        / leaf
    )


def _source_signature(store_path: Path) -> tuple:
    stat = store_path.stat()
    return stat.st_mtime_ns, stat.st_size


def _shard_graph(graph: CSRGraph, lo: int, hi: int) -> CSRGraph:
    """Shard ``[lo, hi)`` as an array container (global neighbour ids)."""
    a, b = int(graph.indptr[lo]), int(graph.indptr[hi])
    return CSRGraph(
        graph.indptr[lo : hi + 1] - graph.indptr[lo],
        graph.indices[a:b],
        graph.weights[a:b],
        validate=False,
    )


def _shard_graph_rows(graph: CSRGraph, rows: np.ndarray) -> CSRGraph:
    """Gather an arbitrary (ascending) row set as an array container."""
    rows = np.asarray(rows, dtype=np.int64)
    degs = (graph.indptr[rows + 1] - graph.indptr[rows]).astype(np.int64)
    local_indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(degs, out=local_indptr[1:])
    total = int(local_indptr[-1])
    # Arc positions of each local arc: row start + within-row offset.
    pos = np.repeat(
        graph.indptr[rows].astype(np.int64) - local_indptr[:-1], degs
    ) + np.arange(total, dtype=np.int64)
    return CSRGraph(
        local_indptr,
        graph.indices[pos],
        graph.weights[pos],
        validate=False,
    )


def _localidx_of(assignment: np.ndarray, num_shards: int) -> np.ndarray:
    """Node → dense local row within its owning shard (rows ascending)."""
    n = len(assignment)
    order = np.argsort(assignment, kind="stable")
    counts = np.bincount(assignment, minlength=num_shards)
    group_start = np.concatenate(([0], np.cumsum(counts)))[:-1]
    localidx = np.empty(n, dtype=np.int32)
    localidx[order] = (
        np.arange(n, dtype=np.int64) - np.repeat(group_start, counts)
    ).astype(np.int32)
    return localidx


def write_partitioned_store(
    graph: CSRGraph,
    store_path: PathLike,
    num_shards: int,
    *,
    plan: Optional[PartitionPlan] = None,
    directory: Optional[PathLike] = None,
    partitioner: str = DEFAULT_PARTITIONER,
) -> PartitionedStore:
    """Write ``graph``'s ``num_shards``-way partition next to ``store_path``.

    ``store_path`` is the *source* store the manifest records (it must
    exist — its signature is what invalidates the shards); ``directory``
    overrides the default ``<store>.shards/<K>[-lp]/`` location.  Shard
    files go through the atomic :func:`write_store` path, lp sidecars
    follow, and the manifest is written last (temp file +
    ``os.replace``) as the commit point.
    """
    store_path = Path(store_path)
    if plan is None:
        plan = plan_partition(graph, num_shards, partitioner=partitioner)
    elif plan.mode != partitioner:
        raise ValueError("plan mode does not match requested partitioner")
    if plan.num_shards != num_shards:
        raise ValueError("plan shard count does not match num_shards")
    directory = (
        Path(directory)
        if directory is not None
        else shards_dir_for(store_path, num_shards, partitioner)
    )
    directory.mkdir(parents=True, exist_ok=True)
    sweep_orphan_tmps(directory)

    shard_paths: List[Path] = []
    shard_digests: List[str] = []
    for k in range(num_shards):
        path = directory / f"part-{k}{STORE_SUFFIX}"
        if plan.mode == "range":
            lo, hi = plan.shard_range(k)
            shard = _shard_graph(graph, lo, hi)
        else:
            shard = _shard_graph_rows(graph, plan.shard_rows(k))
        write_store(shard, path)
        # Whole-file digest over the bytes just written (page cache is
        # warm): lets a deep verify catch a shard file swapped for a
        # different-but-self-consistent store, which the shard's own
        # digest block cannot.
        shard_digests.append(file_sha256(path))
        shard_paths.append(path)

    assignment = localidx = None
    sidecar_digests = {}
    if plan.mode == "lp":
        assignment = np.ascontiguousarray(plan.assignment, dtype=np.int32)
        localidx = _localidx_of(assignment, num_shards)
        for name, arr in (
            (ASSIGNMENT_NAME, assignment),
            (LOCALIDX_NAME, localidx),
        ):
            preflight_free_space(
                directory, arr.nbytes, label=f"sidecar {name}"
            )
            tmp = directory / (name + ".tmp")
            try:
                arr.tofile(tmp)
                os.replace(tmp, directory / name)
            finally:
                if tmp.exists():
                    tmp.unlink()
            sidecar_digests[name] = bytes_sha256(arr.tobytes())

    mtime_ns, size = _source_signature(store_path)
    manifest = {
        "version": PARTITION_VERSION,
        "source": str(store_path),
        "source_mtime_ns": mtime_ns,
        "source_size": size,
        "num_nodes": plan.num_nodes,
        "num_arcs": plan.num_arcs,
        "num_shards": num_shards,
        "partitioner": plan.mode,
        "starts": [int(s) for s in plan.starts],
        "shard_arcs": [int(a) for a in plan.shard_arcs],
        "cut_arcs": [int(a) for a in plan.cut_arcs],
        "boundary_nodes": [int(b) for b in plan.boundary_nodes],
        "shards": [p.name for p in shard_paths],
        "shard_sha256": shard_digests,
        "sidecar_sha256": sidecar_digests,
    }
    manifest["manifest_sha256"] = _manifest_digest(manifest)
    tmp = directory / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2) + "\n")
    os.replace(tmp, directory / MANIFEST_NAME)
    return PartitionedStore(
        directory=directory,
        plan=plan,
        shard_paths=shard_paths,
        source=store_path,
        assignment=assignment,
        localidx=localidx,
    )


def _manifest_digest(manifest: dict) -> str:
    """Self-digest of a manifest: sha256 over its canonical JSON, with
    the digest field itself excluded."""
    body = {k: v for k, v in manifest.items() if k != "manifest_sha256"}
    return bytes_sha256(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    )


def verify_partition(
    directory: PathLike, *, level: Optional[str] = None
) -> dict:
    """Check a partition layout's integrity at the requested verify tier.

    ``header`` (default) is O(1): the manifest self-digest plus sidecar
    length checks.  ``full`` re-hashes every shard file and sidecar
    against the digests the manifest recorded.  Raises
    :class:`~repro.errors.CorruptArtifact` on the first mismatch; the
    report dict lists what was checked.
    """
    level = verify_level(level)
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        raise CorruptArtifact(
            manifest_path, kind="manifest", detail=f"unreadable ({exc})"
        ) from None
    report = {"path": str(directory), "level": level, "checked": []}
    if level == "off":
        return report
    recorded = manifest.get("manifest_sha256")
    if recorded is not None and _manifest_digest(manifest) != recorded:
        raise CorruptArtifact(
            manifest_path, kind="manifest", detail="manifest digest mismatch"
        )
    report["checked"].append(MANIFEST_NAME)
    if level != "full":
        return report
    for name, sha in zip(manifest.get("shards", ()),
                         manifest.get("shard_sha256", ())):
        path = directory / name
        if not path.exists():
            raise CorruptArtifact(
                path, kind="store", detail="shard file missing"
            )
        if file_sha256(path) != sha:
            raise CorruptArtifact(
                path, kind="store", detail="shard digest mismatch"
            )
        report["checked"].append(name)
    for name, sha in (manifest.get("sidecar_sha256") or {}).items():
        path = directory / name
        if not path.exists():
            raise CorruptArtifact(
                path, kind="sidecar", detail="sidecar missing"
            )
        if file_sha256(path) != sha:
            raise CorruptArtifact(
                path, kind="sidecar", detail="sidecar digest mismatch"
            )
        report["checked"].append(name)
    return report


def _plan_from_manifest(
    manifest: dict, assignment: Optional[np.ndarray] = None
) -> PartitionPlan:
    return PartitionPlan(
        num_nodes=int(manifest["num_nodes"]),
        num_arcs=int(manifest["num_arcs"]),
        starts=np.asarray(manifest["starts"], dtype=np.int64),
        shard_arcs=np.asarray(manifest["shard_arcs"], dtype=np.int64),
        cut_arcs=np.asarray(manifest["cut_arcs"], dtype=np.int64),
        boundary_nodes=np.asarray(
            manifest["boundary_nodes"], dtype=np.int64
        ),
        mode=manifest.get("partitioner", "range"),
        assignment=assignment,
    )


def _mmap_sidecar(directory: Path, name: str, num_nodes: int) -> np.ndarray:
    path = directory / name
    try:
        arr = np.memmap(path, dtype=np.int32, mode="r")
    except (OSError, ValueError) as exc:
        raise GraphFormatError(f"{path}: unreadable sidecar ({exc})") from None
    if len(arr) != num_nodes:
        raise CorruptArtifact(
            path,
            kind="sidecar",
            detail=f"has {len(arr)} entries, expected {num_nodes}",
        )
    return arr


def load_partitioned(directory: PathLike) -> PartitionedStore:
    """Load a partitioned store from its shard directory.

    Raises
    ------
    GraphFormatError
        If the manifest is missing, unreadable, of a different format
        version, or names shard or sidecar files that do not exist.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        raise GraphFormatError(
            f"{directory}: no readable partition manifest ({exc})"
        ) from None
    if manifest.get("version") != PARTITION_VERSION:
        raise GraphFormatError(
            f"{directory}: partition version {manifest.get('version')!r} "
            f"not supported (expected {PARTITION_VERSION})"
        )
    # The env-selected verify tier guards every load the same way store
    # opens are guarded: ``header`` costs one manifest re-hash, ``full``
    # re-hashes shards and sidecars too.
    verify_partition(directory)
    shard_paths = [directory / name for name in manifest["shards"]]
    missing = [p for p in shard_paths if not p.exists()]
    if missing:
        raise GraphFormatError(f"{directory}: missing shard files {missing}")
    assignment = localidx = None
    if manifest.get("partitioner", "range") == "lp":
        num_nodes = int(manifest["num_nodes"])
        assignment = _mmap_sidecar(directory, ASSIGNMENT_NAME, num_nodes)
        localidx = _mmap_sidecar(directory, LOCALIDX_NAME, num_nodes)
    return PartitionedStore(
        directory=directory,
        plan=_plan_from_manifest(manifest, assignment),
        shard_paths=shard_paths,
        source=Path(manifest["source"]),
        assignment=assignment,
        localidx=localidx,
    )


def _manifest_fresh(
    directory: Path,
    store_path: Path,
    num_shards: int,
    partitioner: str,
) -> bool:
    try:
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
    except (OSError, ValueError):
        return False
    if manifest.get("version") != PARTITION_VERSION:
        return False
    if manifest.get("num_shards") != num_shards:
        return False
    if manifest.get("partitioner", "range") != partitioner:
        return False
    try:
        mtime_ns, size = _source_signature(store_path)
    except OSError:
        return False
    return (
        manifest.get("source_mtime_ns") == mtime_ns
        and manifest.get("source_size") == size
    )


def ensure_partitioned(
    store_path: PathLike,
    num_shards: int,
    *,
    graph: Optional[CSRGraph] = None,
    directory: Optional[PathLike] = None,
    partitioner: str = DEFAULT_PARTITIONER,
) -> PartitionedStore:
    """Return a fresh partition of ``store_path``, (re)writing if stale.

    The cached partition under ``<store>.shards/<K>[-lp]/`` is reused
    when its manifest matches the store's current (mtime, size)
    signature, the requested shard count, and the requested partitioner;
    otherwise the shards are recomputed from ``graph`` (or the store,
    memory-mapped) and rewritten.
    """
    store_path = Path(store_path)
    directory = (
        Path(directory)
        if directory is not None
        else shards_dir_for(store_path, num_shards, partitioner)
    )
    if _manifest_fresh(directory, store_path, num_shards, partitioner):
        try:
            return load_partitioned(directory)
        except CorruptArtifact as exc:
            # Positively-corrupt layout (failed a digest or length
            # check): move the whole directory into quarantine so the
            # damaged bytes stay inspectable, then rebuild below from
            # the parent store — the self-heal path.
            quarantine_artifact(directory, reason=str(exc))
        except GraphFormatError:
            pass  # torn/deleted shard files: fall through and rewrite
    if graph is None:
        graph = open_store(store_path)
    return write_partitioned_store(
        graph, store_path, num_shards,
        directory=directory, partitioner=partitioner,
    )
