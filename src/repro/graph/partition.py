"""Owner-compute graph partitioning on disk.

The paper's MR algorithms assume each machine holds a fixed subgraph and
that a round exchanges only the messages crossing machine boundaries.
This module provides the storage half of that contract:

* :func:`plan_partition` — assign every node to one of ``num_shards``
  shards with the locality-aware multilevel label-propagation pipeline
  (:func:`~repro.mr.partitioner.lp_assignment`) and report the edge cut
  (per-shard internal/cut arcs and boundary-node counts).  Ownership is
  an explicit node→shard ``assignment`` array.  Node ids are *never*
  relabeled — a shard simply owns a (generally non-contiguous) row set
  — which is what keeps sharded results bit-identical to the
  whole-graph backends.
* :func:`write_partitioned_store` / :func:`ensure_partitioned` — the
  partitioned on-disk layout next to a GraphStore file::

      graph.rcsr                     the (unsharded) store
      graph.rcsr.shards/<K>-lp/      the K-way partition
          manifest.json              plan + source signature (commit point)
          part-0.rcsr … part-K-1.rcsr
          assignment.i32             node → owning shard
          localidx.i32               node → dense local row

  Each ``part-k.rcsr`` is a GraphStore container (written through the
  same atomic :func:`~repro.graph.serialize.write_store` path) holding
  the CSR *rows* of shard ``k``'s node set, ascending: a local
  ``indptr`` of length ``num_rows + 1`` whose ``indices`` keep
  **global** node ids.  The two int32 sidecars (memory-mapped, so
  forked workers share their pages) give the node→shard and
  node→local-row maps workers route by.  A shard-owning worker
  memory-maps exactly its rows — O(shard) pages, never the whole graph.

  ``manifest.json`` records the source store's (mtime, size) signature;
  :func:`ensure_partitioned` re-partitions whenever the signature (or
  requested shard count) no longer matches, so editing a store
  invalidates its shards the same way editing a text graph invalidates
  its cached conversion.  The manifest is written last, atomically: a
  reader either sees a complete partition or none.  A ``<K>/`` directory
  left by the retired contiguous-range planner is a foreign layout:
  :func:`load_partitioned` rejects its manifest, and ``repro info`` /
  ``repro verify`` still list and check it.

Shard files reuse :class:`~repro.graph.csr.CSRGraph` purely as an array
container (``validate=False`` — global neighbour ids are out of range
for the local row count, by design); they are not meaningful graphs on
their own.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.errors import ConfigurationError, CorruptArtifact, GraphFormatError
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
from repro.mr.partitioner import lp_assignment

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
    "PARTITIONER",
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
#: The partitioner a manifest must name to load; also the suffix of
#: the ``<K>-lp`` cache leaf.
PARTITIONER = "lp"
#: Sidecar file names (int32, one entry per node).
ASSIGNMENT_NAME = "assignment.i32"
LOCALIDX_NAME = "localidx.i32"
#: Most rows one shard may own: ``localidx.i32`` stores local rows as
#: int32.
MAX_SHARD_ROWS = int(np.iinfo(np.int32).max)


@dataclass(frozen=True)
class PartitionPlan:
    """A node partition plus its edge-cut report.

    Attributes
    ----------
    num_nodes, num_arcs:
        Shape of the partitioned graph.
    starts:
        int64 array of length ``num_shards + 1``: the prefix sums of
        per-shard node counts (``np.diff(starts)`` is the shard-size
        vector; row sets are generally not contiguous).
        ``starts[0] == 0`` and ``starts[-1] == num_nodes`` always hold.
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
    assignment:
        int32 node→shard map.
    """

    num_nodes: int
    num_arcs: int
    starts: np.ndarray
    shard_arcs: np.ndarray
    cut_arcs: np.ndarray
    boundary_nodes: np.ndarray
    assignment: np.ndarray

    @property
    def num_shards(self) -> int:
        return len(self.starts) - 1

    @property
    def shard_nodes(self) -> np.ndarray:
        """Nodes owned per shard."""
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
        return self.assignment[np.asarray(keys)].astype(np.int64)

    def shard_rows(self, shard: int) -> np.ndarray:
        """Ascending global node ids owned by ``shard``."""
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
    slack: float = 0.5,
    seed: int = 0,
) -> PartitionPlan:
    """Assign ``graph``'s nodes to ``num_shards`` shards.

    Runs the locality-aware multilevel label-propagation pipeline
    (:func:`~repro.mr.partitioner.lp_assignment`), trading up to
    ``1 + slack`` arc-load imbalance for a lower edge cut; it never cuts
    more than a contiguous arc-balanced split of the id space.  The
    shards cover ``[0, num_nodes)`` exactly; some may be empty when
    ``num_shards > num_nodes``.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    assignment = lp_assignment(graph, num_shards, slack=slack, seed=seed)
    row_shard = assignment.astype(np.int64)
    counts = np.bincount(row_shard, minlength=num_shards)
    starts = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    shard_arcs, cut_arcs, boundary = _cut_report(graph, row_shard, num_shards)
    return PartitionPlan(
        num_nodes=graph.num_nodes,
        num_arcs=graph.num_arcs,
        starts=starts,
        shard_arcs=shard_arcs,
        cut_arcs=cut_arcs,
        boundary_nodes=boundary,
        assignment=assignment,
    )


@dataclass(frozen=True)
class PartitionedStore:
    """A partition on disk: the plan plus where its shard files live.

    ``assignment`` and ``localidx`` are the two int32 sidecars
    (node→shard and node→local-row), memory-mapped when loaded.
    """

    directory: Path
    plan: PartitionPlan
    shard_paths: List[Path]
    source: Path
    assignment: np.ndarray
    localidx: np.ndarray

    def open_shard(self, shard: int) -> CSRGraph:
        """Memory-map one shard's rows (local indptr, global indices)."""
        return open_store(self.shard_paths[shard])


def shards_dir_for(store_path: PathLike, num_shards: int) -> Path:
    """Directory holding ``store_path``'s ``num_shards``-way partition."""
    store_path = Path(store_path)
    return (
        store_path.parent
        / (store_path.name + SHARDS_DIR_SUFFIX)
        / f"{num_shards}-{PARTITIONER}"
    )


def _source_signature(store_path: Path) -> tuple:
    stat = store_path.stat()
    return stat.st_mtime_ns, stat.st_size


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
) -> PartitionedStore:
    """Write ``graph``'s ``num_shards``-way partition next to ``store_path``.

    ``store_path`` is the *source* store the manifest records (it must
    exist — its signature is what invalidates the shards); ``directory``
    overrides the default ``<store>.shards/<K>-lp/`` location.  Shard
    files go through the atomic :func:`write_store` path, the sidecars
    follow, and the manifest is written last (temp file +
    ``os.replace``) as the commit point.

    Raises
    ------
    ConfigurationError
        Before anything is written, if a shard would own more than
        :data:`MAX_SHARD_ROWS` rows (its local rows would overflow the
        int32 ``localidx`` sidecar).
    """
    store_path = Path(store_path)
    if plan is None:
        plan = plan_partition(graph, num_shards)
    if plan.num_shards != num_shards:
        raise ValueError("plan shard count does not match num_shards")
    oversized = np.flatnonzero(plan.shard_nodes > MAX_SHARD_ROWS)
    if len(oversized):
        k = int(oversized[0])
        raise ConfigurationError(
            f"shard {k} of {num_shards} would own "
            f"{int(plan.shard_nodes[k])} rows, more than the "
            f"{MAX_SHARD_ROWS} the int32 partition sidecars can index; "
            "use more shards"
        )
    directory = (
        Path(directory)
        if directory is not None
        else shards_dir_for(store_path, num_shards)
    )
    directory.mkdir(parents=True, exist_ok=True)
    sweep_orphan_tmps(directory)

    shard_paths: List[Path] = []
    shard_digests: List[str] = []
    for k in range(num_shards):
        path = directory / f"part-{k}{STORE_SUFFIX}"
        write_store(_shard_graph_rows(graph, plan.shard_rows(k)), path)
        # Whole-file digest over the bytes just written (page cache is
        # warm): lets a deep verify catch a shard file swapped for a
        # different-but-self-consistent store, which the shard's own
        # digest block cannot.
        shard_digests.append(file_sha256(path))
        shard_paths.append(path)

    assignment = np.ascontiguousarray(plan.assignment, dtype=np.int32)
    localidx = _localidx_of(assignment, num_shards)
    sidecar_digests = {}
    for name, arr in (
        (ASSIGNMENT_NAME, assignment),
        (LOCALIDX_NAME, localidx),
    ):
        preflight_free_space(directory, arr.nbytes, label=f"sidecar {name}")
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
        "partitioner": PARTITIONER,
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


def _plan_from_manifest(manifest: dict, assignment: np.ndarray) -> PartitionPlan:
    return PartitionPlan(
        num_nodes=int(manifest["num_nodes"]),
        num_arcs=int(manifest["num_arcs"]),
        starts=np.asarray(manifest["starts"], dtype=np.int64),
        shard_arcs=np.asarray(manifest["shard_arcs"], dtype=np.int64),
        cut_arcs=np.asarray(manifest["cut_arcs"], dtype=np.int64),
        boundary_nodes=np.asarray(
            manifest["boundary_nodes"], dtype=np.int64
        ),
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
        version or partitioner (a leftover contiguous-range layout), or
        names shard or sidecar files that do not exist.
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
    if manifest.get("partitioner") != PARTITIONER:
        raise GraphFormatError(
            f"{directory}: {manifest.get('partitioner')!r} partition "
            f"layout not supported (expected {PARTITIONER!r})"
        )
    # The env-selected verify tier guards every load the same way store
    # opens are guarded: ``header`` costs one manifest re-hash, ``full``
    # re-hashes shards and sidecars too.
    verify_partition(directory)
    shard_paths = [directory / name for name in manifest["shards"]]
    missing = [p for p in shard_paths if not p.exists()]
    if missing:
        raise GraphFormatError(f"{directory}: missing shard files {missing}")
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


def _manifest_fresh(directory: Path, store_path: Path, num_shards: int) -> bool:
    try:
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
    except (OSError, ValueError):
        return False
    if manifest.get("version") != PARTITION_VERSION:
        return False
    if manifest.get("num_shards") != num_shards:
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
) -> PartitionedStore:
    """Return a fresh partition of ``store_path``, (re)writing if stale.

    The cached partition under ``<store>.shards/<K>-lp/`` is reused when
    its manifest matches the store's current (mtime, size) signature and
    the requested shard count; otherwise the shards are recomputed from
    ``graph`` (or the store, memory-mapped) and rewritten.  Once the lp
    manifest is committed, a ``<store>.shards/<K>/`` layout left by the
    retired range partitioner is deleted (:func:`_remove_range_leftover`).
    """
    store_path = Path(store_path)
    directory = (
        Path(directory)
        if directory is not None
        else shards_dir_for(store_path, num_shards)
    )
    if _manifest_fresh(directory, store_path, num_shards):
        try:
            loaded = load_partitioned(directory)
        except CorruptArtifact as exc:
            # Positively-corrupt layout (failed a digest or length
            # check): move the whole directory into quarantine so the
            # damaged bytes stay inspectable, then rebuild below from
            # the parent store — the self-heal path.
            quarantine_artifact(directory, reason=str(exc))
        except GraphFormatError:
            # Torn/deleted shard files or a foreign (range) layout:
            # fall through and rewrite.
            pass
        else:
            _remove_range_leftover(store_path, num_shards, directory)
            return loaded
    if graph is None:
        graph = open_store(store_path)
    written = write_partitioned_store(
        graph, store_path, num_shards, directory=directory
    )
    _remove_range_leftover(store_path, num_shards, directory)
    return written


def _remove_range_leftover(
    store_path: Path, num_shards: int, keep: Path
) -> None:
    """Delete the ``<store>.shards/<K>/`` layout of the retired range
    partitioner, a full copy of the graph's rows nothing reads.

    Only that directory is touched, and only when it is a real
    directory (not a symlink) other than ``keep`` — the layout just
    committed, which may have been written in its place — whose
    manifest names the ``range`` partitioner.  Best effort: the
    manifest goes first, so a removal that fails half way leaves files
    no layout claims, and a failure never fails the caller.
    """
    leftover = (
        store_path.parent
        / (store_path.name + SHARDS_DIR_SUFFIX)
        / str(num_shards)
    )
    if leftover.is_symlink() or not leftover.is_dir():
        return
    if leftover.resolve() == Path(keep).resolve():
        return
    try:
        manifest = json.loads((leftover / MANIFEST_NAME).read_text())
    except (OSError, ValueError):
        return
    if not isinstance(manifest, dict) or manifest.get("partitioner") != "range":
        return
    try:
        (leftover / MANIFEST_NAME).unlink()
    except OSError:
        return
    shutil.rmtree(leftover, ignore_errors=True)
