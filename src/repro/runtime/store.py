"""GraphStore: load any graph once, memory-map it everywhere after.

The paper sizes everything around memory budgets (M_T/M_L, τ chosen so
the quotient graph fits local memory); the harness around the kernels
should honour the same discipline.  Re-parsing a DIMACS file costs
seconds per invocation and hands every process a private copy of the
CSR arrays.  :class:`GraphStore` replaces that with a cache of
memory-mapped binary containers (see :mod:`repro.graph.serialize` for
the on-disk layout):

* ``store.get(path)`` on a text graph (``.gr``/METIS/edge-list/npz)
  converts it **once** into a ``.rcsr`` file under the cache directory,
  then memory-maps it; subsequent calls — from this process, another
  process, or a later CLI invocation — open in O(1) and share the same
  page-cache bytes;
* ``store.get(path)`` on a ``.rcsr`` file memory-maps it directly;
* an in-process LRU keeps the most recent :class:`CSRGraph` handles
  alive so repeated runs in one session don't even reopen the file.

Cache entries are keyed by the source's resolved path *and* its
(mtime, size) signature, so editing a text graph invalidates its
converted store automatically; stale conversions for the same source
are removed when a fresh one is written.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.errors import ConfigurationError, CorruptArtifact, GraphFormatError
from repro.graph.csr import CSRGraph
from repro.graph.serialize import STORE_SUFFIX, is_store, write_store
from repro.integrity import quarantine_artifact, sweep_orphan_tmps

__all__ = ["GraphStore", "default_store", "get_graph"]

PathLike = Union[str, Path]

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_STORE_DIR"

#: Environment variable overriding the on-disk cache budget (bytes).
MAX_BYTES_ENV = "REPRO_STORE_MAX_BYTES"


def _default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro" / "graphstore"


def _max_bytes_from_env() -> int:
    """The ``REPRO_STORE_MAX_BYTES`` budget, 16 GiB when unset or empty.

    Anything but a non-negative integer is a
    :class:`~repro.errors.ConfigurationError` naming the variable.
    """
    raw = os.environ.get(MAX_BYTES_ENV)
    if not raw:
        return 16 * 1024**3
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise ConfigurationError(
            f"{MAX_BYTES_ENV}={raw!r} is not a non-negative byte count"
        )
    return value


class GraphStore:
    """A cache of memory-mapped graphs with transparent conversion.

    Parameters
    ----------
    cache_dir:
        Directory for converted ``.rcsr`` files (created on demand).
        Defaults to ``$REPRO_STORE_DIR`` or ``~/.cache/repro/graphstore``.
    capacity:
        Number of open graphs the in-process LRU retains.  Evicting a
        handle only drops this cache's reference — existing
        :class:`CSRGraph` objects stay valid.
    max_cache_bytes:
        On-disk budget for the conversion cache.  After each conversion
        the oldest cache files are removed until the directory fits the
        budget (the file just written is kept regardless).  Defaults to
        ``$REPRO_STORE_MAX_BYTES`` or 16 GiB; ``None`` disables
        trimming.  Only files this class created (``*.rcsr`` inside
        ``cache_dir``) are ever deleted.
    """

    def __init__(
        self,
        cache_dir: Optional[PathLike] = None,
        capacity: int = 8,
        max_cache_bytes: Optional[int] = -1,
    ):
        if capacity < 1:
            raise ValueError("GraphStore capacity must be >= 1")
        self.cache_dir = (
            Path(cache_dir) if cache_dir is not None else _default_cache_dir()
        )
        if max_cache_bytes == -1:
            max_cache_bytes = _max_bytes_from_env()
        self.max_cache_bytes = max_cache_bytes
        self.capacity = capacity
        self._lru: "OrderedDict[tuple, CSRGraph]" = OrderedDict()
        #: key → number of in-flight pins; pinned entries are never
        #: evicted, so a long query's graph keeps its identity (and the
        #: engine state cached against it) even under eviction pressure.
        self._pins: Dict[tuple, int] = {}
        #: get/pin/clear run from server worker threads concurrently;
        #: the LRU bookkeeping is guarded by one reentrant lock (the
        #: conversion itself happens outside the lock — it is keyed by
        #: signature, so a duplicate conversion is wasted work, not a
        #: correctness problem: write_store is atomic).
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.conversions = 0
        #: Corrupt stores moved into quarantine / rebuilt from source.
        self.quarantined = 0
        self.rebuilds = 0
        #: Directories already swept for orphaned ``*.tmp`` debris this
        #: process; each store directory pays the sweep glob once.
        self._swept: set = set()

    # ------------------------------------------------------------------ #

    def _resolved_store(self, path: PathLike) -> Path:
        """``store_path(path)``, converting the source if needed."""
        store_file = self.store_path(path)
        if not store_file.exists():
            self._convert(Path(path), store_file)
        return store_file

    def signature(self, path: PathLike) -> Tuple[str, int, int]:
        """``path``'s store identity: (store file, mtime_ns, size).

        This is exactly the key the in-process LRU uses, so two calls
        return equal signatures iff :meth:`get` would return the same
        cached graph.  Mutating (rewriting) the store file changes the
        signature — result caches keyed by it invalidate automatically.
        """
        store_file = self._resolved_store(path)
        stat = store_file.stat()
        return (str(store_file), stat.st_mtime_ns, stat.st_size)

    def get(self, path: PathLike) -> CSRGraph:
        """Return ``path``'s graph, memory-mapped, converting if needed.

        ``path`` may be a ``.rcsr`` store (opened directly), a text
        graph (converted once, then opened from the cache directory), or
        the legacy ``.npz`` dump (likewise converted).
        """
        return self._lookup(path)[1]

    def _lookup(self, path: PathLike) -> Tuple[tuple, CSRGraph]:
        store_file = self._resolved_store(path)
        self._sweep_dir(store_file.parent)
        for attempt in (0, 1):
            stat = store_file.stat()
            key = (str(store_file), stat.st_mtime_ns, stat.st_size)
            with self._lock:
                cached = self._lru.get(key)
                if cached is not None:
                    self._lru.move_to_end(key)
                    self.hits += 1
                    return key, cached
            # Mapping the file happens outside the lock (it touches the
            # filesystem); a racing thread may map the same store twice,
            # in which case the second mapping wins the slot — both
            # views are read-only over the same bytes.
            try:
                graph = CSRGraph.open_mmap(store_file)
            except CorruptArtifact as exc:
                if attempt == 0 and self._heal(Path(path), store_file, exc):
                    continue  # rebuilt from source: reopen under new key
                raise
            with self._lock:
                self.misses += 1
                self._lru[key] = graph
                self._trim_lru()
            return key, graph
        raise AssertionError("unreachable")  # pragma: no cover

    def _sweep_dir(self, directory: Path) -> None:
        """Once per directory: clear orphaned store temp files.

        Interrupted ``write_store`` calls leave mkstemp files named
        ``<store>.rcsr.tmpXXXXXX``; the mtime grace window inside
        :func:`sweep_orphan_tmps` keeps a concurrent writer's live temp
        safe.
        """
        key = str(directory)
        with self._lock:
            if key in self._swept:
                return
            self._swept.add(key)
        sweep_orphan_tmps(directory, (f"*{STORE_SUFFIX}.tmp*",))

    def _heal(self, source: Path, store_file: Path, exc: CorruptArtifact) -> bool:
        """Quarantine a corrupt store; rebuild it when the source remains.

        Returns True when the store was rebuilt (caller retries the
        open).  A store that *is* the user's source file cannot be
        rebuilt — it is quarantined and the error re-raised with the
        quarantine location attached, so nothing downstream ever
        computes on damaged bytes.
        """
        quarantined = quarantine_artifact(store_file, reason=str(exc))
        with self._lock:
            self.quarantined += 1
            # Any LRU entries for the damaged file are stale now.
            for key in [k for k in self._lru if k[0] == str(store_file)]:
                if not self._pins.get(key):
                    del self._lru[key]
        rebuildable = (
            store_file != source
            and source.exists()
            and not is_store(source)
        )
        if not rebuildable:
            raise CorruptArtifact(
                store_file,
                kind=exc.kind,
                detail=exc.detail,
                quarantined=quarantined,
            ) from exc
        self._convert(source, store_file)
        with self._lock:
            self.rebuilds += 1
        return True

    def _trim_lru(self) -> None:
        """Evict oldest *unpinned* entries down to capacity (lock held)."""
        if len(self._lru) <= self.capacity:
            return
        for key in list(self._lru):
            if len(self._lru) <= self.capacity:
                break
            if self._pins.get(key):
                continue
            del self._lru[key]

    @contextmanager
    def pin(self, path: PathLike) -> Iterator[CSRGraph]:
        """Context manager yielding ``path``'s graph, pinned in the LRU.

        While pinned, the entry cannot be evicted: a concurrent
        ``get(path)`` returns the *same* :class:`CSRGraph` object, so
        state keyed by graph identity (warm engine scratch, resident
        shard workers) survives any amount of cache pressure from other
        graphs.  Pins nest; the entry becomes evictable again when the
        last pin exits (the LRU is re-trimmed at that point).
        """
        key, graph = self._lookup(path)
        with self._lock:
            self._pins[key] = self._pins.get(key, 0) + 1
        try:
            yield graph
        finally:
            with self._lock:
                remaining = self._pins.get(key, 1) - 1
                if remaining <= 0:
                    self._pins.pop(key, None)
                else:
                    self._pins[key] = remaining
                self._trim_lru()

    def store_path(self, path: PathLike) -> Path:
        """The ``.rcsr`` file ``get(path)`` will open (may not exist yet).

        A store file is its own store path; any other source maps into
        the cache directory under a name derived from its resolved path
        and (mtime, size) signature.
        """
        path = Path(path)
        if path.suffix == STORE_SUFFIX or (path.exists() and is_store(path)):
            return path
        if not path.exists():
            raise FileNotFoundError(f"graph file not found: {path}")
        stat = path.stat()
        return self.cache_dir / (
            f"{path.name}-{self._digest(path)}-"
            f"{stat.st_mtime_ns}-{stat.st_size}{STORE_SUFFIX}"
        )

    @staticmethod
    def _digest(path: Path) -> str:
        """Stable identity of a source file's resolved path."""
        return hashlib.sha1(str(path.resolve()).encode()).hexdigest()[:16]

    def _convert(self, source: Path, store_file: Path) -> None:
        """Parse ``source`` and write its store file (one-time cost).

        Conversions for an earlier version of the same source (same
        path digest, different signature) are deleted — they can never
        be opened again.
        """
        import glob as globmod

        from repro.graph.io import read_auto

        if source.suffix == STORE_SUFFIX and not source.exists():
            raise FileNotFoundError(f"graph store not found: {source}")
        graph = read_auto(source)
        store_file.parent.mkdir(parents=True, exist_ok=True)
        # The source name may contain glob metacharacters ("data[v2].gr");
        # escape the fixed prefix and wildcard only the signature part.
        prefix = globmod.escape(f"{source.name}-{self._digest(source)}-")
        for stale_name in globmod.glob(
            str(store_file.parent / (prefix + "*" + STORE_SUFFIX))
        ):
            try:
                Path(stale_name).unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
            # A stale conversion's shard partition can never be opened
            # again either (it is keyed to the deleted store file).
            self._remove_shards(Path(stale_name))
        write_store(graph, store_file)
        self.conversions += 1
        self._trim_disk(keep=store_file)

    @staticmethod
    def _shards_root(store_file: Path) -> Path:
        """The partition root (``<store>.shards/``) of a store file."""
        from repro.graph.partition import SHARDS_DIR_SUFFIX

        return store_file.parent / (store_file.name + SHARDS_DIR_SUFFIX)

    @classmethod
    def _remove_shards(cls, store_file: Path) -> None:
        """Delete a store file's shard partitions (missing-ok)."""
        import shutil

        shutil.rmtree(cls._shards_root(store_file), ignore_errors=True)

    @classmethod
    def _shards_dir_size(cls, store_file: Path) -> int:
        """Bytes of a cached store's shard partitions (0 when absent)."""
        root = cls._shards_root(store_file)
        if not root.is_dir():
            return 0
        return sum(
            p.stat().st_size for p in root.rglob("*") if p.is_file()
        )

    def _trim_disk(self, keep: Path) -> None:
        """Evict oldest conversions until the cache fits its byte budget.

        A store's shard partitions (``<store>.shards/``) count toward
        the budget and are evicted with it.  ``keep`` (the conversion
        just written) is never evicted, so a single graph larger than
        the budget still works.
        """
        if self.max_cache_bytes is None:
            return
        entries = [
            (
                p.stat().st_mtime_ns,
                p.stat().st_size + self._shards_dir_size(p),
                p,
            )
            for p in self.cache_dir.glob("*" + STORE_SUFFIX)
            if p != keep and p.is_file()
        ]
        total = (
            sum(size for _, size, _ in entries)
            + keep.stat().st_size
            + self._shards_dir_size(keep)
        )
        for _, size, victim in sorted(entries):
            if total <= self.max_cache_bytes:
                break
            try:
                victim.unlink()
                total -= size
            except OSError:  # pragma: no cover - concurrent removal
                continue
            self._remove_shards(victim)

    def get_partitioned(
        self,
        path: PathLike,
        num_shards: int,
        partitioner: str = "lp",
    ):
        """Return ``path``'s ``num_shards``-way partition, building if needed.

        The graph is resolved through :meth:`get` (converted and
        memory-mapped as usual) and its partition is cached on disk
        under ``<store>.shards/<K>-lp/`` next to the store file (see
        :mod:`repro.graph.partition` for the layout).  The cache
        invalidates itself: converted stores are signature-keyed files,
        so an edited source yields a fresh store *and* fresh shards,
        while a rewritten ``.rcsr`` is caught by the manifest's
        (mtime, size) record and re-partitioned.  ``partitioner`` only
        accepts ``"lp"``, the one partitioner there is.

        Returns a :class:`~repro.graph.partition.PartitionedStore`.
        """
        from repro.graph.partition import PARTITIONER, ensure_partitioned

        if partitioner != PARTITIONER:
            raise ValueError(
                f"unknown partitioner {partitioner!r} "
                f"(the only one is {PARTITIONER!r})"
            )
        store_file = self.store_path(path)
        graph = self.get(path)
        partitioned = ensure_partitioned(store_file, num_shards, graph=graph)
        if store_file.parent == self.cache_dir:
            # Shard partitions count toward the cache budget like the
            # stores they belong to; re-trim now that one was written.
            self._trim_disk(keep=store_file)
        return partitioned

    # ------------------------------------------------------------------ #

    def convert(self, source: PathLike, destination: PathLike) -> CSRGraph:
        """Explicitly convert ``source`` into a store file at ``destination``.

        Unlike :meth:`get`, the output goes exactly where asked (e.g. a
        sidecar ``graph.rcsr`` you commit next to a dataset) and the
        returned graph memory-maps it.
        """
        from repro.graph.io import read_auto

        destination = Path(destination)
        if destination.suffix != STORE_SUFFIX:
            raise GraphFormatError(
                f"store files use the {STORE_SUFFIX!r} suffix: {destination}"
            )
        write_store(read_auto(source), destination)
        return self.get(destination)

    def clear(self) -> None:
        """Drop every unpinned LRU entry (open graphs stay valid)."""
        with self._lock:
            for key in list(self._lru):
                if not self._pins.get(key):
                    del self._lru[key]

    def __len__(self) -> int:
        with self._lock:
            return len(self._lru)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphStore(cache_dir={str(self.cache_dir)!r}, "
            f"open={len(self._lru)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )


_DEFAULT: Optional[GraphStore] = None


def default_store() -> GraphStore:
    """The process-wide :class:`GraphStore` (created on first use)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = GraphStore()
    return _DEFAULT


def get_graph(path: PathLike) -> CSRGraph:
    """``default_store().get(path)`` — the one-line zero-copy loader."""
    return default_store().get(path)
