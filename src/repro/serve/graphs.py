"""Resident graphs: mmap'd stores held warm with their engine state.

A one-shot CLI run pays graph open + scratch allocation + executor
start-up on *every* query; the daemon pays them
once per resident graph.  :class:`GraphPool` keeps a bounded LRU of
:class:`ResidentGraph` entries, each holding

* the memory-mapped :class:`CSRGraph`, **pinned** in the underlying
  :class:`~repro.runtime.store.GraphStore` (see ``GraphStore.pin``) so
  store-level eviction can never change the graph's object identity
  while it is resident — warm engine state is keyed by that identity;
* a small LRU of warm :class:`~repro.mr.engine.MREngine` instances per
  (executor, workers, shards) — their scratch banks, cached growing
  state, and shard workers survive across queries.

Staleness uses the store's (mtime, size) signature: a query that finds
its graph's current signature differing from the resident one swaps the
entry — the old pin is released, old engines are closed, and the caller
gets the retired signature so it can purge the result cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.runtime.store import GraphStore
from repro.serve.protocol import ServeError

__all__ = ["ResidentGraph", "GraphPool"]

Signature = Tuple[str, int, int]


class ResidentGraph:
    """One warm graph: pinned mapping + per-backend engine cache."""

    def __init__(
        self,
        path_key: str,
        signature: Signature,
        graph,
        pin_cm,
        *,
        engine_capacity: int = 4,
    ):
        self.path_key = path_key
        self.signature = signature
        self.graph = graph
        self._pin_cm = pin_cm
        self.engine_capacity = engine_capacity
        #: (executor, workers, shards) → MREngine, LRU-ordered.
        self._engines: "OrderedDict[tuple, object]" = OrderedDict()
        #: Queries on one graph run FIFO already (scheduler), but the
        #: lock keeps engine state safe if that policy ever loosens.
        self.lock = threading.Lock()
        self.queries = 0
        #: Resident bytes this entry accounts for against the server's
        #: memory budget: the mapped CSR arrays.
        self.resident_cost = int(
            graph.indptr.nbytes + graph.indices.nbytes + graph.weights.nbytes
        )

    # ------------------------------------------------------------------ #

    def get_engine(
        self,
        executor: Optional[str],
        workers: Optional[int],
        shards: Optional[int],
    ):
        """A warm engine for this backend tuple (``None`` for the core path)."""
        if executor is None:
            return None
        key = (executor, workers, shards)
        engine = self._engines.get(key)
        if engine is not None:
            self._engines.move_to_end(key)
            return engine
        from repro.mrimpl.growing_mr import default_engine

        engine = default_engine(
            self.graph,
            executor=executor,
            num_workers=workers,
            shards=shards,
        )
        self._engines[key] = engine
        while len(self._engines) > self.engine_capacity:
            _, old = self._engines.popitem(last=False)
            _close_engine(old)
        return engine

    def drop_engine(
        self,
        executor: Optional[str],
        workers: Optional[int],
        shards: Optional[int],
    ) -> None:
        """Discard (and close) one backend's engine — e.g. after its
        worker processes broke mid-query.  The next query rebuilds it."""
        if executor is None:
            return
        engine = self._engines.pop((executor, workers, shards), None)
        if engine is not None:
            _close_engine(engine)

    def retire(self) -> None:
        """Close every engine and release the store pin.

        Takes the entry lock, so an in-flight query on this graph
        finishes before its engines are torn down under it.
        """
        with self.lock:
            while self._engines:
                _, engine = self._engines.popitem(last=False)
                _close_engine(engine)
            if self._pin_cm is not None:
                self._pin_cm.__exit__(None, None, None)
                self._pin_cm = None

    def info(self) -> Dict[str, object]:
        return {
            "path": self.path_key,
            "n": int(self.graph.num_nodes),
            "m": int(self.graph.num_edges),
            "signature": list(self.signature),
            "queries": self.queries,
            "resident_bytes": self.resident_cost,
            "engines": [
                {"executor": k[0], "workers": k[1], "shards": k[2]}
                for k in self._engines
            ],
        }


def _close_engine(engine) -> None:
    executor = getattr(engine, "executor", None)
    if executor is not None and hasattr(executor, "close"):
        try:
            executor.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass


class GraphPool:
    """Bounded LRU of :class:`ResidentGraph` entries over a GraphStore."""

    def __init__(
        self,
        store: GraphStore,
        *,
        capacity: int = 8,
        engine_capacity: int = 4,
    ):
        if capacity < 1:
            raise ValueError("GraphPool capacity must be >= 1")
        self.store = store
        self.capacity = capacity
        self.engine_capacity = engine_capacity
        self._entries: "OrderedDict[str, ResidentGraph]" = OrderedDict()
        self._lock = threading.Lock()
        self.admissions = 0
        self.refreshes = 0

    # ------------------------------------------------------------------ #

    def path_key(self, path: str) -> str:
        """The queue/residency key of a graph path (its store file)."""
        try:
            return str(self.store.store_path(path))
        except FileNotFoundError:
            raise ServeError.not_found(f"graph file not found: {path}")

    def peek_signature(self, path: str) -> Optional[Signature]:
        """Current signature if the store file already exists, else ``None``.

        Never converts — safe to call from the event loop for the
        admission-time cache probe.
        """
        import os

        try:
            store_file = self.store.store_path(path)
        except FileNotFoundError:
            raise ServeError.not_found(f"graph file not found: {path}")
        try:
            stat = os.stat(store_file)
        except OSError:
            return None
        return (str(store_file), stat.st_mtime_ns, stat.st_size)

    def resolve(self, path: str) -> Tuple[ResidentGraph, Optional[Signature]]:
        """The resident entry for ``path``, (re)building it if needed.

        Returns ``(entry, retired_signature)`` — the second element is
        the signature of a stale entry this call replaced (the daemon
        purges its cached results), or ``None``.  Runs on a worker
        thread: a first-time text graph pays its one-time conversion
        here.
        """
        key = self.path_key(path)
        try:
            signature = self.store.signature(path)
        except FileNotFoundError:
            raise ServeError.not_found(f"graph file not found: {path}")
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.signature == signature:
                self._entries.move_to_end(key)
                return entry, None

        # (Re)build outside the pool lock — a first-time conversion
        # touches the filesystem.
        pin_cm = self.store.pin(path)
        graph = pin_cm.__enter__()
        fresh = ResidentGraph(
            key, signature, graph, pin_cm, engine_capacity=self.engine_capacity
        )

        retired: List[ResidentGraph] = []
        retired_signature: Optional[Signature] = None
        with self._lock:
            stale = self._entries.pop(key, None)
            if stale is not None:
                if stale.signature == signature:
                    # Raced with another resolver that already built the
                    # same residency; keep theirs, discard ours.
                    self._entries[key] = stale
                    self._entries.move_to_end(key)
                    retired.append(fresh)
                    fresh = stale
                else:
                    retired.append(stale)
                    retired_signature = stale.signature
                    self.refreshes += 1
                    self._entries[key] = fresh
            else:
                self._entries[key] = fresh
            if fresh is not stale:
                self.admissions += 1
            while len(self._entries) > self.capacity:
                _, victim = self._entries.popitem(last=False)
                retired.append(victim)
        for victim in retired:
            victim.retire()
        return fresh, retired_signature

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            entry.retire()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def resident_bytes(self, exclude: Optional[str] = None) -> int:
        """Total resident cost of the pool, optionally excluding one
        path key (a query against an already-resident graph adds no new
        store bytes, only scratch)."""
        with self._lock:
            return sum(
                entry.resident_cost
                for key, entry in self._entries.items()
                if key != exclude
            )

    def infos(self) -> List[Dict[str, object]]:
        with self._lock:
            return [entry.info() for entry in self._entries.values()]

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "resident": len(self._entries),
                "resident_bytes": sum(
                    e.resident_cost for e in self._entries.values()
                ),
                "capacity": self.capacity,
                "admissions": self.admissions,
                "refreshes": self.refreshes,
            }
