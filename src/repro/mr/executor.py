"""Execution backends for the MR engine.

For per-key rounds the engine hands an executor a mapping
``{key: [values]}``; the executor partitions the key groups across
``num_workers`` simulated machines, applies the reducer to every group,
and reports per-worker loads so the engine can accumulate the round's
critical-path cost.  Batch rounds (see :mod:`repro.mr.batch`) always
reduce in the engine's process; an executor only decides whether the
growing-step drivers pick the array layout (``batch_rounds``).

Three backends are selectable by name (:data:`EXECUTOR_NAMES`):

* :class:`SerialExecutor` — applies per-key reducers in one process.
  This is the default and the paper-literal simulation; worker loads are
  still tracked so the critical-path *model* reflects a multi-machine
  platform.
* :class:`VectorExecutor` — batch rounds: the growing step runs on the
  array state and every batch reducer handles all groups in one NumPy
  call, in-process.  This is the fast single-host backend
  (``--executor vector``).
* the owner-compute :class:`~repro.mr.sharded.ShardedExecutor`
  (``--executor sharded``), in :mod:`repro.mr.sharded`: persistent
  workers own a node range (memory-mapping their shard of a partitioned
  GraphStore) and rounds exchange only the candidates that cross shard
  boundaries.

The batch backends still accept per-key rounds (delegated to the serial
shard loop), so one engine can mix batch hot-path rounds with per-key
rounds in the same computation.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.mr.partitioner import hash_partition

__all__ = [
    "SerialExecutor",
    "VectorExecutor",
    "make_executor",
    "EXECUTOR_NAMES",
]

Reducer = Callable[[Hashable, List[object]], Iterable[Tuple[Hashable, object]]]


def _apply_shard(shard, reducer):
    """Run a reducer over one worker's shard of key groups."""
    out: List[Tuple[Hashable, object]] = []
    load = 0
    for key, values in shard:
        load += len(values)
        produced = list(reducer(key, values))
        load += len(produced)
        out.extend(produced)
    return out, load


def _shard_groups(
    groups: Dict[Hashable, List[object]], num_workers: int
) -> List[List[Tuple[Hashable, List[object]]]]:
    shards: List[List[Tuple[Hashable, List[object]]]] = [
        [] for _ in range(num_workers)
    ]
    for key, values in groups.items():
        shards[hash_partition(key, num_workers)].append((key, values))
    return shards


class SerialExecutor:
    """Apply all reducers in-process, modelling ``num_workers`` machines."""

    def run(
        self,
        groups: Dict[Hashable, List[object]],
        reducer: Reducer,
        num_workers: int,
    ) -> Tuple[List[Tuple[Hashable, object]], List[int]]:
        shards = _shard_groups(groups, num_workers)
        output: List[Tuple[Hashable, object]] = []
        loads: List[int] = []
        for shard in shards:
            out, load = _apply_shard(shard, reducer)
            output.extend(out)
            loads.append(load)
        return output, loads


class VectorExecutor:
    """Vectorized single-process backend for batch rounds.

    The engine applies batch reducers to every group in one call — no
    per-key Python loop, no per-pair objects.  Per-key rounds fall back
    to the serial shard loop so algorithms can mix both round kinds on
    one engine.
    """

    #: Drivers pick the array layout on this engine (see
    #: :attr:`repro.mr.engine.MREngine.supports_batch`).
    batch_rounds = True

    def run(
        self,
        groups: Dict[Hashable, List[object]],
        reducer: Reducer,
        num_workers: int,
    ) -> Tuple[List[Tuple[Hashable, object]], List[int]]:
        return SerialExecutor().run(groups, reducer, num_workers)


#: CLI/config names of the selectable backends.
EXECUTOR_NAMES = ("serial", "vector", "sharded")


def make_executor(name: str, *, shards: Optional[int] = None):
    """Build an executor from its CLI/config name.

    ``serial`` is the paper-literal per-key simulation, ``vector`` the
    single-process vectorized batch backend, and ``sharded`` the
    owner-compute backend of :mod:`repro.mr.sharded` (persistent
    shard-owning workers, boundary-only exchange; ``shards`` sets the
    shard count, defaulting to the CPU count).  Raises ``ValueError`` on
    any other name.
    """
    if name == "serial":
        return SerialExecutor()
    if name == "vector":
        return VectorExecutor()
    if name == "sharded":
        from repro.mr.sharded import ShardedExecutor

        return ShardedExecutor(num_shards=shards)
    raise ValueError(
        f"unknown executor {name!r}; expected one of {', '.join(EXECUTOR_NAMES)}"
    )
