"""Round-by-round executor for the MR(M_T, M_L) model.

A round transforms a multiset of ``(key, value)`` pairs by grouping on the
key and applying a reducer function to every group independently.  The
engine runs every round as a *batch* round — integer keys, float64 value
rows, and a vectorized reducer over all groups at once (see
:mod:`repro.mr.batch`) — enforces the model's memory budgets, counts
rounds and messages, and simulates the per-round critical path of a
``num_workers``-machine platform (the quantity Figure 4's scalability
experiment measures).
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import MemoryLimitExceeded
from repro.mr import native as _native
from repro.mr.metrics import Counters
from repro.mr.model import MRSpec

__all__ = ["MREngine", "BatchReducer", "GroupSummary", "max_worker_load"]

#: A batch reducer maps grouped ``(keys, offsets, values)`` arrays to an
#: output batch ``(out_keys, out_values, out_counts)`` — see
#: :mod:`repro.mr.batch` for the full protocol.
BatchReducer = Callable[
    [np.ndarray, np.ndarray, np.ndarray],
    Tuple[np.ndarray, np.ndarray, np.ndarray],
]


class GroupSummary:
    """What the batch cost model reads of one round's reducer groups.

    ``max_count`` is the largest group's row count and ``max_key`` the
    smallest key with that count (``None`` when the round has no
    groups) — the memory-model check's worst reducer; ``max_load`` is
    the busiest simulated worker's input + output rows under the hash
    partitioner — the round's share of the critical path.  Producers
    build it from their own groups: :meth:`MREngine.round_batch` from
    its shuffle, the fused growing pipeline (:mod:`repro.mr.emit`) from
    its message stream.
    """

    __slots__ = ("max_count", "max_key", "max_load")

    def __init__(
        self, max_count: int = 0, max_key: Optional[int] = None,
        max_load: int = 0,
    ):
        self.max_count = max_count
        self.max_key = max_key
        self.max_load = max_load

    @classmethod
    def of(cls, keys: np.ndarray, counts: np.ndarray) -> "GroupSummary":
        """The worst group of ascending distinct ``keys`` (load unset)."""
        if not len(keys):
            return cls()
        at = int(np.argmax(counts))  # first maximum = smallest key
        return cls(int(counts[at]), int(keys[at]))


def max_worker_load(keys: np.ndarray, loads, num_workers: int) -> int:
    """Busiest simulated worker's summed ``loads`` over hash-routed ``keys``.

    ``loads`` is the per-key load (an array, or a scalar for every key).
    """
    if not len(keys):
        return 0
    if _native.use_native():
        # Fused hash-route + weighted max-load in one C pass (the mix
        # matches hash_partition_array bit for bit, and int64
        # accumulation equals the float bincount for any realistic
        # load sum).
        weights = np.broadcast_to(
            np.asarray(loads, dtype=np.int64), keys.shape
        )
        return _native.partition_loads(
            np.ascontiguousarray(keys, dtype=np.int64),
            np.ascontiguousarray(weights),
            num_workers,
            np.zeros(num_workers, dtype=np.int64),
        )
    from repro.mr.partitioner import hash_partition_array

    workers = hash_partition_array(keys, num_workers)
    per_worker = np.bincount(
        workers,
        weights=np.broadcast_to(loads, keys.shape),
        minlength=num_workers,
    )
    return int(per_worker.max())


def _group_batch(
    keys: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized shuffle: group value rows by key with one stable sort.

    Returns ``(group_keys, offsets, sorted_values)`` in the batch-reducer
    layout — distinct keys ascending, a ``g + 1`` prefix array, and the
    rows reordered so each group is contiguous in input order.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.concatenate(
        ([0], np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1)
    ).astype(np.int64)
    offsets = np.concatenate((starts, [len(sorted_keys)])).astype(np.int64)
    return sorted_keys[starts], offsets, values[order]


class MREngine:
    """Executes MR rounds under an :class:`MRSpec` with full accounting.

    Parameters
    ----------
    spec:
        Memory/worker parameters.
    executor:
        ``None`` (the ``vector`` backend) or an executor that owns the
        growing state of the Δ-growing steps, such as
        :class:`~repro.mr.sharded.ShardedExecutor` (see
        :func:`~repro.mrimpl.growing_mr.make_growing_state`).
    enforce_memory:
        When ``True`` (default) a reducer whose input exceeds ``M_L`` words,
        or a round whose pairs exceed ``M_T`` words, raises
        :class:`~repro.errors.MemoryLimitExceeded`.

    Attributes
    ----------
    counters:
        Aggregated :class:`~repro.mr.metrics.Counters`; ``rounds`` and
        ``messages`` are maintained by the engine, ``updates`` by the
        algorithms layered on top.
    simulated_time:
        Sum over rounds of the busiest worker's load (input + output
        pairs), i.e. the critical-path cost on ``spec.num_workers``
        machines.  This is the scalability metric of Figure 4.
    """

    def __init__(
        self,
        spec: MRSpec,
        executor=None,
        *,
        enforce_memory: bool = True,
    ):
        self.spec = spec
        self.executor = executor
        self.enforce_memory = enforce_memory
        self.counters = Counters()
        self.simulated_time = 0

    # ------------------------------------------------------------------ #

    # -- batch-round cost model (shared by round_batch and the fused  -- #
    # -- growing pipeline of repro.mr.emit / mrimpl.growing_mr)       -- #

    def check_total_memory(self, num_pairs: int, words_per_pair: int) -> None:
        """Raise when a round's pair volume exceeds ``M_T``."""
        if (
            self.enforce_memory
            and num_pairs * words_per_pair > self.spec.total_memory
        ):
            raise MemoryLimitExceeded(
                num_pairs * words_per_pair, self.spec.total_memory
            )

    def check_local_memory(
        self, summary: GroupSummary, words_per_pair: int
    ) -> None:
        """Raise when the round's largest reducer group exceeds ``M_L``."""
        worst = summary.max_count * words_per_pair
        if self.enforce_memory and worst > self.spec.local_memory:
            raise MemoryLimitExceeded(
                worst, self.spec.local_memory, summary.max_key
            )

    def account_batch_round(self, messages: int, summary: GroupSummary) -> None:
        """One batch round's counters + hash-partitioned critical path.

        This is the *single* definition of the batch cost model: both
        :meth:`round_batch` and the fused growing pipeline account
        through it, each handing over the :class:`GroupSummary` of its
        own groups, so the two paths cannot drift apart.
        """
        self.counters.record_round(messages=messages, updates=0)
        self.simulated_time += summary.max_load

    def round_batch(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        reducer: BatchReducer,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Execute one MR round over an integer-keyed array batch.

        ``keys`` is an ``int64`` array of reducer keys (one per pair) and
        ``values`` a ``float64`` matrix with the corresponding payload
        rows.  Values reach the reducer grouped by key *in input order*
        (a stable argsort shuffle).  Returns the output batch as
        ``(out_keys, out_values)``.

        Accounting: one round, one message per input pair, a memory word
        per key plus one per payload column, and a simulated critical
        path equal to the busiest worker's input + output pairs under
        the hash partitioner of :mod:`repro.mr.partitioner`.
        """
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        if len(keys) != len(values):
            raise ValueError("keys and values must have one row per pair")
        width = values.shape[1]
        words_per_pair = 1 + max(width, 1)
        self.check_total_memory(len(keys), words_per_pair)

        shuffle_start = perf_counter()
        if len(keys):
            group_keys, offsets, sorted_values = _group_batch(keys, values)
            counts = np.diff(offsets)
        else:
            group_keys = np.empty(0, dtype=np.int64)
            counts = np.empty(0, dtype=np.int64)
        summary = GroupSummary.of(group_keys, counts)
        self.check_local_memory(summary, words_per_pair)

        reduce_start = perf_counter()
        self.counters.add_time("shuffle", reduce_start - shuffle_start)
        if len(group_keys) == 0:
            out_keys = np.empty(0, dtype=np.int64)
            out_values = np.empty((0, width), dtype=np.float64)
            out_counts = np.empty(0, dtype=np.int64)
        else:
            out_keys, out_values, out_counts = reducer(
                group_keys, offsets, sorted_values
            )
        self.counters.add_time("reduce", perf_counter() - reduce_start)

        summary.max_load = max_worker_load(
            group_keys, counts + out_counts, self.spec.num_workers
        )
        self.account_batch_round(len(keys), summary)
        return out_keys, out_values
