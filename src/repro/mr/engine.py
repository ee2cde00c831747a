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
from typing import Callable, Tuple

import numpy as np

from repro.errors import MemoryLimitExceeded
from repro.mr import native as _native
from repro.mr.metrics import Counters
from repro.mr.model import MRSpec
from repro.mr.partitioner import hash_partition_array

__all__ = ["MREngine", "BatchReducer"]

#: A batch reducer maps grouped ``(keys, offsets, values)`` arrays to an
#: output batch ``(out_keys, out_values, out_counts)`` — see
#: :mod:`repro.mr.batch` for the full protocol.
BatchReducer = Callable[
    [np.ndarray, np.ndarray, np.ndarray],
    Tuple[np.ndarray, np.ndarray, np.ndarray],
]


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
        # Per-worker load scratch for the native critical-path
        # accounting (all-zero between rounds).
        self._loads: np.ndarray = None

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
        self, group_keys: np.ndarray, counts: np.ndarray, words_per_pair: int
    ) -> None:
        """Raise when the largest reducer group exceeds ``M_L``."""
        if self.enforce_memory and len(group_keys):
            worst = int(counts.max()) * words_per_pair
            if worst > self.spec.local_memory:
                bad = int(group_keys[int(np.argmax(counts))])
                raise MemoryLimitExceeded(worst, self.spec.local_memory, bad)

    def account_batch_round(
        self,
        messages: int,
        group_keys: np.ndarray,
        counts: np.ndarray,
        out_counts,
    ) -> None:
        """One batch round's counters + hash-partitioned critical path.

        ``out_counts`` is the per-group output size (an array, or a
        scalar for reducers that emit exactly one row per group).  This
        is the *single* definition of the batch cost model: both
        :meth:`round_batch` and the fused growing pipeline account
        through it, so the two paths cannot drift apart.
        """
        self.counters.record_round(messages=messages, updates=0)
        if group_keys is not None and len(group_keys):
            if _native.use_native():
                # Fused hash-route + weighted max-load in one C pass
                # (the mix matches hash_partition_array bit for bit,
                # and int64 accumulation equals the float bincount for
                # any realistic load sum).
                if self._loads is None or len(self._loads) < self.spec.num_workers:
                    self._loads = np.zeros(self.spec.num_workers, dtype=np.int64)
                weights = np.add(counts, out_counts, dtype=np.int64)
                self.simulated_time += _native.partition_loads(
                    group_keys, weights, self.spec.num_workers, self._loads
                )
                return
            workers = hash_partition_array(group_keys, self.spec.num_workers)
            loads = np.bincount(
                workers,
                weights=counts + out_counts,
                minlength=self.spec.num_workers,
            )
            self.simulated_time += int(loads.max())

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
            self.check_local_memory(group_keys, counts, words_per_pair)
        else:
            group_keys = np.empty(0, dtype=np.int64)
            counts = np.empty(0, dtype=np.int64)

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

        self.account_batch_round(len(keys), group_keys, counts, out_counts)
        return out_keys, out_values
