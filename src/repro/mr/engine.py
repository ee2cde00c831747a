"""Round-by-round executor for the MR(M_T, M_L) model.

A round transforms a multiset of ``(key, value)`` pairs by grouping on the
key and applying a reducer function to every group independently.  The
engine enforces the model's memory budgets, counts rounds and messages,
and — through a pluggable executor — simulates the per-round critical path
of a ``num_workers``-machine platform (the quantity Figure 4's scalability
experiment measures).
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Hashable, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import MemoryLimitExceeded
from repro.mr import native as _native
from repro.mr.executor import SerialExecutor
from repro.mr.metrics import Counters
from repro.mr.model import MRSpec
from repro.mr.partitioner import hash_partition, hash_partition_array

__all__ = ["MREngine", "Pair", "Reducer", "BatchReducer"]

Pair = Tuple[Hashable, object]
#: A reducer maps ``(key, values)`` to an iterable of output pairs.
Reducer = Callable[[Hashable, List[object]], Iterable[Pair]]
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


def _pair_words(value: object) -> int:
    """Approximate memory footprint of one pair in machine words.

    A pair costs one word for the key plus one word per scalar in the
    value.  Tuples/lists are costed by length; everything else is one word.
    This coarse model is exactly what the MR(M_T, M_L) analysis assumes.
    """
    if isinstance(value, (tuple, list)):
        return 1 + len(value)
    return 2


class MREngine:
    """Executes MR rounds under an :class:`MRSpec` with full accounting.

    Parameters
    ----------
    spec:
        Memory/worker parameters.
    executor:
        Strategy that applies reducers to key groups; defaults to
        :class:`~repro.mr.executor.SerialExecutor`.
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
        self.executor = executor if executor is not None else SerialExecutor()
        self.enforce_memory = enforce_memory
        self.counters = Counters()
        self.simulated_time = 0
        # Per-worker load scratch for the native critical-path
        # accounting (all-zero between rounds).
        self._loads: np.ndarray = None

    # ------------------------------------------------------------------ #

    def round(
        self,
        pairs: Sequence[Pair],
        reducer: Reducer,
        *,
        combiner: Reducer = None,
    ) -> List[Pair]:
        """Execute one MR round and return the output multiset.

        Grouping is stable: values arrive at the reducer in input order,
        which lets deterministic algorithms avoid spurious tie-break
        differences between runs.

        ``combiner``, when given, is applied per key *before* the shuffle
        (the classic map-side aggregation optimization): the engine counts
        only the combined pairs as shuffled messages, and the local-memory
        check applies to the combined groups.  The combiner must be
        semantically idempotent with respect to the reducer
        (``reducer ∘ combiner ≡ reducer``); word-count's ``sum`` is the
        canonical example.
        """
        if combiner is not None:
            pre: Dict[Hashable, List[object]] = {}
            for key, value in pairs:
                pre.setdefault(key, []).append(value)
            combined: List[Pair] = []
            for key, values in pre.items():
                combined.extend(combiner(key, values))
            pairs = combined

        shuffle_start = perf_counter()
        groups: Dict[Hashable, List[object]] = {}
        total_words = 0
        for key, value in pairs:
            groups.setdefault(key, []).append(value)
            total_words += _pair_words(value)

        if self.enforce_memory and total_words > self.spec.total_memory:
            raise MemoryLimitExceeded(total_words, self.spec.total_memory)
        if self.enforce_memory:
            for key, values in groups.items():
                words = sum(_pair_words(v) for v in values)
                if words > self.spec.local_memory:
                    raise MemoryLimitExceeded(words, self.spec.local_memory, key)

        reduce_start = perf_counter()
        self.counters.add_time("shuffle", reduce_start - shuffle_start)
        output, worker_loads = self.executor.run(
            groups, reducer, self.spec.num_workers
        )
        self.counters.add_time("reduce", perf_counter() - reduce_start)

        self.counters.record_round(messages=len(pairs), updates=0)
        self.simulated_time += max(worker_loads) if worker_loads else 0
        return output

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

    @property
    def supports_batch(self) -> bool:
        """Whether drivers should use the array-valued batch layout.

        True for executors marked ``batch_rounds`` (``VectorExecutor``,
        ``ShardedExecutor``); the others keep the literal per-key pair
        simulation.  ``round_batch`` itself works on every engine — the
        batch reducer always runs in the engine's process.
        """
        return getattr(self.executor, "batch_rounds", False)

    def round_batch(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        reducer: BatchReducer,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Execute one MR round over an integer-keyed array batch.

        The vectorized counterpart of :meth:`round`: ``keys`` is an
        ``int64`` array of reducer keys (one per pair) and ``values`` a
        ``float64`` matrix with the corresponding payload rows.  Values
        reach the reducer grouped by key *in input order* (a stable
        argsort shuffle), the same stability guarantee the dict-of-lists
        grouping provides.  Returns the output batch as ``(out_keys,
        out_values)``.

        Accounting matches :meth:`round` structurally: one round, one
        message per input pair, a memory word per key plus one
        per payload column (the tuple cost model of ``_pair_words``), and
        a simulated critical path equal to the busiest worker's input +
        output pairs under the same hash partitioner as the per-key path.
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

    def run_rounds(
        self, pairs: Sequence[Pair], reducers: Sequence[Reducer]
    ) -> List[Pair]:
        """Thread ``pairs`` through a fixed pipeline of reducers."""
        for reducer in reducers:
            pairs = self.round(pairs, reducer)
        return list(pairs)

    def run_until_fixpoint(
        self,
        pairs: Sequence[Pair],
        reducer: Reducer,
        *,
        max_rounds: int = 10_000,
        key=None,
    ) -> List[Pair]:
        """Apply ``reducer`` repeatedly until the output stabilizes.

        Stability is judged on the sorted pair multiset (using ``key`` for
        ordering if pairs are not naturally comparable).  Raises
        :class:`~repro.errors.ConvergenceError` after ``max_rounds``.
        """
        from repro.errors import ConvergenceError

        def canon(ps):
            return sorted(ps, key=key) if key else sorted(ps)

        current = list(pairs)
        current_canon = canon(current)
        for _ in range(max_rounds):
            nxt = self.round(current, reducer)
            nxt_canon = canon(nxt)
            if nxt_canon == current_canon:
                return nxt
            current, current_canon = nxt, nxt_canon
        raise ConvergenceError(f"no fixpoint within {max_rounds} rounds")

    # ------------------------------------------------------------------ #

    def worker_of(self, key: Hashable) -> int:
        """Worker a key would be routed to (exposed for tests/inspection)."""
        return hash_partition(key, self.spec.num_workers)
