"""O(C) scatter-min kernel for the growing-step merge.

The Δ-growing step's merge half — "per target node, keep the winning
``(distance, center, arrival)`` candidate" — is naturally a sort:
group the candidate batch with a stable ``np.argsort``, then resolve
each group with an ``np.lexsort`` over the tie-break columns
(:func:`repro.mr.batch.group_min_first`).  Sorting costs
``O(C log C)`` per round and, at R-MAT(18) scale, would dominate the
whole clustering wall-clock.  :func:`scatter_min_rows` computes the
*same* winners in ``O(C)`` data movement:

1. scatter-min the distance column per target (``np.minimum.at`` on a
   dense per-target buffer);
2. restrict to the rows achieving their target's minimum distance and
   scatter-min the center column among them;
3. among full ``(distance, center)`` ties, keep the earliest arrival —
   a scatter-min over the *row index*, which is exactly the "stable
   first" rule of the sorting formulation.

Because each pass narrows the candidate set by exact equality against
the per-target minimum, the surviving row is the lexicographic minimum
— bit-identical to the sort-based tie-break (the property suite in
``tests/mr/test_kernels.py`` pits the kernel against the
:func:`~repro.mr.batch.group_min_first` oracle, which is kept unchanged
for exactly that purpose).  The kernel assumes NaN-free columns; the
growing step only produces finite candidate rows.

Candidates stay in arrival order and the reduction scatters into dense
per-target buffers (:class:`ScatterScratch`, preallocated once and
reset only on the touched targets, so rounds cost O(candidates)
regardless of ``n``).  The native tier (``rk_scatter_min_rows``)
computes the same winners in one pass over a per-id ``(stamp, winner
row)`` table and returns the distinct ids through an O(ids) radix sort.
This is the merge of the vector backend's fused pipeline, the core
path's step, and the sharded workers' resident merge.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.mr import native as _native

__all__ = [
    "ScatterScratch",
    "scatter_min_rows",
]

#: "No row yet" sentinel of the first-arrival scatter pass.
_ROW_SENTINEL = np.iinfo(np.int64).max


class ScatterScratch:
    """Reusable dense buffers for the ungrouped scatter-min kernels.

    The pure tier keeps one buffer per tie-break column plus one int64
    row buffer, each of the id-domain size.  The native tier keeps none
    of those: its single pass reads one interleaved ``(stamp, winner
    row)`` int64 table per id (``2 * domain`` entries; a stamp equal
    to the call's generation marks an id seen this call, so the table
    never needs a reset) and compares incoming rows against the winner
    row's own columns, plus the distinct-id/row output buffers its
    radix sort ping-pongs through.  Buffers are allocated on first use
    by the tier that needs them and grown monotonically (the pure
    tier's with ``np.empty`` — every call writes its touched ids before
    reading them), so a state that keeps one scratch across rounds
    performs zero per-round allocation on the dense side.
    """

    __slots__ = ("_cols", "_rows", "_size", "_table", "_gen", "_out")

    def __init__(self) -> None:
        self._cols: List[np.ndarray] = []
        self._rows: Optional[np.ndarray] = None
        self._size = 0
        self._table: Optional[np.ndarray] = None
        self._gen = 0
        self._out: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def ensure(
        self, domain: int, ncols: int
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """Return ``ncols`` float64 buffers plus the row buffer, each ≥ ``domain``."""
        if domain > self._size:
            self._size = int(domain)
            self._cols = [np.empty(self._size) for _ in self._cols]
            self._rows = np.empty(self._size, dtype=np.int64)
        while len(self._cols) < ncols:
            self._cols.append(np.empty(self._size))
        if self._rows is None:
            self._rows = np.empty(self._size, dtype=np.int64)
        return self._cols[:ncols], self._rows

    def ensure_native(self, domain: int):
        """``(table, gen, out_ids, out_rows)`` for the native kernel."""
        if self._table is None or len(self._table) < 2 * domain:
            self._table = np.zeros(2 * int(domain), dtype=np.int64)
            self._gen = 0  # fresh zeros can never equal a positive gen
            self._out = (
                np.empty(domain, dtype=np.int64),
                np.empty(domain, dtype=np.int64),
            )
        self._gen += 1
        return self._table, self._gen, self._out[0], self._out[1]


def scatter_min_rows(
    ids: np.ndarray,
    cols: Sequence[np.ndarray],
    *,
    domain: int,
    scratch: Optional[ScatterScratch] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Winning row per distinct id, without grouping or sorting the rows.

    ``ids`` are int64 in ``[0, domain)`` (one per candidate row, in
    arrival order) and ``cols`` the tie-break columns in priority order;
    the winner of an id is the row minimizing
    ``(cols[0], cols[1], ..., arrival index)`` — the paper's relaxation
    tie-break when called with ``(distance, center)``.  Columns must be
    float64 (cast integer columns first; ids fit exactly) and NaN-free.

    Each pass resets the dense buffer only on the ids present in the
    batch, scatter-mins the column, and keeps the rows that achieve
    their id's minimum — so total work is O(rows · columns), independent
    of ``domain``.  Returns ``(distinct ids ascending, winner row per
    id)``.
    """
    scratch = scratch if scratch is not None else ScatterScratch()
    num_rows = len(ids)
    if num_rows == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if len(cols) <= 3 and _native.use_native():
        return _native.scatter_min_rows(
            ids, cols, domain=domain, scratch=scratch
        )
    col_bufs, row_buf = scratch.ensure(domain, len(cols))

    rows: Optional[np.ndarray] = None  # None = all rows still alive
    sub_ids = ids
    for col, buf in zip(cols, col_bufs):
        if rows is not None:
            col = col[rows]
        buf[sub_ids] = np.inf
        np.minimum.at(buf, sub_ids, col)
        keep = col == buf[sub_ids]
        rows = np.flatnonzero(keep) if rows is None else rows[keep]
        sub_ids = ids[rows]
    if rows is None:  # no tie-break columns: earliest arrival wins outright
        rows = np.arange(num_rows, dtype=np.int64)
        sub_ids = ids

    row_buf[sub_ids] = _ROW_SENTINEL
    np.minimum.at(row_buf, sub_ids, rows)
    winners = rows[row_buf[sub_ids] == rows]
    winner_ids = ids[winners]
    order = np.argsort(winner_ids)  # distinct ids: tiny vs the row count
    return winner_ids[order], winners[order]
