"""Execution backends for the MR engine.

Every engine round is a batch round (see :mod:`repro.mr.batch`): the
batch reducer runs in the engine's process, and an executor only
decides who owns the growing state of the Δ-growing steps.  Two
backends are selectable by name (:data:`EXECUTOR_NAMES`):

* ``vector`` — the engine with no executor object: the growing step
  runs on :class:`~repro.mrimpl.growing_mr.ArrayGrowingState` over the
  whole graph, in-process.  This is the fast single-host backend
  (``--executor vector``).
* ``sharded`` — the owner-compute
  :class:`~repro.mr.sharded.ShardedExecutor`: persistent workers own a
  node range (memory-mapping their shard of a partitioned GraphStore)
  and rounds exchange only the candidates that cross shard boundaries.

The paper-literal per-key simulation of the MR(M_T, M_L) model is not a
runtime backend; it lives in the test suite as the reference the merge
and emit parity suites compare against (``docs/mr_model.md`` §3).
"""

from __future__ import annotations

from typing import Optional

__all__ = ["make_executor", "EXECUTOR_NAMES"]

#: CLI/config names of the selectable backends.
EXECUTOR_NAMES = ("vector", "sharded")


def make_executor(name: str, *, shards: Optional[int] = None):
    """Build an executor from its CLI/config name.

    ``vector`` is the engine's default (``None``: no executor object),
    ``sharded`` the owner-compute backend of :mod:`repro.mr.sharded`
    (persistent shard-owning workers, boundary-only exchange; ``shards``
    sets the shard count, defaulting to the CPU count).  Raises
    ``ValueError`` on any other name.
    """
    if name == "vector":
        return None
    if name == "sharded":
        from repro.mr.sharded import ShardedExecutor

        return ShardedExecutor(num_shards=shards)
    raise ValueError(
        f"unknown executor {name!r}; expected one of {', '.join(EXECUTOR_NAMES)}"
    )
