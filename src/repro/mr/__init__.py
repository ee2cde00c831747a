"""Simulator of the MR(M_T, M_L) MapReduce model of Pietracaprina et al.

The paper analyses its algorithms on the MR(M_T, M_L) model: computation
proceeds in *rounds*; in each round a multiset of key-value pairs is
transformed by applying a reducer independently to each same-key group,
subject to a total-memory budget ``M_T`` and a per-reducer local-memory
budget ``M_L``.  This package provides:

* :class:`~repro.mr.model.MRSpec` — the ``(M_T, M_L)`` parameters;
* :class:`~repro.mr.engine.MREngine` — a round-by-round executor that
  runs batch rounds, enforces the memory budgets and counts rounds and
  messages;
* :mod:`~repro.mr.metrics` — the platform-independent counters the paper
  reports (rounds, work = node updates + messages);
* :mod:`~repro.mr.batch` — the array-valued batch reducer protocol of the
  vectorized shuffle (``MREngine.round_batch``);
* :mod:`~repro.mr.kernels` — the O(candidates) scatter-min merge kernel
  of the growing step;
* :mod:`~repro.mr.executor` — ``make_executor`` for the two backends:
  ``vector`` (the engine alone) and the owner-compute ``sharded``
  backend of :mod:`~repro.mr.sharded`.

The literal per-key simulation of the model (one Python reducer call
per key) is a test oracle, not a backend: it lives in the test suite
(``docs/mr_model.md`` §3).
"""

from repro.mr.model import MRSpec
from repro.mr.metrics import Counters
from repro.mr.trace import RoundTrace, RoundRecord
from repro.mr.engine import MREngine
from repro.mr.partitioner import hash_partition, hash_partition_array
from repro.mr.executor import EXECUTOR_NAMES, make_executor

__all__ = [
    "MRSpec",
    "Counters",
    "RoundTrace",
    "RoundRecord",
    "MREngine",
    "hash_partition",
    "hash_partition_array",
    "make_executor",
    "EXECUTOR_NAMES",
]
