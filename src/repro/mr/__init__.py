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

from repro._lazy import lazy_exports

_EXPORTS = {
    "MRSpec": "repro.mr.model",
    "Counters": "repro.mr.metrics",
    "RoundTrace": "repro.mr.trace",
    "RoundRecord": "repro.mr.trace",
    "MREngine": "repro.mr.engine",
    "hash_partition": "repro.mr.partitioner",
    "hash_partition_array": "repro.mr.partitioner",
    "make_executor": "repro.mr.executor",
    "EXECUTOR_NAMES": "repro.mr.executor",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
