"""The runtime layer: zero-copy graph storage + one algorithm dispatcher.

Two subsystems (see ``docs/architecture.md`` for the full picture):

* :mod:`repro.runtime.store` — :class:`GraphStore`, which converts any
  supported graph file once into the binary GraphStore container and
  memory-maps it read-only everywhere after, so repeated invocations and
  shard workers share the same page-cache bytes;
* :mod:`repro.runtime.registry` / :mod:`repro.runtime.runner` — the
  :data:`REGISTRY` of named algorithms and the :func:`run` dispatcher
  that replaces per-caller orchestration (graph loading, config
  building, executor selection, counter collection).

>>> from repro.runtime import run
>>> from repro.generators import mesh
>>> run("diameter", mesh(16, seed=1), tau=4, seed=1).value >= 0
True
"""

from repro.runtime.registry import (
    REGISTRY,
    AlgorithmRegistry,
    AlgorithmSpec,
    register,
)
from repro.runtime.runner import RunContext, RunResult, run
from repro.runtime.store import GraphStore, default_store, get_graph

__all__ = [
    "GraphStore",
    "default_store",
    "get_graph",
    "AlgorithmRegistry",
    "AlgorithmSpec",
    "REGISTRY",
    "register",
    "RunContext",
    "RunResult",
    "run",
]
