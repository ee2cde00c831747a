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

from repro._lazy import lazy_exports

#: Checkpoint cadence knob: an integer = every N engine rounds; ``<x>s``
#: = every x wall-clock seconds.  Unset/empty = checkpointing off.
#: :meth:`repro.runtime.checkpoint.CheckpointPolicy.parse` owns the
#: syntax; the name lives here so a run can see the knob is set without
#: importing the checkpoint module.
CHECKPOINT_EVERY_ENV = "REPRO_CHECKPOINT_EVERY"

_EXPORTS = {
    "GraphStore": "repro.runtime.store",
    "default_store": "repro.runtime.store",
    "get_graph": "repro.runtime.store",
    "AlgorithmRegistry": "repro.runtime.registry",
    "AlgorithmSpec": "repro.runtime.registry",
    "REGISTRY": "repro.runtime.registry",
    "register": "repro.runtime.registry",
    "RunContext": "repro.runtime.runner",
    "RunResult": "repro.runtime.runner",
    "run": "repro.runtime.runner",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
