"""Deterministic fault injection for the data and process planes.

``REPRO_FAULT_PLAN`` names a schedule of faults executed at exact
ordinals, so the crash/resume *and* corruption test matrices are
reproducible down to the round::

    REPRO_FAULT_PLAN="kill:shard=driver,round=9"
    REPRO_FAULT_PLAN="corrupt:target=ckpt,round=4;enospc:target=store,round=1"

Actions:

``kill:shard=driver,round=<r>``
    Kill the driver process (``os._exit(1)``, no cleanup — as a
    SIGKILL would) at growing-step ``r``; only a durable checkpoint and
    ``repro run --resume`` survive it.  Shard workers run inside the
    driver, so ``driver`` is the only shard a plan can kill.
``ioerror:target=<store|ckpt>,round=<r>`` / ``enospc:target=...``
    Raise ``OSError(EIO)`` / ``OSError(ENOSPC)`` at the start of the
    targeted write: checkpoint round ``r`` for ``ckpt``, the ``r``-th
    ``write_store`` call of the process (1-based) for ``store``.
``corrupt:target=<store|ckpt>,round=<r>``
    Flip one payload byte in the artifact *after* it publishes — the
    deterministic stand-in for silent media corruption that the verify
    / quarantine machinery must catch.

Each entry fires **once per process**: the plan is consumed as it
triggers.  A resumed *process* starts with a fresh plan — resume tests
unset the variable.  A malformed plan is a
:class:`~repro.errors.ConfigurationError` naming the variable.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "get_fault_plan",
    "maybe_kill_driver",
    "reset_fault_plan",
    "store_write_ordinal",
]

FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: The one shard a ``kill:`` entry can name: the driver process itself.
DRIVER = "driver"

_ACTIONS = ("kill", "corrupt", "ioerror", "enospc")
_TARGETS = ("store", "ckpt")


def _invalid(message: str) -> ConfigurationError:
    return ConfigurationError(f"{FAULT_PLAN_ENV}: {message}")


class FaultPlan:
    """Parsed, one-shot-per-entry fault schedule."""

    def __init__(self, raw: str):
        self.raw = raw
        #: (action, subject, round) -> entry dict; subject is ``DRIVER``
        #: for kill, a target name otherwise.
        self._entries: Dict[Tuple[str, object, int], dict] = {}
        self._consumed: set = set()
        for entry in raw.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            action, _, params = entry.partition(":")
            action = action.strip()
            if action not in _ACTIONS:
                raise _invalid(
                    f"unsupported fault action {action!r} in plan {raw!r}"
                )
            shard: Optional[str] = None
            rnd: Optional[int] = None
            target: Optional[str] = None
            for field in params.split(","):
                key, _, value = field.partition("=")
                key = key.strip()
                value = value.strip()
                if key == "shard":
                    if value != DRIVER:
                        raise _invalid(
                            f"shard={value} in plan {raw!r}: shard workers "
                            f"run in the driver, only shard={DRIVER} dies"
                        )
                    shard = value
                elif key == "round":
                    try:
                        rnd = int(value)
                    except ValueError:
                        raise _invalid(
                            f"round={value!r} in plan {raw!r} is not an "
                            "integer"
                        ) from None
                elif key == "target":
                    if value not in _TARGETS:
                        raise _invalid(
                            f"unknown fault target {value!r} in plan {raw!r}"
                        )
                    target = value
                else:
                    raise _invalid(
                        f"unknown fault field {key!r} in plan {raw!r}"
                    )
            if rnd is None:
                raise _invalid(f"fault entry {entry!r} needs round=")
            if action == "kill":
                if shard is None:
                    raise _invalid(f"fault entry {entry!r} needs shard=")
                subject: object = shard
            else:
                if target is None:
                    raise _invalid(f"fault entry {entry!r} needs target=")
                subject = target
            self._entries[(action, subject, rnd)] = {
                "action": action,
                "subject": subject,
                "round": rnd,
            }

    def _consume(self, key: Tuple[str, object, int]) -> Optional[dict]:
        entry = self._entries.get(key)
        if entry is None or key in self._consumed:
            return None
        self._consumed.add(key)
        return entry

    def driver_kill(self, ordinal: int) -> bool:
        """Consume and return whether the driver dies at this ordinal."""
        return self._consume(("kill", DRIVER, ordinal)) is not None

    def io_fault(self, target: str, ordinal: int) -> Optional[str]:
        """Consume a scheduled I/O failure for ``target`` at this ordinal.

        Returns ``"ioerror"`` or ``"enospc"`` (the caller raises the
        matching ``OSError``), or ``None``.
        """
        for action in ("ioerror", "enospc"):
            if self._consume((action, target, ordinal)) is not None:
                return action
        return None

    def corrupt_fault(self, target: str, ordinal: int) -> bool:
        """Consume and return whether to corrupt ``target`` at this ordinal."""
        return self._consume(("corrupt", target, ordinal)) is not None


_plan: Optional[FaultPlan] = None
_store_writes: int = 0


def store_write_ordinal(advance: bool = False) -> int:
    """The process-wide ``write_store`` ordinal (1-based) fault targets use.

    ``advance=True`` counts a new write and returns its ordinal; the
    corrupting post-publish hook re-reads the same ordinal with
    ``advance=False``.  Reset together with the plan.
    """
    global _store_writes
    if advance:
        _store_writes += 1
    return _store_writes


def get_fault_plan() -> Optional[FaultPlan]:
    """The process-wide plan for the current ``REPRO_FAULT_PLAN`` value.

    Re-parsed (with consumption state reset) whenever the env string
    changes; ``None`` when unset.  Tests that reuse one plan string
    across several runs in a single process must call
    :func:`reset_fault_plan` between runs.
    """
    global _plan
    raw = os.environ.get(FAULT_PLAN_ENV)
    if not raw:
        _plan = None
        return None
    if _plan is None or _plan.raw != raw:
        _plan = FaultPlan(raw)
    return _plan


def reset_fault_plan() -> None:
    """Forget consumption state so the plan can fire again (test helper)."""
    global _plan, _store_writes
    _plan = None
    _store_writes = 0


def maybe_kill_driver(ordinal: int, checkpoint=None) -> None:
    """Fire a scheduled ``shard=driver`` kill: ``os._exit(1)``, no cleanup.

    Called by the CLUSTER/CLUSTER2 driver loops at each growing-step
    ordinal.  ``os._exit`` skips atexit/finally exactly like a SIGKILL
    would, which is the point — the ``--resume`` tests want a driver
    death that only a durable checkpoint survives.

    ``checkpoint`` (a :class:`RunCheckpointer`), when given, is drained
    before the exit: the plan schedules kills in growing-step ordinals,
    and letting the write-behind publish land first keeps "which rounds
    are durable at ordinal R" deterministic instead of a race between
    the writer thread and the simulated death.
    """
    plan = get_fault_plan()
    if plan is not None and plan.driver_kill(ordinal):
        if checkpoint is not None:
            try:
                checkpoint.flush()
            except Exception:
                pass  # dying anyway; resume falls back to older rounds
        os._exit(1)
