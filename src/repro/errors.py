"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphFormatError",
    "GraphValidationError",
    "CorruptArtifact",
    "MemoryLimitExceeded",
    "ConfigurationError",
    "CheckpointError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphFormatError(ReproError):
    """Raised when parsing a graph file fails (bad header, bad record, ...)."""


class CorruptArtifact(GraphFormatError):
    """An on-disk artifact failed an integrity check.

    Raised when a file that *identifies* as one of ours (store magic,
    shard manifest, checkpoint round) fails structural validation or a
    digest comparison — as opposed to :class:`GraphFormatError` proper,
    which also covers "this is simply not our format".  Subclassing
    keeps every existing ``except GraphFormatError`` recovery path
    working while letting the quarantine layer react only to artifacts
    it positively knows are damaged.

    ``quarantined`` is filled in by the layer that moved the artifact
    into its ``.quarantine/`` directory, when that happened.
    """

    def __init__(
        self,
        path: object,
        *,
        kind: str = "store",
        detail: str = "",
        quarantined: object = None,
    ):
        self.path = str(path)
        self.kind = kind
        self.detail = detail
        self.quarantined = str(quarantined) if quarantined else None
        message = f"corrupt {kind} {self.path}: {detail or 'integrity check failed'}"
        if self.quarantined:
            message += f" (quarantined to {self.quarantined})"
        super().__init__(message)


class GraphValidationError(ReproError):
    """Raised when a graph violates a structural invariant.

    Examples include negative edge weights, out-of-range endpoints, or an
    inconsistent CSR layout.
    """


class MemoryLimitExceeded(ReproError):
    """Raised by the MR engine when a reducer exceeds its local memory M_L.

    The MR(M_T, M_L) model of Pietracaprina et al. requires every reducer to
    work within ``M_L`` memory words.  The simulator enforces the constraint
    and raises this error so that violations are caught in tests rather than
    silently ignored.
    """

    def __init__(self, used: int, limit: int, key: object = None):
        self.used = int(used)
        self.limit = int(limit)
        self.key = key
        suffix = f" (reducer key {key!r})" if key is not None else ""
        super().__init__(
            f"reducer used {used} memory words, exceeding local limit M_L={limit}{suffix}"
        )


class ConfigurationError(ReproError):
    """Raised when algorithm parameters are invalid or inconsistent."""


class CheckpointError(ReproError):
    """Raised when a checkpoint cannot be written, read, or trusted.

    A *stale* checkpoint (store signature or config changed since it was
    written) is skipped rather than raised during recovery; this error
    surfaces only genuine corruption or an explicitly-requested resume
    that cannot be honoured.
    """
