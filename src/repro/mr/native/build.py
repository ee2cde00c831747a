"""Compile-on-demand for the native kernel library.

The native tier ships as one dependency-free C file (``_kernels.c``)
compiled into a shared library with whatever C compiler the host has
(``$CC``, else ``cc``, else ``gcc``) — no numba, no Cython, no
setuptools, so the tier costs nothing when it cannot be built: every
failure path returns ``None`` and the callers fall back to the pure
NumPy kernels.

The library is cached outside the source tree (``$REPRO_NATIVE_DIR``,
else ``~/.cache/repro-native``, else the system temp dir) under a name
derived from the source hash, so upgrades rebuild automatically and
concurrent builders (shard workers, parallel test runs) race benignly:
each compiles to a private temp file and ``os.replace``\\ s it into
place atomically.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Optional

from repro.errors import ConfigurationError

__all__ = [
    "NATIVE_DIR_ENV",
    "BUILD_TIMEOUT_ENV",
    "build_library",
    "build_timeout",
    "library_path",
]

#: Override for the build cache directory.
NATIVE_DIR_ENV = "REPRO_NATIVE_DIR"
#: Wall-clock limit (seconds) on one compiler invocation; a hung
#: toolchain degrades to the pure tier instead of wedging the run.
BUILD_TIMEOUT_ENV = "REPRO_NATIVE_BUILD_TIMEOUT_S"

_SOURCE = Path(__file__).with_name("_kernels.c")
_CFLAGS = ("-O3", "-fPIC", "-shared", "-std=c11", "-fno-math-errno")


def build_timeout() -> float:
    """The compiler deadline in seconds (:data:`BUILD_TIMEOUT_ENV`, 120).

    Unset or empty means the default; anything but a positive finite
    number is a :class:`~repro.errors.ConfigurationError` naming the
    variable.
    """
    raw = os.environ.get(BUILD_TIMEOUT_ENV)
    if not raw:
        return 120.0
    try:
        timeout = float(raw)
    except ValueError:
        timeout = None
    if timeout is None or not 0 < timeout < float("inf"):
        raise ConfigurationError(
            f"{BUILD_TIMEOUT_ENV}={raw!r} is not a positive number of seconds"
        )
    return timeout


def _cache_dir() -> Path:
    override = os.environ.get(NATIVE_DIR_ENV)
    if override:
        return Path(override)
    home = Path.home()
    if os.access(home, os.W_OK):
        return home / ".cache" / "repro-native"
    return Path(tempfile.gettempdir()) / "repro-native"


def _compiler() -> Optional[str]:
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


def library_path() -> Path:
    """Deterministic cache path for the current source + platform."""
    digest = hashlib.sha256(
        _SOURCE.read_bytes() + repr((_CFLAGS, sys.platform)).encode()
    ).hexdigest()[:16]
    return _cache_dir() / f"repro_kernels_{digest}.so"


def build_library() -> Optional[Path]:
    """Return the compiled library path, building it if needed.

    ``None`` (with a one-line warning on the first failure) when no
    compiler is available or compilation fails — the caller degrades to
    the pure tier.
    """
    try:
        target = library_path()
        if target.exists():
            return target
        cc = _compiler()
        if cc is None:
            warnings.warn(
                "repro native kernels: no C compiler found; "
                "using the pure NumPy tier",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        # Host tuning first (the cache is per-machine); a compiler that
        # rejects -march=native gets a second, portable attempt.
        proc = None
        timeout = build_timeout()
        for extra in (("-march=native",), ()):
            cmd = [cc, *_CFLAGS, *extra, "-o", str(tmp), str(_SOURCE)]
            try:
                proc = subprocess.run(
                    cmd, capture_output=True, text=True, timeout=timeout
                )
            except subprocess.TimeoutExpired:
                warnings.warn(
                    f"repro native kernels: {cc} exceeded the "
                    f"{timeout:.0f}s build deadline "
                    f"({BUILD_TIMEOUT_ENV} to change); "
                    "using the pure NumPy tier",
                    RuntimeWarning,
                    stacklevel=2,
                )
                tmp.unlink(missing_ok=True)
                return None
            if proc.returncode == 0:
                break
        if proc is None or proc.returncode != 0:
            warnings.warn(
                "repro native kernels: compilation failed "
                f"({proc.stderr.strip().splitlines()[-1] if proc.stderr else cmd}); "
                "using the pure NumPy tier",
                RuntimeWarning,
                stacklevel=2,
            )
            tmp.unlink(missing_ok=True)
            return None
        os.replace(tmp, target)  # atomic: concurrent builders race benignly
        return target
    except Exception as exc:  # pragma: no cover - defensive
        warnings.warn(
            f"repro native kernels: build unavailable ({exc}); "
            "using the pure NumPy tier",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
