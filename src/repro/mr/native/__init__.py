"""Native kernel tier: compiled hot kernels + threaded emit.

``REPRO_KERNEL_IMPL=py|native|auto`` selects the implementation tier for
the Δ-growing hot kernels (push/pull emit with the improvement
pre-filter, ``scatter_min_rows``, the distinct-key count, and the
frozen-replay histogram) and for CL-DIAM's quotient-diameter Dijkstra
(:func:`quotient_ecc`, whose pure tier is scipy's — so a native-tier
run never imports scipy).
``auto`` (the default) uses the native tier whenever the shared library
can be built and loaded (see :mod:`repro.mr.native.build`), degrading
silently to the pure NumPy tier otherwise — the pure implementations
always remain and stay the parity oracle.  ``REPRO_KERNEL_IMPL=py``
is the one spelling of "use the pure tier": it never builds or loads
the library (the no-toolchain CI job runs the suite under it).

Like ``REPRO_EMIT_MODE``, the switches are read from the environment
**per call**, so benchmarks and the parity suites flip tiers between
runs in one process, and forked shard workers receive the active tier
through the environment snapshot the driver ships on every reset.
:func:`impl_overrides` is the config-plumbing entry (used by
``repro.runtime.runner``): it applies :class:`ClusterConfig` overrides
by setting the environment for the run's duration, which is what makes
them visible to executors forked during the run.

Threaded emit
-------------
``ClusterConfig.emit_threads`` / ``REPRO_EMIT_THREADS`` (default
``os.cpu_count()``) set how many threads the native emit expansion may
use.  The model is deterministic by construction: the frontier (push)
or arc range (pull) is split into contiguous chunks, each chunk's
kernel writes into a **disjoint region** of the shared output banks
(regions sized by the chunk's degree-sum upper bound), and a final
order-preserving compaction (``rk_compact``) packs the regions — so the
candidate columns are bit-identical to the single-threaded pass for
*any* thread count.  ctypes releases the GIL around every kernel call,
which is what lets the chunks run concurrently.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from threading import Lock
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.mr.native.build import NATIVE_DIR_ENV, build_library

__all__ = [
    "KERNEL_IMPL_ENV",
    "EMIT_THREADS_ENV",
    "NATIVE_DIR_ENV",
    "KERNEL_IMPLS",
    "THREAD_MIN_ARCS",
    "requested_impl",
    "kernel_impl",
    "use_native",
    "native_available",
    "emit_threads",
    "impl_overrides",
    "resolved_info",
    "quotient_ecc",
]

#: Implementation-tier switch: ``py`` | ``native`` | ``auto`` (default).
KERNEL_IMPL_ENV = "REPRO_KERNEL_IMPL"

#: Thread count for the chunked emit expansion (default: CPU count).
EMIT_THREADS_ENV = "REPRO_EMIT_THREADS"

KERNEL_IMPLS = ("py", "native", "auto")

#: Below this many expanded arcs a round is emitted single-threaded —
#: chunk dispatch overhead would dominate skinny frontiers.
THREAD_MIN_ARCS = 4096

_lib: Optional[ctypes.CDLL] = None
_lib_failed = False
_lib_lock = Lock()

_P = ctypes.c_void_p
_I = ctypes.c_int64
_D = ctypes.c_double

_SIGNATURES = {
    # ids, n, c0, s0, c1, s1, c2, s2, ncols, b0, b1, b2, brow, stamp,
    # gen, out_ids, out_rows -> distinct
    "rk_scatter_min_rows": (
        [_P, _I, _P, _I, _P, _I, _P, _I, _I, _P, _P, _P, _P, _P, _I, _P, _P],
        _I,
    ),
    "rk_count_keys": ([_P, _I, _P, _P, _P], _I),
    "rk_bincount": ([_P, _I, _P], None),
    "rk_emit_push": ([_P, _P, _P, _P, _P, _I, _D, _P, _P, _P, _P], _I),
    "rk_emit_pull": ([_P, _P, _P, _I, _I, _P, _P, _D, _I, _P, _P, _P, _P], _I),
    "rk_compact": ([_P, _P, _P, _P, _P, _P, _I], _I),
    "rk_filter_improve": (
        [_P, _P, _P, _P, _I, _P, _P, _P, _P, _P, _P, _P, _P, _P, _P],
        _I,
    ),
    # keys, nd, src, aidx, n, dist, frozen, weights, center,
    # hist, gk, gc, do_acct, ngroups, f_* banks -> kept
    "rk_finish_batch": (
        [_P, _P, _P, _P, _I, _P, _P, _P, _P, _P, _P, _P, _I, _P,
         _P, _P, _P, _P, _P, _P],
        _I,
    ),
    "rk_begin_stage": ([_P, _I, _P, _P, _P, _P, _P], None),
    "rk_freeze_assigned": ([_P, _I, _I, _P, _P, _P], _I),
    "rk_forced_sets": ([_P, _P, _P, _P, _I, _D, _P, _P], _I),
    "rk_cache_append": ([_P, _P, _P, _I, _I, _I, _P, _P, _P, _P, _I], _I),
    # indptr, indices, weights, src_ids, nsrc, delta, lo, hi, owners,
    # localidx, shard, hist, ck, cs, ca, pos, total_out -> appended
    "rk_cache_emit": (
        [_P, _P, _P, _P, _I, _D, _I, _I, _P, _P, _I,
         _P, _P, _P, _P, _I, _P],
        _I,
    ),
    "rk_cache_retire": ([_P, _P, _P, _I, _P, _I, _P], _I),
    "rk_partition_loads": ([_P, _I, _P, _I, _P], _I),
    "rk_cache_replay": ([_P, _P, _P, _I, _P, _P, _P, _P, _P, _P], _I),
    "rk_materialize": ([_P, _P, _I, _P, _P, _P, _P, _P], None),
    "rk_core_emit_push": (
        [_P, _P, _P, _P, _P, _I, _D, _P, _P, _P, _P, _P, _P, _P],
        _I,
    ),
    "rk_core_emit_pull": (
        [_P, _P, _P, _I, _P, _P, _D, _P, _P, _P, _P, _P, _P, _P],
        _I,
    ),
    # indptr, indices, weights, sources, nsources, skip_reached, dist,
    # touched, heap_d, heap_v -> largest finite distance
    "rk_quotient_ecc": ([_P, _P, _P, _P, _I, _I, _P, _P, _P, _P], _D),
}


def _load() -> Optional[ctypes.CDLL]:
    """The bound shared library, building it on first use; ``None`` on failure."""
    global _lib, _lib_failed
    if _lib is not None:
        return _lib
    if _lib_failed:
        return None
    with _lib_lock:
        if _lib is not None or _lib_failed:
            return _lib
        path = build_library()
        if path is None:
            _lib_failed = True
            return None
        try:
            lib = ctypes.CDLL(str(path))
            for name, (argtypes, restype) in _SIGNATURES.items():
                fn = getattr(lib, name)
                fn.argtypes = argtypes
                fn.restype = restype
        except (OSError, AttributeError):
            _lib_failed = True
            return None
        _lib = lib
        return _lib


# -- resolution --------------------------------------------------------- #


def requested_impl() -> str:
    """The requested tier from :data:`KERNEL_IMPL_ENV` (``auto`` default).

    Unset or empty means ``auto``; any other value outside
    :data:`KERNEL_IMPLS` is a :class:`~repro.errors.ConfigurationError`
    naming the variable.
    """
    value = os.environ.get(KERNEL_IMPL_ENV) or "auto"
    if value not in KERNEL_IMPLS:
        raise ConfigurationError(
            f"{KERNEL_IMPL_ENV}={value!r} is not a kernel tier "
            f"(use one of {', '.join(KERNEL_IMPLS)})"
        )
    return value


def native_available() -> bool:
    """Whether the native library is built and loadable."""
    return _load() is not None


def use_native() -> bool:
    """Resolve the tier for this call: ``True`` = dispatch native."""
    req = requested_impl()
    if req == "py":
        return False
    # "native" and "auto" both degrade gracefully when the library is
    # unavailable — the pure tier is always correct, just slower.
    return _load() is not None


def kernel_impl() -> str:
    """The resolved implementation tier: ``"native"`` or ``"py"``."""
    return "native" if use_native() else "py"


def emit_threads() -> int:
    """Resolved emit thread count: :data:`EMIT_THREADS_ENV` or the CPU count.

    Unset or empty means the CPU count; anything but a positive integer
    is a :class:`~repro.errors.ConfigurationError` naming the variable.
    """
    raw = os.environ.get(EMIT_THREADS_ENV)
    if not raw:
        return os.cpu_count() or 1
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigurationError(
            f"{EMIT_THREADS_ENV}={raw!r} is not a positive thread count"
        )
    return threads


@contextmanager
def impl_overrides(
    impl: Optional[str] = None, threads: Optional[int] = None
) -> Iterator[None]:
    """Apply :class:`ClusterConfig` kernel overrides for a run's duration.

    Overrides are applied through the environment (and restored on
    exit) because that is the one channel every consumer shares: the
    in-process kernels read it per call, and shard workers receive it
    in the environment snapshot the driver ships on every reset.
    ``impl="auto"``/``None`` and ``threads=None`` defer to whatever the
    caller's environment already says.
    """
    updates = {}
    if impl is not None and impl != "auto":
        updates[KERNEL_IMPL_ENV] = impl
    if threads is not None:
        updates[EMIT_THREADS_ENV] = str(int(threads))
    saved = {key: os.environ.get(key) for key in updates}
    os.environ.update(updates)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def resolved_info() -> Dict[str, object]:
    """The resolved tier, attached to counters/results/bench records.

    The ``py`` tier never builds or loads the library, so there
    ``native_available`` is ``None`` (not probed).
    """
    return {
        "kernel_impl": kernel_impl(),
        "emit_threads": emit_threads(),
        "native_available": (
            None if requested_impl() == "py" else native_available()
        ),
    }


# -- low-level helpers -------------------------------------------------- #


def _ptr(arr: Optional[np.ndarray]) -> int:
    return 0 if arr is None else arr.ctypes.data


def _col(arr: np.ndarray) -> Tuple[int, int]:
    """(pointer, element stride) of a float64 column, views included."""
    return arr.ctypes.data, arr.strides[0] // 8


def _sidecar(arr: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """An lp partition sidecar as the kernels read it (C-contiguous int32)."""
    if arr is None:
        return None
    if arr.dtype != np.int32 or not arr.flags.c_contiguous:
        raise ValueError("partition sidecars must be C-contiguous int32")
    return arr


def _contig_i8(arr: np.ndarray) -> np.ndarray:
    if arr.dtype != np.int64 or not arr.flags.c_contiguous:
        return np.ascontiguousarray(arr, dtype=np.int64)
    return arr


# -- kernel wrappers (native tier only; callers gate on use_native()) --- #


def scatter_min_rows(ids, cols, *, domain, scratch):
    """Native :func:`repro.mr.kernels.scatter_min_rows` (same contract)."""
    lib = _load()
    n = len(ids)
    ids = _contig_i8(ids)
    col_bufs, row_buf, stamp, gen, out_ids, out_rows = scratch.ensure_native(
        domain, len(cols)
    )
    ncols = len(cols)
    c = [(0, 0)] * 3
    b = [None] * 3
    for i in range(ncols):
        c[i] = _col(cols[i])
        b[i] = col_bufs[i]
    t = lib.rk_scatter_min_rows(
        _ptr(ids), n,
        c[0][0], c[0][1], c[1][0], c[1][1], c[2][0], c[2][1], ncols,
        _ptr(b[0]), _ptr(b[1]), _ptr(b[2]),
        _ptr(row_buf), _ptr(stamp), gen,
        _ptr(out_ids), _ptr(out_rows),
    )
    return out_ids[:t].copy(), out_rows[:t].copy()


def count_keys(keys, hist, out_keys, out_counts):
    """Distinct ascending keys + counts; ``hist`` all-zero in and out."""
    lib = _load()
    keys = _contig_i8(keys)
    return lib.rk_count_keys(
        _ptr(keys), len(keys), _ptr(hist), _ptr(out_keys), _ptr(out_counts)
    )


def bincount_into(keys, hist) -> None:
    """``np.add.at(hist, keys, 1)`` without the buffered-ufunc overhead."""
    lib = _load()
    keys = _contig_i8(keys)
    lib.rk_bincount(_ptr(keys), len(keys), _ptr(hist))


def filter_improve(
    keys, nd, src, aidx, dist, frozen, weights, center,
    f_keys, f_nd, f_src, f_w, f_ctr, f_srcf,
) -> int:
    """Fused improvement filter + column materialization (_finish tail)."""
    lib = _load()
    return lib.rk_filter_improve(
        _ptr(keys), _ptr(nd), _ptr(src), _ptr(aidx), len(keys),
        _ptr(dist), _ptr(frozen), _ptr(weights), _ptr(center),
        _ptr(f_keys), _ptr(f_nd), _ptr(f_src),
        _ptr(f_w), _ptr(f_ctr), _ptr(f_srcf),
    )


def finish_batch(
    keys, nd, src, aidx, dist, frozen, weights, center,
    hist, gk, gc, do_acct,
    f_keys, f_nd, f_src, f_w, f_ctr, f_srcf,
):
    """One fused stream over the unfiltered candidate columns: stamped
    accounting histogram (ascending distinct keys + counts, hist left
    all-zero) plus the improvement filter + materialization of
    :func:`filter_improve`.  Returns ``(kept, ngroups)``; ``ngroups``
    is 0 when ``do_acct`` is false.
    """
    lib = _load()
    ngroups = np.zeros(1, dtype=np.int64)
    kept = lib.rk_finish_batch(
        _ptr(keys), _ptr(nd), _ptr(src), _ptr(aidx), len(keys),
        _ptr(dist), _ptr(frozen), _ptr(weights), _ptr(center),
        _ptr(hist), _ptr(gk), _ptr(gc), 1 if do_acct else 0,
        _ptr(ngroups),
        _ptr(f_keys), _ptr(f_nd), _ptr(f_src),
        _ptr(f_w), _ptr(f_ctr), _ptr(f_srcf),
    )
    return kept, int(ngroups[0])


def begin_stage(frozen, center, dist, dacc, changed, frozen_iter) -> None:
    """Reset all five state columns of the live rows in one pass."""
    lib = _load()
    lib.rk_begin_stage(
        _ptr(frozen), len(frozen), _ptr(center), _ptr(dist), _ptr(dacc),
        _ptr(changed), _ptr(frozen_iter),
    )


def freeze_assigned(center, iteration, frozen, changed, frozen_iter) -> int:
    """Freeze every assigned live row; returns the freshly-frozen count."""
    lib = _load()
    return lib.rk_freeze_assigned(
        _ptr(center), len(center), iteration,
        _ptr(frozen), _ptr(changed), _ptr(frozen_iter),
    )


def forced_sets(center, dist, frozen, degs, delta, mask, eff) -> int:
    """Forced-round mask/eff build (rescale == 0); returns degree sum."""
    lib = _load()
    return lib.rk_forced_sets(
        _ptr(center), _ptr(dist), _ptr(frozen), _ptr(degs),
        len(center), delta, _ptr(mask), _ptr(eff),
    )


def cache_append(k, s, a, lo, hi, hist, ck, cs, ca, pos) -> int:
    """Append locally-owned rows to the cache columns; returns appended."""
    lib = _load()
    return lib.rk_cache_append(
        _ptr(k), _ptr(s), _ptr(a), len(k), lo, hi, _ptr(hist),
        _ptr(ck), _ptr(cs), _ptr(ca), pos,
    )


def cache_emit(
    indptr, indices, weights, src_ids, delta, lo, hi, hist, ck, cs, ca, pos,
    owners=None, localidx=None, shard_id=0,
):
    """Expand frozen sources straight into the cache columns.

    Returns ``(appended, total_emitted)`` — the light-arc multiset size
    minus the appended count is the externally-targeted (inert) mass.
    Ownership is the contiguous ``[lo, hi)`` range unless the mapped
    layout's int32 sidecars ``owners``/``localidx`` (indexed by global
    id) and ``shard_id`` are given; ``hist`` is indexed by local row.
    """
    lib = _load()
    total = np.zeros(1, dtype=np.int64)
    appended = lib.rk_cache_emit(
        _ptr(indptr), _ptr(indices), _ptr(weights),
        _ptr(src_ids), len(src_ids), delta, lo, hi,
        _ptr(_sidecar(owners)), _ptr(_sidecar(localidx)), shard_id,
        _ptr(hist), _ptr(ck), _ptr(cs), _ptr(ca), pos, _ptr(total),
    )
    return appended, int(total[0])


def partition_loads(keys, weights, nworkers, loads) -> int:
    """Max simulated-worker load for one batch round.

    ``loads`` is an all-zero ``nworkers`` int64 scratch (restored to
    zero); the hash mix matches ``hash_partition_array`` bit for bit.
    """
    lib = _load()
    return lib.rk_partition_loads(
        _ptr(keys), len(keys), _ptr(weights), nworkers, _ptr(loads)
    )


def cache_retire(ck, cs, ca, length, frozen, lo, localidx=None) -> int:
    """In-place compaction dropping frozen targets; returns new length.

    ``frozen`` is indexed by local row: ``key - lo``, or
    ``localidx[key]`` under the mapped layout's sidecar.
    """
    lib = _load()
    return lib.rk_cache_retire(
        _ptr(ck), _ptr(cs), _ptr(ca), length, _ptr(frozen), lo,
        _ptr(_sidecar(localidx)),
    )


def cache_replay(ck, cs, ca, length, weights, dist, fk, fnd, fs, fa) -> int:
    """Improvement-filtered cache replay; returns the surviving count."""
    lib = _load()
    return lib.rk_cache_replay(
        _ptr(ck), _ptr(cs), _ptr(ca), length, _ptr(weights), _ptr(dist),
        _ptr(fk), _ptr(fnd), _ptr(fs), _ptr(fa),
    )


def materialize(src, aidx, weights, center, w, ctr, srcf) -> None:
    """Gather w/center/float-source columns for filtered rows."""
    lib = _load()
    lib.rk_materialize(
        _ptr(src), _ptr(aidx), len(src), _ptr(weights), _ptr(center),
        _ptr(w), _ptr(ctr), _ptr(srcf),
    )


# -- threaded emit ------------------------------------------------------ #

_pool = None
_pool_size = 0
_pool_lock = Lock()


def _get_pool(workers: int):
    global _pool, _pool_size
    with _pool_lock:
        if _pool is None or _pool_size < workers:
            from concurrent.futures import ThreadPoolExecutor

            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-emit"
            )
            _pool_size = workers
        return _pool


def _reset_pool_in_child() -> None:
    """Forget the parent's emit pool in a forked child.

    ``fork`` copies the executor object but none of its threads, so a
    child that reused it would queue emit chunks no thread ever runs
    (the sharded backend forks its workers).  The child builds a fresh
    pool, under a fresh lock, on first use.
    """
    global _pool, _pool_size, _pool_lock
    _pool = None
    _pool_size = 0
    _pool_lock = Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool_in_child)


def _compact(lib, out_keys, out_nd, out_src, out_aidx, bases, counts) -> int:
    bases = np.asarray(bases, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    return lib.rk_compact(
        _ptr(out_keys), _ptr(out_nd), _ptr(out_src), _ptr(out_aidx),
        _ptr(bases), _ptr(counts), len(counts),
    )


def emit_push_into(
    indptr, indices, weights, src_ids, eff, delta, counts,
    out_keys, out_nd, out_src, out_aidx, threads,
) -> int:
    """Fused push expansion into the given banks; returns the row count.

    ``counts`` is the per-source degree array (the caller already has it
    for bank sizing).  With ``threads > 1`` and enough arcs, the source
    list is split into contiguous chunks balanced by degree-sum; each
    chunk writes its own disjoint region (based at the chunk's
    cumulative degree offset — an exact upper bound on its output), and
    ``rk_compact`` packs the regions in chunk order, so the result is
    bit-identical to the single-threaded pass.
    """
    lib = _load()
    nsrc = len(src_ids)

    def chunk(lo: int, hi: int, base: int) -> int:
        return lib.rk_emit_push(
            _ptr(indptr), _ptr(indices), _ptr(weights),
            _ptr(src_ids[lo:hi]), _ptr(eff[lo:hi]), hi - lo, delta,
            _ptr(out_keys[base:]), _ptr(out_nd[base:]),
            _ptr(out_src[base:]), _ptr(out_aidx[base:]),
        )

    cum = np.cumsum(counts)
    total = int(cum[-1]) if nsrc else 0
    if threads <= 1 or nsrc < 2 or total < THREAD_MIN_ARCS:
        return chunk(0, nsrc, 0)
    nchunks = min(threads, nsrc)
    targets = np.arange(1, nchunks) * (total // nchunks)
    bounds = np.unique(
        np.concatenate(([0], np.searchsorted(cum, targets, side="left") + 1,
                        [nsrc]))
    )
    bounds = bounds[bounds <= nsrc]
    bases = [0 if lo == 0 else int(cum[lo - 1]) for lo in bounds[:-1]]
    pool = _get_pool(len(bounds) - 1)
    futures = [
        pool.submit(chunk, int(lo), int(hi), base)
        for lo, hi, base in zip(bounds[:-1], bounds[1:], bases)
    ]
    chunk_counts = [f.result() for f in futures]
    return _compact(
        lib, out_keys, out_nd, out_src, out_aidx, bases, chunk_counts
    )


def emit_pull_into(
    arc_rows, indices, weights, mask, eff, delta, base,
    out_keys, out_nd, out_src, out_aidx, threads,
) -> int:
    """Fused pull expansion over all arcs into the given banks.

    Threading splits the arc range into contiguous chunks; chunk c's
    region is based at its arc offset (a trivially exact upper bound),
    then ``rk_compact`` packs the regions — bit-identical for any
    thread count.
    """
    lib = _load()
    narcs = len(indices)

    def chunk(lo: int, hi: int, out_base: int) -> int:
        return lib.rk_emit_pull(
            _ptr(arc_rows), _ptr(indices), _ptr(weights), lo, hi,
            _ptr(mask), _ptr(eff), delta, base,
            _ptr(out_keys[out_base:]), _ptr(out_nd[out_base:]),
            _ptr(out_src[out_base:]), _ptr(out_aidx[out_base:]),
        )

    if threads <= 1 or narcs < THREAD_MIN_ARCS:
        return chunk(0, narcs, 0)
    nchunks = min(threads, narcs)
    bounds = np.linspace(0, narcs, nchunks + 1).astype(np.int64)
    pool = _get_pool(nchunks)
    futures = [
        pool.submit(chunk, int(lo), int(hi), int(lo))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    chunk_counts = [f.result() for f in futures]
    return _compact(
        lib, out_keys, out_nd, out_src, out_aidx, bounds[:-1], chunk_counts
    )


def core_emit_push(
    indptr, indices, weights, srcs, eff, delta, frozen, dist, total,
):
    """Serial-core push candidates: ``(cand_t, cand_d, cand_s, cand_w, messages)``."""
    lib = _load()
    cand_t = np.empty(total, dtype=np.int64)
    cand_d = np.empty(total)
    cand_s = np.empty(total, dtype=np.int64)
    cand_w = np.empty(total)
    messages = np.zeros(1, dtype=np.int64)
    t = lib.rk_core_emit_push(
        _ptr(indptr), _ptr(indices), _ptr(weights),
        _ptr(srcs), _ptr(eff), len(srcs), delta,
        _ptr(frozen), _ptr(dist), _ptr(messages),
        _ptr(cand_t), _ptr(cand_d), _ptr(cand_s), _ptr(cand_w),
    )
    return (
        cand_t[:t], cand_d[:t], cand_s[:t], cand_w[:t], int(messages[0])
    )


def core_emit_pull(
    arc_rows, indices, weights, emitting, effd, delta, frozen, dist,
):
    """Serial-core pull candidates: ``(cand_t, cand_d, cand_s, cand_w, messages)``."""
    lib = _load()
    narcs = len(indices)
    cand_t = np.empty(narcs, dtype=np.int64)
    cand_d = np.empty(narcs)
    cand_s = np.empty(narcs, dtype=np.int64)
    cand_w = np.empty(narcs)
    messages = np.zeros(1, dtype=np.int64)
    t = lib.rk_core_emit_pull(
        _ptr(arc_rows), _ptr(indices), _ptr(weights), narcs,
        _ptr(emitting), _ptr(effd), delta,
        _ptr(frozen), _ptr(dist), _ptr(messages),
        _ptr(cand_t), _ptr(cand_d), _ptr(cand_s), _ptr(cand_w),
    )
    return (
        cand_t[:t], cand_d[:t], cand_s[:t], cand_w[:t], int(messages[0])
    )


# -- quotient diameter -------------------------------------------------- #


def quotient_ecc(indptr, indices, weights, sources, *, skip_reached) -> float:
    """Largest finite distance settled by Dijkstras from ``sources``.

    ``skip_reached=True`` skips sources an earlier one already reached
    (one run per component when ``sources`` covers every node);
    ``False`` runs every source, resetting only what each touched.
    Distances match scipy's csgraph Dijkstra bit for bit.
    """
    n = len(indptr) - 1
    sources = _contig_i8(sources)
    if len(sources) and (sources.min() < 0 or sources.max() >= n):
        raise ValueError(f"sources must lie in [0, {n})")
    lib = _load()
    indptr = _contig_i8(indptr)
    indices = _contig_i8(indices)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    dist = np.full(n, np.inf)
    touched = np.empty(n, dtype=np.int64)
    heap_d = np.empty(len(indices) + 1)
    heap_v = np.empty(len(indices) + 1, dtype=np.int64)
    return lib.rk_quotient_ecc(
        _ptr(indptr), _ptr(indices), _ptr(weights),
        _ptr(sources), len(sources), 1 if skip_reached else 0,
        _ptr(dist), _ptr(touched), _ptr(heap_d), _ptr(heap_v),
    )
