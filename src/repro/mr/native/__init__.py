"""Native kernel tier: compiled hot kernels + threaded emit.

``REPRO_KERNEL_IMPL=py|native|auto`` selects the implementation tier for
the Δ-growing hot kernels (push emit with the improvement
pre-filter, ``scatter_min_rows``, the merge's apply, the forced-round
scan, and the frozen-replay cache with its running group summary), for
the quotient's crossing-edge scan (:func:`crossing_edges`), for
CL-DIAM's quotient-diameter Dijkstra
(:func:`quotient_ecc`, whose pure tier is scipy's — so a native-tier
run never imports scipy), and for the ``lp`` shard partitioner's three
passes over every arc (:func:`lp_best_label`, :func:`lp_affinity`,
:func:`lp_contract`: O(arcs) row scans whose pure tier is
:mod:`repro.mr.partitioner`'s sort/bincount NumPy code, so
``lp_assignment`` returns the byte-identical assignment on both tiers;
on the R-MAT(16) LCC with K=2 it drops from ~1.8 s to ~0.43 s).
``auto`` (the default) uses the native tier whenever the shared library
can be built and loaded (see :mod:`repro.mr.native.build`), degrading
silently to the pure NumPy tier otherwise — the pure implementations
always remain and stay the parity oracle.  ``REPRO_KERNEL_IMPL=py``
is the one spelling of "use the pure tier": it never builds or loads
the library (the no-toolchain CI job runs the suite under it).

The switches are read from the environment **per call**, so benchmarks
and the parity suites flip tiers between runs in one process.
:func:`impl_overrides` is the config-plumbing entry (used by
``repro.runtime.runner``): it applies :class:`ClusterConfig` overrides
by setting the environment for the run's duration, which makes them
visible to every kernel the run calls, shard workers included.

Threaded emit
-------------
``ClusterConfig.emit_threads`` / ``REPRO_EMIT_THREADS`` (default
``os.cpu_count()``) set how many threads the native emit expansion may
use.  The model is deterministic by construction: the frontier is
split into contiguous chunks, each chunk's kernel writes into a
**disjoint region** of the shared output banks
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
    "crossing_edges",
    "quotient_ecc",
    "lp_best_label",
    "lp_affinity",
    "lp_contract",
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
    # ids, n, c0, s0, c1, s1, c2, s2, ncols, table, gen, out_ids,
    # out_rows -> distinct
    "rk_scatter_min_rows": (
        [_P, _I, _P, _I, _P, _I, _P, _I, _I, _P, _I, _P, _P],
        _I,
    ),
    "rk_bincount": ([_P, _I, _P], None),
    "rk_emit_push": ([_P, _P, _P, _P, _P, _I, _D, _P, _P, _P, _P], _I),
    "rk_compact": ([_P, _P, _P, _P, _P, _P, _I], _I),
    # keys, nd, src, aidx, n, dist, frozen, weights, center,
    # hist (NULL: no accounting), gk, base, nworkers, loads, summ,
    # f_* banks -> kept
    "rk_finish_batch": (
        [_P, _P, _P, _P, _I, _P, _P, _P, _P, _P, _P, _P, _I, _P, _P,
         _P, _P, _P, _P, _P, _P],
        _I,
    ),
    # keys, g, rows, nd, ctr, dv, src, last, nlast, frozen, center,
    # dist, dacc, changed, tmp, out, newly -> adopted
    "rk_apply": (
        [_P, _I, _P, _P, _P, _P, _P, _P, _I,
         _P, _P, _P, _P, _P, _P, _P, _P],
        _I,
    ),
    "rk_begin_stage": ([_P, _I, _P, _P, _P, _P, _P], None),
    "rk_freeze_assigned": ([_P, _I, _I, _P, _P, _P], _I),
    # center, dist, frozen, n, delta, indptr, cache_in, all_rows, ids,
    # eff, newly, out -> ids count
    "rk_forced_scan": (
        [_P, _P, _P, _I, _D, _P, _P, _I, _P, _P, _P, _P], _I
    ),
    # indptr, indices, weights, src_ids, nsrc, delta, owners, localidx,
    # shard, hist, nworkers, loads, top, ck, cs, ca, pos, total_out
    # -> appended
    "rk_cache_emit": (
        [_P, _P, _P, _P, _I, _D, _P, _P, _I, _P, _I, _P, _P,
         _P, _P, _P, _I, _P],
        _I,
    ),
    # ck, cs, ca, n, frozen, localidx, weights, dist, center, fk, fnd,
    # fs, fw, fctr, fsrcf, nkept -> surviving length
    "rk_cache_retire": (
        [_P, _P, _P, _I, _P, _P, _P, _P, _P, _P, _P, _P, _P, _P, _P, _P],
        _I,
    ),
    "rk_partition_loads": ([_P, _I, _P, _I, _P], _I),
    "rk_core_emit_push": (
        [_P, _P, _P, _P, _P, _I, _D, _P, _P, _P, _P, _P, _P, _P],
        _I,
    ),
    # indptr, indices, weights, n, cid, d, nc, keys, vals -> crossing
    "rk_crossing_edges": ([_P, _P, _P, _I, _P, _P, _I, _P, _P], _I),
    # indptr, indices, weights, sources, nsources, skip_reached, dist,
    # touched, heap_d, heap_v -> largest finite distance
    "rk_quotient_ecc": ([_P, _P, _P, _P, _I, _I, _P, _P, _P, _P], _D),
    # indptr, indices, arc_w, label, n, acc, mark, touched,
    # best_lab, best_w, own_w
    "rk_lp_best_label": ([_P, _P, _P, _P, _I, _P, _P, _P, _P, _P, _P], None),
    "rk_lp_affinity": ([_P, _P, _P, _P, _I, _I, _P], None),
    # indptr, indices, arc_w, cid, n, nc, members, mstart, acc, mark,
    # touched, cindptr, cd, uw -> pairs
    "rk_lp_contract": (
        [_P, _P, _P, _P, _I, _I, _P, _P, _P, _P, _P, _P, _P, _P],
        _I,
    ),
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
    kernels read it per call.
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
    ids = _contig_i8(ids)
    table, gen, out_ids, out_rows = scratch.ensure_native(domain)
    c = [(0, 0)] * 3
    for i, col in enumerate(cols):
        c[i] = _col(col)
    t = lib.rk_scatter_min_rows(
        _ptr(ids), len(ids),
        c[0][0], c[0][1], c[1][0], c[1][1], c[2][0], c[2][1], len(cols),
        _ptr(table), gen, _ptr(out_ids), _ptr(out_rows),
    )
    return out_ids[:t].copy(), out_rows[:t].copy()


def bincount_into(keys, hist) -> None:
    """``np.add.at(hist, keys, 1)`` without the buffered-ufunc overhead."""
    lib = _load()
    keys = _contig_i8(keys)
    lib.rk_bincount(_ptr(keys), len(keys), _ptr(hist))


def finish_batch(
    keys, nd, src, aidx, dist, frozen, weights, center,
    f_keys, f_nd, f_src, f_w, f_ctr, f_srcf,
    *, hist=None, gk=None, base=None, loads=None, top=(0, -1),
):
    """One fused stream over the unfiltered candidate columns: the
    improvement filter, gathering the kept rows' w/center/float-source
    columns, plus — when ``hist`` (an all-zero domain scratch, left
    all-zero) is given — the round's group summary.

    The summary folds the batch onto a base: ``base`` per-key counts
    (``None``: empty), ``loads`` the base's per-worker loads (an int64
    array of the worker count, zeroed on return) and ``top`` its
    ``(max_count, max_key)``.  ``gk`` is distinct-key scratch of the
    batch length.  Returns ``(kept, summary)``, the summary a
    ``(max_count, max_key, max_load)`` tuple, or ``None`` without
    ``hist``.
    """
    if hist is not None and (gk is None or loads is None or not len(loads)):
        raise ValueError("the group summary needs gk and a per-worker loads array")
    lib = _load()
    summ = np.array([top[0], top[1], 0], dtype=np.int64)
    kept = lib.rk_finish_batch(
        _ptr(keys), _ptr(nd), _ptr(src), _ptr(aidx), len(keys),
        _ptr(dist), _ptr(frozen), _ptr(weights), _ptr(center),
        _ptr(hist), _ptr(gk), _ptr(base),
        len(loads) if loads is not None else 0, _ptr(loads), _ptr(summ),
        _ptr(f_keys), _ptr(f_nd), _ptr(f_src),
        _ptr(f_w), _ptr(f_ctr), _ptr(f_srcf),
    )
    if hist is None:
        return kept, None
    return kept, (int(summ[0]), int(summ[1]), int(summ[2]))


def apply_winners(
    keys, rows, nd, ctr, dv, src, last, frozen, center, dist, dacc, changed,
):
    """Native ``ArrayGrowingState._apply``: ``(adopted keys, newly)``.

    The winner of ``keys[j]`` is row ``rows[j]`` of the float64 columns
    ``nd``/``ctr``/``dv``.  With ``src`` ``None``, ``dv`` is the
    winner's accumulated distance; otherwise it is the arc weight,
    added to the source's pre-apply ``dacc``.  ``changed`` is cleared
    on ``last`` first.
    """
    lib = _load()
    g = len(keys)
    # Bound to names: a temporary copy must outlive the call.
    keys, rows, last = _contig_i8(keys), _contig_i8(rows), _contig_i8(last)
    nd, ctr, dv = (np.ascontiguousarray(c, dtype=np.float64)
                   for c in (nd, ctr, dv))
    if src is not None:
        src = _contig_i8(src)
    tmp = np.empty(g)
    out = np.empty(g, dtype=np.int64)
    newly = np.zeros(1, dtype=np.int64)
    adopted = lib.rk_apply(
        _ptr(keys), g, _ptr(rows),
        _ptr(nd), _ptr(ctr), _ptr(dv), _ptr(src),
        _ptr(last), len(last),
        _ptr(frozen), _ptr(center), _ptr(dist), _ptr(dacc), _ptr(changed),
        _ptr(tmp), _ptr(out), _ptr(newly),
    )
    return out[:adopted], int(newly[0])


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


def forced_scan(
    center, dist, frozen, delta, indptr, ids, eff, *,
    cache_in=None, newly=None,
):
    """A forced round's emitting rows (``rescale == 0``) in one pass.

    With ``newly`` given: the live emitting rows (assigned, unfrozen,
    distance below ``delta``) and their distances go to ``ids``/``eff``,
    and the frozen rows not in ``cache_in`` (``None``: every frozen
    row) to ``newly``; returns ``(live, newly_count, live_degree_sum)``.
    Without it: every emitting row, frozen ones at effective distance
    0; returns ``(rows, 0, 0)``.  Output buffers need one slot per row.
    """
    n = len(center)
    if len(indptr) != n + 1 or min(len(ids), len(eff)) < n or (
        newly is not None and len(newly) < n
    ):
        raise ValueError("forced_scan needs indptr of n + 1 and n-row outputs")
    lib = _load()
    out = np.zeros(2, dtype=np.int64)
    t = lib.rk_forced_scan(
        _ptr(center), _ptr(dist), _ptr(frozen), n, delta,
        _ptr(indptr), _ptr(cache_in), 0 if newly is not None else 1,
        _ptr(ids), _ptr(eff), _ptr(newly), _ptr(out),
    )
    return t, int(out[0]), int(out[1])


def cache_emit(
    indptr, indices, weights, src_ids, delta, hist, ck, cs, ca, pos,
    owners=None, localidx=None, shard_id=0, loads=None, top=None,
):
    """Expand frozen sources straight into the cache columns.

    Returns ``(appended, total_emitted)`` — the light-arc multiset size
    minus the appended count is the externally-targeted (inert) mass.
    Every key is owned (the whole graph) unless the mapped layout's
    int32 sidecars ``owners``/``localidx`` (indexed by global id) and
    ``shard_id`` are given; ``hist`` is indexed by local row.  With
    ``loads`` (per-worker int64) and ``top`` (int64 ``[max_count,
    max_key]``) the appended rows also update the cache's group summary
    in place (whole graph only).
    """
    if owners is None and len(hist) != len(indptr) - 1:
        # Without sidecars every key indexes hist directly, which only
        # a whole-graph slice (one row per id) keeps in bounds.
        raise ValueError("without sidecars the slice must be the whole graph")
    if loads is not None and (not len(loads) or top is None or owners is not None):
        raise ValueError("the cache summary needs loads, top and the whole graph")
    lib = _load()
    total = np.zeros(1, dtype=np.int64)
    appended = lib.rk_cache_emit(
        _ptr(indptr), _ptr(indices), _ptr(weights),
        _ptr(src_ids), len(src_ids), delta,
        _ptr(_sidecar(owners)), _ptr(_sidecar(localidx)), shard_id,
        _ptr(hist), len(loads) if loads is not None else 0,
        _ptr(loads), _ptr(top),
        _ptr(ck), _ptr(cs), _ptr(ca), pos, _ptr(total),
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


def cache_retire(ck, cs, ca, length, frozen, localidx=None, replay=None):
    """In-place compaction dropping frozen targets; returns new length.

    ``frozen`` is indexed by local row: the key itself, or
    ``localidx[key]`` under the mapped layout's sidecar.  ``replay``
    (whole graph only) fuses the replay filter into the same pass: a
    ``(weights, dist, center, fk, fnd, fs, fw, fctr, fsrcf)`` tuple
    whose last six banks receive the survivors that strictly improve
    their target; the return value is then ``(length, replayed)``.
    """
    lib = _load()
    cols = (None,) * 9 if replay is None else replay
    nkept = np.zeros(1, dtype=np.int64)
    length = lib.rk_cache_retire(
        _ptr(ck), _ptr(cs), _ptr(ca), length, _ptr(frozen),
        _ptr(_sidecar(localidx)), *(_ptr(c) for c in cols), _ptr(nkept),
    )
    if replay is None:
        return length
    return length, int(nkept[0])


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
    (any caller that forks after a run, e.g. a test harness or an
    embedding service).  The child builds a fresh pool, under a fresh
    lock, on first use.
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


# -- quotient map side -------------------------------------------------- #


def crossing_edges(indptr, indices, weights, cid, d, num_clusters):
    """Crossing edges of a clustering as exactly sized ``(keys, values)``.

    One CSR scan over arcs ``u -> v`` with ``u < v`` and
    ``cid[u] != cid[v]``, in CSR order: the packed cluster pair
    ``min·num_clusters + max`` and the value ``(w + d[u]) + d[v]``.
    """
    lib = _load()
    indptr = _contig_i8(indptr)
    indices = _contig_i8(indices)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    cid = _contig_i8(cid)
    d = np.ascontiguousarray(d, dtype=np.float64)
    if not len(cid) == len(d) == len(indptr) - 1:
        raise ValueError("cid and d need one entry per node")
    # Arc-sized outputs: only the written prefix is ever touched, so
    # the untouched pages are never committed; the prefix is copied out.
    keys = np.empty(len(indices), dtype=np.int64)
    values = np.empty(len(indices))
    count = lib.rk_crossing_edges(
        _ptr(indptr), _ptr(indices), _ptr(weights), len(indptr) - 1,
        _ptr(cid), _ptr(d), int(num_clusters), _ptr(keys), _ptr(values),
    )
    return keys[:count].copy(), values[:count].copy()


# -- lp partitioner ------------------------------------------------------ #
#
# Row-scan forms of repro.mr.partitioner's label-propagation passes over
# a CSR (int64 indptr/indices, optional float64 arc weights; ``None``
# means unit weights).  Each returns exactly what its NumPy counterpart
# there returns.


def _lp_csr(indptr, indices, arc_w):
    indptr = _contig_i8(indptr)
    indices = _contig_i8(indices)
    if arc_w is not None:
        arc_w = np.ascontiguousarray(arc_w, dtype=np.float64)
    return indptr, indices, arc_w


def lp_best_label(indptr, indices, arc_w, label):
    """Per row, ``(best_label, best_weight, own_weight)`` over its arcs.

    The best label has the largest summed weight, ties going to the
    larger label (``-1``/``0.0`` for an arc-less row); ``own_weight`` is
    the weight toward the row's own label.  Labels lie in ``[0, n)``.
    """
    lib = _load()
    indptr, indices, arc_w = _lp_csr(indptr, indices, arc_w)
    label = _contig_i8(label)
    n = len(indptr) - 1
    best_lab = np.empty(n, dtype=np.int64)
    best_w = np.empty(n)
    own_w = np.empty(n)
    acc = np.zeros(n)
    mark = np.zeros(n, dtype=np.uint8)
    touched = np.empty(n, dtype=np.int64)
    lib.rk_lp_best_label(
        _ptr(indptr), _ptr(indices), _ptr(arc_w), _ptr(label), n,
        _ptr(acc), _ptr(mark), _ptr(touched),
        _ptr(best_lab), _ptr(best_w), _ptr(own_w),
    )
    return best_lab, best_w, own_w


def lp_affinity(indptr, indices, arc_w, owner, num_shards):
    """The ``(n, num_shards)`` matrix of each row's arc weight per shard."""
    lib = _load()
    indptr, indices, arc_w = _lp_csr(indptr, indices, arc_w)
    owner = _contig_i8(owner)
    n = len(indptr) - 1
    aff = np.zeros((n, num_shards))
    lib.rk_lp_affinity(
        _ptr(indptr), _ptr(indices), _ptr(arc_w), _ptr(owner), n,
        num_shards, _ptr(aff),
    )
    return aff


def lp_contract(indptr, indices, arc_w, cid, num_clusters):
    """The cluster graph ``(cindptr, targets, weights)`` under ``cid``.

    Self-arcs drop; each cluster's targets ascend, weights summed.
    """
    lib = _load()
    indptr, indices, arc_w = _lp_csr(indptr, indices, arc_w)
    cid = _contig_i8(cid)
    n = len(indptr) - 1
    nc = int(num_clusters)
    cindptr = np.empty(nc + 1, dtype=np.int64)
    cd = np.empty(len(indices), dtype=np.int64)
    uw = np.empty(len(indices))
    members = np.empty(n, dtype=np.int64)
    mstart = np.zeros(nc + 1, dtype=np.int64)
    acc = np.zeros(nc)
    mark = np.zeros(nc, dtype=np.uint8)
    touched = np.empty(nc, dtype=np.int64)
    pairs = lib.rk_lp_contract(
        _ptr(indptr), _ptr(indices), _ptr(arc_w), _ptr(cid), n, nc,
        _ptr(members), _ptr(mstart), _ptr(acc), _ptr(mark), _ptr(touched),
        _ptr(cindptr), _ptr(cd), _ptr(uw),
    )
    return cindptr, cd[:pairs].copy(), uw[:pairs].copy()
