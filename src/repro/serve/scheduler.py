"""Concurrent query scheduling for the ``repro serve`` daemon.

The scheduler sits between the asyncio protocol handlers and the
blocking runtime: each admitted query becomes a job on a bounded
``ThreadPoolExecutor`` (NumPy kernels release the GIL for the bulk of
their work, and the sharded executor fans out to processes anyway),
ordered by three rules:

* **per-graph FIFO** — every graph path has its own queue drained
  strictly in order, one query at a time.  Warm per-graph engine state
  (scratch banks, resident shard workers) is single-threaded by
  construction, and two clients racing the same query observe
  cache-coherent ordering: the second either waits behind the first or
  hits the result cache.
* **bounded worker pool** — at most ``max_workers`` queries execute at
  once across all graphs; the rest wait in their graph's queue.
* **backpressure** — a query finding its graph queue at
  ``max_queue_depth``, or the daemon at ``max_pending`` total admitted
  queries, is rejected immediately with a 429-style ``busy`` error
  instead of being buffered without bound.

Cache hits never enter the scheduler — the daemon answers them from the
event loop — so an O(1) repeat is never stuck behind a long cold run.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.serve.protocol import ServeError

__all__ = ["QueryScheduler", "SchedulerStats"]


@dataclass
class SchedulerStats:
    """Mutable counters the daemon's ``stats`` op snapshots."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    timed_out: int = 0
    peak_pending: int = 0
    queue_wait_s: float = 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "timed_out": self.timed_out,
            "peak_pending": self.peak_pending,
            "total_queue_wait_s": round(self.queue_wait_s, 6),
        }


@dataclass
class _Job:
    fn: Callable[[], Any]
    future: "asyncio.Future"
    enqueued: float = field(default_factory=time.perf_counter)


class QueryScheduler:
    """Per-graph FIFO queues over one bounded worker pool."""

    def __init__(
        self,
        *,
        max_workers: int = 2,
        max_queue_depth: int = 16,
        max_pending: int = 64,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        self.max_workers = max_workers
        self.max_queue_depth = max_queue_depth
        self.max_pending = max_pending
        self.stats = SchedulerStats()
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._queues: Dict[str, asyncio.Queue] = {}
        self._drainers: Dict[str, asyncio.Task] = {}
        #: graph key → admitted-but-unfinished count (queued + running);
        #: ``max_queue_depth`` bounds the *waiting* share, so a graph
        #: admits 1 + depth queries before rejecting.
        self._active: Dict[str, int] = {}
        self._pending = 0
        self._running = 0
        self._closed = False

    # ------------------------------------------------------------------ #

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        """Bind the scheduler to the daemon's event loop."""
        self._loop = loop
        self._slots = asyncio.Semaphore(self.max_workers)

    @property
    def pending(self) -> int:
        """Queries admitted but not yet finished (queued + running)."""
        return self._pending

    @property
    def running(self) -> int:
        return self._running

    async def submit(
        self,
        graph_key: str,
        fn: Callable[[], Any],
        *,
        deadline_s: Optional[float] = None,
    ) -> Tuple[Any, float]:
        """Admit ``fn`` to ``graph_key``'s FIFO queue and await its result.

        Returns ``(result, queue_wait_seconds)``.  Raises
        :class:`ServeError` (``busy``) when either bound is hit,
        ``asyncio.TimeoutError`` when ``deadline_s`` elapses first (the
        job's future is cancelled: a still-queued job never runs; a job
        already on a worker thread finishes there but its result is
        discarded), or whatever ``fn`` raised once it ran.
        """
        if self._closed:
            raise ServeError.shutting_down("server is shutting down")
        if self._loop is None:
            raise ServeError.internal("scheduler is not running")
        if self._pending >= self.max_pending:
            self.stats.rejected += 1
            raise ServeError.busy(
                f"server is at capacity ({self.max_pending} pending queries)"
            )
        if self._active.get(graph_key, 0) > self.max_queue_depth:
            # One query may always run; the bound caps the waiters
            # behind it (depth 0 → one in flight, nothing queued).
            self.stats.rejected += 1
            raise ServeError.busy(
                f"queue for {graph_key!r} is full "
                f"({self.max_queue_depth} waiting queries)"
            )
        queue = self._queues.get(graph_key)
        if queue is None:
            queue = asyncio.Queue()
            self._queues[graph_key] = queue
            self._drainers[graph_key] = self._loop.create_task(
                self._drain(queue), name=f"repro-serve-drain:{graph_key}"
            )
        job = _Job(fn=fn, future=self._loop.create_future())
        self._pending += 1
        self._active[graph_key] = self._active.get(graph_key, 0) + 1
        self.stats.submitted += 1
        self.stats.peak_pending = max(self.stats.peak_pending, self._pending)
        queue.put_nowait(job)
        try:
            if deadline_s is not None:
                # wait_for cancels the future on expiry, which also
                # makes the drainer skip the job if it never started.
                result, wait = await asyncio.wait_for(
                    job.future, timeout=deadline_s
                )
            else:
                result, wait = await job.future
        except asyncio.TimeoutError:
            self.stats.timed_out += 1
            raise
        finally:
            self._pending -= 1
            remaining = self._active.get(graph_key, 1) - 1
            if remaining:
                self._active[graph_key] = remaining
            else:
                self._active.pop(graph_key, None)
        return result, wait

    async def _drain(self, queue: asyncio.Queue) -> None:
        """One graph's consumer: strict FIFO, one in flight at a time."""
        while True:
            job = await queue.get()
            if job is None:  # close() sentinel
                return
            async with self._slots:
                wait = time.perf_counter() - job.enqueued
                self.stats.queue_wait_s += wait
                if job.future.cancelled():
                    continue
                self._running += 1
                try:
                    result = await self._loop.run_in_executor(
                        self._pool, job.fn
                    )
                except Exception as exc:
                    self.stats.failed += 1
                    if not job.future.cancelled():
                        job.future.set_exception(exc)
                else:
                    self.stats.completed += 1
                    if not job.future.cancelled():
                        job.future.set_result((result, wait))
                finally:
                    self._running -= 1

    # ------------------------------------------------------------------ #

    async def close(self, grace_s: Optional[float] = None) -> None:
        """Stop the drainers, fail queued jobs, shut the pool down.

        Queued-but-unstarted jobs are failed immediately with a
        ``shutting-down`` error; jobs already running get ``grace_s``
        seconds to finish (``None`` = wait indefinitely).  A job that
        outlives the grace is abandoned — its thread keeps running to
        completion, but the daemon stops waiting for it.
        """
        self._closed = True
        for key, queue in self._queues.items():
            # Fail everything still queued, then wake the drainer.
            drained = []
            while not queue.empty():
                item = queue.get_nowait()
                if item is not None:
                    drained.append(item)
            for job in drained:
                if not job.future.done():
                    job.future.set_exception(
                        ServeError.shutting_down("server shutting down")
                    )
            queue.put_nowait(None)
        if self._drainers:
            drainer_wait = asyncio.gather(
                *self._drainers.values(), return_exceptions=True
            )
            if grace_s is not None:
                try:
                    await asyncio.wait_for(
                        asyncio.shield(drainer_wait), timeout=grace_s
                    )
                except asyncio.TimeoutError:
                    # Grace expired with a job still on a worker
                    # thread: abandon the drainers (the thread runs to
                    # completion unobserved).
                    drainer_wait.cancel()
            else:
                await drainer_wait
        self._queues.clear()
        self._drainers.clear()
        if grace_s is None:
            # Let in-flight jobs finish; their threads hold graph pins.
            await self._loop.run_in_executor(
                None, lambda: self._pool.shutdown(wait=True)
            )
        else:
            self._pool.shutdown(wait=False, cancel_futures=True)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "workers": self.max_workers,
            "max_queue_depth": self.max_queue_depth,
            "max_pending": self.max_pending,
            "pending": self._pending,
            "running": self._running,
            "queues": {
                key: q.qsize() for key, q in self._queues.items() if q.qsize()
            },
            **self.stats.snapshot(),
        }

    def __enter__(self):  # pragma: no cover - convenience
        return self

    def __exit__(self, *exc):  # pragma: no cover - convenience
        self._pool.shutdown(wait=False)
