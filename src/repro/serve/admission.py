"""Resource-aware admission control for the serve daemon.

The scheduler bounds *concurrency* (worker slots, queue depths); this
module bounds *resources*:

* **Memory budget** (``--memory-budget``): before a cold query is
  scheduled, its resident cost is estimated — store bytes as mapped
  plus the engine's per-node scratch model — and checked against the
  budget minus what is already resident.  An over-budget query is shed
  with a structured 503 (``over-budget``) carrying ``retry_after_s``,
  so a load balancer can back off instead of OOM-killing the daemon.
* **Rate limit** (``--rate-limit``): a token bucket per client id
  (the request's ``client`` field; anonymous requests share one
  bucket).  An exhausted bucket answers 429 (``rate-limited``) with
  the exact ``retry_after_s`` until a token is available.

Both checks run on the event loop in O(1): the cost estimate needs one
``stat`` plus, for a binary store, the 64-byte header.

Cost model
----------
``store_bytes``
    The mapped file size; for a not-yet-converted text graph, a
    conservative 2x of the source size (conversion is the expensive
    path — overestimating sheds earlier, which is the safe direction).
``scratch_bytes``
    ``66 * num_nodes``: the growing-state arrays (center i64, dist +
    dist_acc f64, frozen_iter i64, frozen + changed bool ≈ 34 B/node)
    plus amortized candidate-emission buffers (≈ 32 B/node).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.serve.protocol import ServeError

__all__ = [
    "AdmissionController",
    "TokenBucket",
    "estimate_query_cost",
]

#: Engine scratch bytes per node (see the module docstring's model).
SCRATCH_BYTES_PER_NODE = 66
#: Multiplier applied to a text source's size when no binary store
#: exists yet (binary stores are typically larger than the edge list).
TEXT_STORE_FACTOR = 2.0
#: How long an over-budget client is told to wait before retrying —
#: long enough for an LRU eviction or a finishing query to free memory.
OVER_BUDGET_RETRY_S = 2.0


def estimate_query_cost(store_file) -> Optional[int]:
    """Estimated resident bytes of running one query against a store.

    Returns ``None`` when nothing about the file can be learned (it
    does not exist yet, or the header is unreadable) — admission then
    lets the query through and lets the execution path raise the real
    error.
    """
    import os

    from repro.graph.serialize import is_store, read_store_header

    try:
        size = os.stat(store_file).st_size
    except OSError:
        return None
    try:
        if is_store(store_file):
            header = read_store_header(store_file)
            return header.file_size + SCRATCH_BYTES_PER_NODE * header.num_nodes
    except Exception:
        return None  # corrupt store: let the open path diagnose it
    return int(size * TEXT_STORE_FACTOR)


class TokenBucket:
    """Per-client token buckets: ``rate`` tokens/s, ``burst`` capacity."""

    def __init__(self, rate: float, burst: float):
        if not rate > 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.burst = max(float(burst), 1.0)
        self._lock = threading.Lock()
        #: client id -> (tokens, last refill time).
        self._buckets: Dict[str, tuple] = {}

    def acquire(self, client: str, now: Optional[float] = None) -> float:
        """Take one token for ``client``; 0.0 on success, else the
        seconds until a token will be available."""
        if now is None:
            now = time.monotonic()
        with self._lock:
            tokens, last = self._buckets.get(client, (self.burst, now))
            tokens = min(self.burst, tokens + (now - last) * self.rate)
            if tokens >= 1.0:
                self._buckets[client] = (tokens - 1.0, now)
                return 0.0
            self._buckets[client] = (tokens, now)
            return (1.0 - tokens) / self.rate

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "rate": self.rate,
                "burst": self.burst,
                "clients": len(self._buckets),
            }


class AdmissionController:
    """The daemon's resource gate; all methods are event-loop-cheap."""

    def __init__(
        self,
        *,
        memory_budget: Optional[int] = None,
        rate_limit: Optional[float] = None,
        rate_burst: Optional[float] = None,
    ):
        self.memory_budget = memory_budget
        self.bucket = (
            TokenBucket(rate_limit, rate_burst or max(rate_limit, 1.0))
            if rate_limit
            else None
        )
        self.shed_over_budget = 0
        self.shed_rate_limited = 0

    def check_rate(self, client: Optional[str]) -> None:
        """Raise ``rate-limited`` (429 + retry-after) on an empty bucket."""
        if self.bucket is None:
            return
        wait = self.bucket.acquire(client or "anon")
        if wait > 0.0:
            self.shed_rate_limited += 1
            raise ServeError.rate_limited(
                f"client {client or 'anon'!r} exceeded the rate limit",
                retry_after_s=round(wait, 3),
            )

    def check_memory(
        self, cost: Optional[int], resident_bytes: int
    ) -> None:
        """Raise ``over-budget`` (503 + retry-after) when ``cost`` does
        not fit ``memory_budget`` alongside what is already resident.

        ``cost=None`` (nothing learnable about the file) admits — the
        execution path raises the real, more useful error.
        """
        if self.memory_budget is None or cost is None:
            return
        if cost > self.memory_budget:
            # Never fits, even on an idle daemon: still a 503 (the
            # budget is an operator knob that may be raised), but the
            # message says so.
            self.shed_over_budget += 1
            raise ServeError.over_budget(
                f"estimated query cost {cost} bytes exceeds the "
                f"{self.memory_budget}-byte memory budget",
                retry_after_s=OVER_BUDGET_RETRY_S,
            )
        if resident_bytes + cost > self.memory_budget:
            self.shed_over_budget += 1
            raise ServeError.over_budget(
                f"estimated query cost {cost} bytes does not fit: "
                f"{resident_bytes} of {self.memory_budget} budget bytes "
                "are resident",
                retry_after_s=OVER_BUDGET_RETRY_S,
            )

    def snapshot(self) -> Dict[str, object]:
        return {
            "memory_budget": self.memory_budget,
            "shed_over_budget": self.shed_over_budget,
            "shed_rate_limited": self.shed_rate_limited,
            "rate": self.bucket.snapshot() if self.bucket else None,
        }
