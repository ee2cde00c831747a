"""Wire protocol of the ``repro serve`` daemon.

One request/response shape serves both surfaces:

* **NDJSON** — each line of a stream connection is one JSON request
  object; the server answers with one JSON line per request, in order.
  This is what :class:`~repro.serve.client.ServeClient` and the
  ``repro shell`` REPL speak.
* **HTTP/JSON** — ``POST /query`` takes the same request object as the
  body and returns the same response object; read-only ops map to
  ``GET`` routes (``/healthz``, ``/stats``, ``/graphs``,
  ``/algorithms``).  The daemon sniffs the first request line, so both
  protocols work on either listener.

A request is a JSON object with an ``op`` field::

    {"op": "query", "id": 7, "graph": "road.gr", "algorithm": "diameter",
     "config": {"tau": 64, "seed": 1}, "executor": "vector",
     "options": {"exact": false}}

``ping``/``stats``/``graphs``/``algorithms``/``open``/``shutdown`` take
only their documented extras.  Every response carries ``ok`` plus
either ``result`` (with ``counters``, ``timings``, and ``serve``
metadata — cache hit, queue wait, scheduler state) or ``error``
(``{"kind", "status", "message"}``; ``status`` follows HTTP semantics,
e.g. 429 for backpressure rejections).

This module is deliberately transport-free: request validation,
:class:`ClusterConfig` canonicalization, result-cache keys, and the
JSON-safe serialization of a :class:`~repro.runtime.runner.RunResult`
(including the bit-stable ``digest`` the parity suite compares against
direct ``runtime.run()`` output) all live here so the daemon, client,
and tests share one source of truth.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.config import ClusterConfig
from repro.errors import ConfigurationError
from repro.mr.executor import EXECUTOR_NAMES

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_REQUEST_BYTES",
    "ServeError",
    "QueryRequest",
    "parse_query",
    "canonical_config",
    "cache_key",
    "result_digest",
    "result_payload",
    "jsonify",
]

PROTOCOL_VERSION = 1

#: Default upper bound on one request line / HTTP body, in bytes.
DEFAULT_MAX_REQUEST_BYTES = 1 << 20

#: Ops a request may carry (queries plus the small control surface).
OPS = ("query", "ping", "stats", "graphs", "algorithms", "open", "shutdown")


class ServeError(Exception):
    """A protocol-level failure with an HTTP-compatible status code.

    ``kind`` is a stable machine-readable tag (clients switch on it),
    ``status`` the HTTP status the daemon maps it to on the JSON
    surface; the NDJSON surface carries both verbatim.
    """

    def __init__(
        self,
        kind: str,
        message: str,
        status: int = 400,
        retry_after_s: Optional[float] = None,
    ):
        super().__init__(message)
        self.kind = kind
        self.status = status
        #: When set, clients should retry after this many seconds; the
        #: HTTP surface maps it onto a ``Retry-After`` header.
        self.retry_after_s = retry_after_s

    @classmethod
    def bad_request(cls, message: str) -> "ServeError":
        return cls("bad-request", message, 400)

    @classmethod
    def not_found(cls, message: str) -> "ServeError":
        return cls("not-found", message, 404)

    @classmethod
    def too_large(cls, message: str) -> "ServeError":
        return cls("too-large", message, 413)

    @classmethod
    def busy(cls, message: str) -> "ServeError":
        return cls("busy", message, 429)

    @classmethod
    def shutting_down(cls, message: str) -> "ServeError":
        return cls("shutting-down", message, 503)

    @classmethod
    def over_budget(
        cls, message: str, retry_after_s: float = 2.0
    ) -> "ServeError":
        """Memory-admission shed: 503 with a retry hint, never an OOM."""
        return cls("over-budget", message, 503, retry_after_s=retry_after_s)

    @classmethod
    def rate_limited(
        cls, message: str, retry_after_s: float = 1.0
    ) -> "ServeError":
        return cls("rate-limited", message, 429, retry_after_s=retry_after_s)

    @classmethod
    def internal(cls, message: str) -> "ServeError":
        return cls("internal", message, 500)

    def as_response(self, request_id=None) -> Dict[str, Any]:
        error: Dict[str, Any] = {
            "kind": self.kind,
            "status": self.status,
            "message": str(self),
        }
        if self.retry_after_s is not None:
            error["retry_after_s"] = self.retry_after_s
        resp: Dict[str, Any] = {"ok": False, "error": error}
        if request_id is not None:
            resp["id"] = request_id
        return resp


# --------------------------------------------------------------------- #
# Request parsing
# --------------------------------------------------------------------- #

#: ``config`` keys a query may override, mirroring ClusterConfig fields.
_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(ClusterConfig))
#: Fields the request carries at top level, not inside ``config``.
_TOP_LEVEL_CONFIG = frozenset({"executor", "shards"})


@dataclasses.dataclass(frozen=True)
class QueryRequest:
    """A validated ``op: query`` request, ready for the scheduler.

    ``config`` is the fully-resolved :class:`ClusterConfig` (request
    overrides applied on top of the CLI-equivalent defaults), so two
    requests that spell the same parameters differently compare equal
    here — the cache key is derived from this object, never from the
    raw request JSON.
    """

    graph: str
    algorithm: str
    config: ClusterConfig
    executor: Optional[str] = None
    workers: Optional[int] = None
    shards: Optional[int] = None
    options: Tuple[Tuple[str, Any], ...] = ()
    #: Per-query wall-clock budget (seconds); expiry gets a ``degraded``
    #: response instead of an answer.  Deliberately NOT part of
    #: :func:`cache_key` — the deadline changes when an answer arrives,
    #: never what the answer is, so a patient twin query must hit the
    #: cache entry an earlier run produced.
    deadline_s: Optional[float] = None

    def option_dict(self) -> Dict[str, Any]:
        return dict(self.options)


def parse_query(obj: Mapping[str, Any]) -> QueryRequest:
    """Validate a raw ``query`` request object into a :class:`QueryRequest`.

    Raises :class:`ServeError` (``bad-request``) on anything malformed:
    missing/empty fields, unknown config keys, non-JSON-native types, an
    executor outside :data:`~repro.mr.executor.EXECUTOR_NAMES`.
    Algorithm existence is checked later against the registry by the
    execution path (so the error carries the registry's message).
    """
    if not isinstance(obj, Mapping):
        raise ServeError.bad_request("request must be a JSON object")
    graph = obj.get("graph")
    if not isinstance(graph, str) or not graph:
        raise ServeError.bad_request("'graph' must be a non-empty path string")
    algorithm = obj.get("algorithm")
    if not isinstance(algorithm, str) or not algorithm:
        raise ServeError.bad_request("'algorithm' must be a non-empty string")

    raw_config = obj.get("config", {})
    if not isinstance(raw_config, Mapping):
        raise ServeError.bad_request("'config' must be a JSON object")
    unknown = set(raw_config) - _CONFIG_FIELDS - _TOP_LEVEL_CONFIG
    if unknown:
        raise ServeError.bad_request(
            "unknown config key(s): " + ", ".join(sorted(unknown))
        )

    executor = obj.get("executor", raw_config.get("executor"))
    if executor is not None and not isinstance(executor, str):
        raise ServeError.bad_request("'executor' must be a string or null")
    if executor is not None and executor not in EXECUTOR_NAMES:
        raise ServeError.bad_request(
            f"unknown executor {executor!r}; expected one of "
            + ", ".join(EXECUTOR_NAMES)
        )

    def _int_or_none(name, value):
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ServeError.bad_request(f"'{name}' must be an integer")
        return value

    workers = _int_or_none("workers", obj.get("workers"))
    shards = _int_or_none("shards", obj.get("shards", raw_config.get("shards")))

    deadline_s = obj.get("deadline_s")
    if deadline_s is not None:
        if (
            isinstance(deadline_s, bool)
            or not isinstance(deadline_s, (int, float))
            or not deadline_s > 0
        ):
            raise ServeError.bad_request(
                "'deadline_s' must be a positive number"
            )
        deadline_s = float(deadline_s)

    options = obj.get("options", {})
    if not isinstance(options, Mapping):
        raise ServeError.bad_request("'options' must be a JSON object")
    for key, value in options.items():
        if not isinstance(key, str):
            raise ServeError.bad_request("option names must be strings")
        if not isinstance(value, (str, int, float, bool, type(None))):
            raise ServeError.bad_request(
                f"option {key!r} must be a JSON scalar"
            )

    overrides = {
        k: raw_config[k]
        for k in raw_config
        if k in _CONFIG_FIELDS and k not in _TOP_LEVEL_CONFIG
    }
    # Same defaults as the CLI / runtime.run with no explicit config.
    seed = obj.get("seed")
    tau = obj.get("tau")
    if seed is not None:
        overrides.setdefault("seed", seed)
    if tau is not None:
        overrides.setdefault("tau", tau)
    overrides.setdefault("seed", 0)
    overrides.setdefault("stage_threshold_factor", 1.0)
    try:
        config = ClusterConfig(**overrides)
    except (ConfigurationError, TypeError) as exc:
        raise ServeError.bad_request(f"invalid config: {exc}") from None

    return QueryRequest(
        graph=graph,
        algorithm=algorithm,
        config=config,
        executor=executor,
        workers=workers,
        shards=shards,
        options=tuple(sorted(options.items())),
        deadline_s=deadline_s,
    )


# --------------------------------------------------------------------- #
# Canonicalization and cache keys
# --------------------------------------------------------------------- #


def canonical_config(config: ClusterConfig) -> Dict[str, Any]:
    """A :class:`ClusterConfig` as a canonical, JSON-stable dict.

    Every dataclass field appears, sorted by name, with floats rendered
    through ``repr`` (bit-stable) — two configs produce the same
    canonical form iff they are equal, so equivalent spellings of the
    same parameters (defaults made explicit, ints for floats) collapse
    to one cache key and differing configs never collide.
    """
    out: Dict[str, Any] = {}
    for field in sorted(_CONFIG_FIELDS):
        out[field] = _canonical_value(getattr(config, field))
    return out


def _canonical_value(value: Any) -> Any:
    """One JSON-stable spelling per *equality class* of a config value.

    Frozen-dataclass equality is Python equality, so ``gamma=1`` and
    ``gamma=1.0`` are the *same* config and must share a cache key:
    integral numbers canonicalize to ``int`` (exact at any magnitude —
    going through ``float`` could alias distinct large ints), all other
    floats to their ``repr`` (bit-stable, round-trippable).
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        return repr(value)
    return repr(value)  # pragma: no cover - no other field kinds today


def cache_key(
    signature: Tuple[str, int, int],
    request: QueryRequest,
) -> str:
    """The result-cache key of a query against one store signature.

    Keyed by everything that can change the response payload: the store
    file identity (path, mtime_ns, size — mutating the graph invalidates
    every cached result), the algorithm, the canonicalized config, the
    execution platform (executor/workers/shards change counters such as
    bytes shipped and the critical-path model, and ``workers`` is part
    of the response), and the spec options.
    """
    blob = json.dumps(
        {
            "sig": list(signature),
            "algorithm": request.algorithm,
            "config": canonical_config(request.config),
            "executor": request.executor,
            "workers": request.workers,
            "shards": request.shards,
            "options": [
                [k, _canonical_value(v)] for k, v in request.options
            ],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


# --------------------------------------------------------------------- #
# Result serialization
# --------------------------------------------------------------------- #


def jsonify(value: Any) -> Any:
    """Recursively coerce numpy scalars/arrays into JSON-native types."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _hash_arrays(*arrays: np.ndarray) -> "hashlib._Hash":
    digest = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest


def result_digest(raw: Any) -> str:
    """A bit-stable digest of an algorithm's full result object.

    Responses do not ship whole clusterings (float64[n] arrays) over the
    wire; they ship this digest instead, and the concurrency parity
    suite recomputes it from a direct ``runtime.run()`` to prove the
    served result is bit-identical — same centers, same distances, not
    merely the same headline value.
    """
    # Clustering-shaped objects (center + dist_to_center arrays).
    center = getattr(raw, "center", None)
    dist = getattr(raw, "dist_to_center", None)
    if isinstance(center, np.ndarray) and isinstance(dist, np.ndarray):
        return _hash_arrays(center, dist).hexdigest()
    # DiameterEstimate: value + its clustering.
    clustering = getattr(raw, "clustering", None)
    if clustering is not None and hasattr(clustering, "center"):
        digest = _hash_arrays(
            np.asarray(clustering.center), np.asarray(clustering.dist_to_center)
        )
        digest.update(repr(float(getattr(raw, "value", 0.0))).encode())
        return digest.hexdigest()
    # SSSP distances.
    dist = getattr(raw, "dist", None)
    if isinstance(dist, np.ndarray):
        return _hash_arrays(dist).hexdigest()
    # Eccentricity bounds.
    lower = getattr(raw, "lower", None)
    upper = getattr(raw, "upper", None)
    if isinstance(lower, np.ndarray) and isinstance(upper, np.ndarray):
        return _hash_arrays(lower, upper).hexdigest()
    # Anything else (floats, component lists): canonical JSON of its
    # jsonified form.
    if isinstance(raw, (list, tuple)):
        rows = [
            dataclasses.asdict(r) if dataclasses.is_dataclass(r) else r
            for r in raw
        ]
        blob = json.dumps(jsonify(rows), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()
    blob = json.dumps(jsonify(raw), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def result_payload(result, signature: Tuple[str, int, int]) -> Dict[str, Any]:
    """The JSON-safe ``result`` section of a query response.

    Carries everything ``runtime.run`` reports — headline value, spec
    metrics, the full :class:`Counters` snapshot, per-phase wall-clock
    timings — plus the result digest and the graph's store signature, so
    a client can tell *which version* of a mutable graph answered.
    The ``serve`` metadata (cache/queue/scheduler state) is attached by
    the daemon per response, never cached.
    """
    graph = result.graph
    return {
        "algorithm": result.algorithm,
        "value": jsonify(result.value),
        "metrics": jsonify(dict(result.metrics)),
        "counters": jsonify(result.counters.snapshot()),
        "timings": jsonify(result.timings),
        "executor": result.executor,
        "workers": result.workers,
        "kernels": jsonify(result.counters.impl_snapshot()) or None,
        "elapsed_s": round(float(result.elapsed), 6),
        "digest": result_digest(result.raw),
        "graph": {
            "n": int(graph.num_nodes) if graph is not None else None,
            "m": int(graph.num_edges) if graph is not None else None,
            "signature": list(signature),
        },
    }
