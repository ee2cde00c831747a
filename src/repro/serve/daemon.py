"""The ``repro serve`` daemon: a persistent graph-analytics server.

One asyncio process holds everything a one-shot CLI run rebuilds from
scratch — mmap'd :class:`CSRGraph` stores, warm MR engines (scratch
banks, resident shard workers), and a result cache — behind a
concurrent query scheduler:

* connections arrive on a unix socket (``--socket``) and/or a TCP port
  (``--port``); the first request line is sniffed, so **both** surfaces
  work on **either** listener: newline-delimited JSON for ``repro
  shell``/:class:`ServeClient`, plain HTTP/1.1 + JSON for everything
  else (``POST /query``, ``GET /healthz|stats|graphs|algorithms``);
* queries run through :func:`repro.runtime.run` on a bounded worker
  pool with per-graph FIFO queues and 429-style backpressure (see
  :mod:`repro.serve.scheduler`);
* results are cached by (store signature, algorithm, canonical config,
  platform) — a repeat query on an unchanged graph is answered from the
  event loop in O(1), never waiting behind a cold run;
* every response carries the full counters snapshot, per-phase
  timings, and ``serve`` metadata (cache hit, queue wait, scheduler
  state), so the server is observable from the first request.

Fault containment: malformed or oversized requests get error responses
without killing the connection; a client disconnecting mid-response
only ends that connection; a broken engine (a run that raised
mid-query) is closed and dropped so the next query rebuilds it; a store
file mutated under a resident graph is detected by its (mtime, size)
signature — the stale residency is retired and its cached results are
purged.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro._version import __version__
from repro.errors import ConfigurationError, ReproError
from repro.runtime.store import GraphStore
from repro.serve.admission import AdmissionController, estimate_query_cost
from repro.serve.cache import ResultCache
from repro.serve.graphs import GraphPool
from repro.serve.protocol import (
    DEFAULT_MAX_REQUEST_BYTES,
    PROTOCOL_VERSION,
    QueryRequest,
    ServeError,
    cache_key,
    parse_query,
    result_payload,
)
from repro.serve.scheduler import QueryScheduler

__all__ = ["ServerConfig", "ReproServer", "ServerHandle", "start_server_thread"]

#: HTTP methods we sniff an HTTP connection by.
_HTTP_METHODS = (
    b"GET ", b"POST ", b"HEAD ", b"PUT ", b"DELETE ", b"OPTIONS ", b"PATCH "
)

_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class ServerConfig:
    """Everything ``repro serve`` can tune, with test-friendly defaults."""

    socket_path: Optional[str] = None
    host: str = "127.0.0.1"
    port: Optional[int] = None
    max_workers: int = 2
    max_queue_depth: int = 16
    max_pending: int = 64
    cache_entries: int = 256
    graph_capacity: int = 8
    engine_capacity: int = 4
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES
    store_dir: Optional[str] = None
    allow_shutdown: bool = True
    preload: Tuple[str, ...] = field(default_factory=tuple)
    #: Default per-query wall-clock budget in seconds (``None`` = no
    #: deadline).  A request's own ``deadline_s`` overrides it.  On
    #: expiry the query gets a ``degraded: true`` response carrying the
    #: run's last-checkpoint metadata instead of an error.
    query_deadline_s: Optional[float] = None
    #: Seconds shutdown waits for in-flight queries before abandoning
    #: them (queued queries are rejected immediately).
    shutdown_grace_s: float = 5.0
    #: Resident-memory budget in bytes (``None`` = unlimited).  A query
    #: whose estimated cost does not fit alongside the resident graphs
    #: is shed with a structured 503 ``over-budget`` + retry-after.
    memory_budget: Optional[int] = None
    #: Per-client query rate limit in requests/second (``None`` = off);
    #: an exhausted token bucket answers 429 ``rate-limited``.
    rate_limit: Optional[float] = None
    #: Token-bucket burst capacity (default: max(rate_limit, 1)).
    rate_burst: Optional[float] = None

    def __post_init__(self):
        if self.socket_path is None and self.port is None:
            raise ConfigurationError(
                "repro serve needs --socket and/or --port"
            )
        if self.query_deadline_s is not None and not self.query_deadline_s > 0:
            raise ConfigurationError("query_deadline_s must be positive")
        if not self.shutdown_grace_s >= 0:
            raise ConfigurationError("shutdown_grace_s must be >= 0")
        if self.memory_budget is not None and not self.memory_budget > 0:
            raise ConfigurationError("memory_budget must be positive")
        if self.rate_limit is not None and not self.rate_limit > 0:
            raise ConfigurationError("rate_limit must be positive")


class ReproServer:
    """The daemon; create, then ``asyncio.run(server.serve_forever())``."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.store = GraphStore(
            cache_dir=config.store_dir, capacity=config.graph_capacity
        )
        self.graphs = GraphPool(
            self.store,
            capacity=config.graph_capacity,
            engine_capacity=config.engine_capacity,
        )
        self.cache = ResultCache(capacity=config.cache_entries)
        self.scheduler = QueryScheduler(
            max_workers=config.max_workers,
            max_queue_depth=config.max_queue_depth,
            max_pending=config.max_pending,
        )
        self.admission = AdmissionController(
            memory_budget=config.memory_budget,
            rate_limit=config.rate_limit,
            rate_burst=config.rate_burst,
        )
        self.started_at: Optional[float] = None
        self.bound_port: Optional[int] = None
        self.connections = 0
        self.requests = 0
        self._servers = []
        self._stop_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Set the moment shutdown starts: new queries are rejected with
        #: a clean 503 ``shutting-down`` error instead of racing the
        #: closing scheduler.
        self._closing = False
        #: Open connection writers, closed explicitly at shutdown — a
        #: handler cancelled by the dying event loop never finishes its
        #: own close, which would leave clients blocked on a socket
        #: nobody will ever write to.
        self._writers: set = set()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        # Load the run path before the daemon reports ready, so the
        # first cache miss does not pay for its imports.
        import repro.mrimpl.diameter_mr  # noqa: F401
        import repro.runtime.runner  # noqa: F401

        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.scheduler.start(self._loop)
        # Stream limit above the request bound so an oversized line is
        # diagnosed by our own check (413 + keep the connection) before
        # the reader gives up on it.
        limit = self.config.max_request_bytes + 65536
        if self.config.socket_path is not None:
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle_connection,
                    path=self.config.socket_path,
                    limit=limit,
                )
            )
        if self.config.port is not None:
            server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.host,
                port=self.config.port,
                limit=limit,
            )
            self.bound_port = server.sockets[0].getsockname()[1]
            self._servers.append(server)
        self.started_at = time.time()
        for path in self.config.preload:
            await self._loop.run_in_executor(
                None, functools.partial(self.graphs.resolve, path)
            )

    async def serve_forever(self) -> None:
        if not self._servers:
            await self.start()
        await self._stop_event.wait()
        await self._shutdown()

    def request_shutdown(self) -> None:
        """Signal the daemon to stop (threadsafe)."""
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed — nothing left to stop

    async def _shutdown(self) -> None:
        self._closing = True
        # Unlink the unix socket path *before* touching the listener: a
        # unix connection that only ever reaches the listen backlog gets
        # no RST when the listening fd closes, so a client dialing into
        # the shutdown race would block forever on a connected-but-
        # never-accepted socket.  With the path gone, late dialers fail
        # fast (ENOENT); dialers already queued are still accepted below
        # — the listeners stay open through the drain — and answered
        # with the structured 503 ``shutting-down`` by ``_dispatch``.
        if self.config.socket_path is not None:
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass
        await self.scheduler.close(grace_s=self.config.shutdown_grace_s)
        # One tick so connections accepted during the drain reach
        # ``_dispatch`` and flush their rejection before the hang-up.
        await asyncio.sleep(0)
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        # Hang up every surviving connection while the loop can still
        # flush the FIN: connections accepted in the close race (or
        # idle keep-alives) must see EOF, not block forever.
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:  # pragma: no cover - already torn down
                pass
        for writer in list(self._writers):
            try:
                await writer.wait_closed()
            except Exception:
                pass
        self._writers.clear()
        self.graphs.close()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(self, reader, writer) -> None:
        self.connections += 1
        self._writers.add(writer)
        try:
            first = await self._read_line(reader)
            if first is None or first == b"":
                return
            if first == b"__TOO_LARGE__":
                await self._send_line(
                    writer,
                    ServeError.too_large("request line too large").as_response(),
                )
                return
            if any(first.startswith(m) for m in _HTTP_METHODS):
                await self._handle_http(reader, writer, first)
            else:
                await self._handle_ndjson(reader, writer, first)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_line(self, reader) -> Optional[bytes]:
        """One request line, or the too-large sentinel, or ``None`` at EOF."""
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            return b"__TOO_LARGE__"
        return line

    async def _send_line(self, writer, obj: Dict[str, Any]) -> None:
        writer.write(json.dumps(obj).encode() + b"\n")
        await writer.drain()

    # ------------------------------------------------------------------ #
    # NDJSON surface
    # ------------------------------------------------------------------ #

    async def _handle_ndjson(self, reader, writer, first: bytes) -> None:
        line: Optional[bytes] = first
        while True:
            if line is None:
                line = await self._read_line(reader)
            if line is None or line == b"":
                return  # EOF
            if line == b"__TOO_LARGE__":
                # The reader lost line sync; answer and drop the
                # connection (the client cannot tell where its next
                # request boundary is either).
                await self._send_line(
                    writer,
                    ServeError.too_large(
                        "request exceeds stream limit"
                    ).as_response(),
                )
                return
            if len(line) > self.config.max_request_bytes:
                await self._send_line(
                    writer,
                    ServeError.too_large(
                        f"request of {len(line)} bytes exceeds the "
                        f"{self.config.max_request_bytes}-byte limit"
                    ).as_response(),
                )
                line = None
                continue
            if not line.strip():
                line = None
                continue
            response = await self._dispatch_raw(line)
            await self._send_line(writer, response)
            line = None

    async def _dispatch_raw(self, line: bytes) -> Dict[str, Any]:
        self.requests += 1
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            return ServeError.bad_request(f"invalid JSON: {exc}").as_response()
        if not isinstance(obj, dict):
            return ServeError.bad_request(
                "request must be a JSON object"
            ).as_response()
        request_id = obj.get("id")
        try:
            result = await self._dispatch(obj)
        except ServeError as exc:
            return exc.as_response(request_id)
        except Exception as exc:  # pragma: no cover - defensive
            return ServeError.internal(
                f"{type(exc).__name__}: {exc}"
            ).as_response(request_id)
        response: Dict[str, Any] = {"ok": True, "result": result}
        if request_id is not None:
            response["id"] = request_id
        return response

    # ------------------------------------------------------------------ #
    # Ops
    # ------------------------------------------------------------------ #

    async def _dispatch(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        op = obj.get("op", "query")
        if self._closing and op in ("query", "open"):
            raise ServeError.shutting_down(
                "server is shutting down; not accepting new queries"
            )
        if op == "ping":
            return {"pong": True, "version": __version__,
                    "protocol": PROTOCOL_VERSION}
        if op == "stats":
            return self.stats()
        if op == "graphs":
            return {"graphs": self.graphs.infos()}
        if op == "algorithms":
            return {"algorithms": self._algorithms()}
        if op == "open":
            return await self._op_open(obj)
        if op == "shutdown":
            if not self.config.allow_shutdown:
                raise ServeError.bad_request(
                    "shutdown is disabled on this server"
                )
            self.request_shutdown()
            return {"stopping": True}
        if op == "query":
            return await self._op_query(obj)
        raise ServeError.bad_request(
            f"unknown op {op!r}; expected one of query|ping|stats|graphs|"
            "algorithms|open|shutdown"
        )

    def _algorithms(self):
        from repro.runtime import REGISTRY

        return [
            {
                "name": spec.name,
                "summary": spec.summary,
                "supports_executor": spec.supports_executor,
                "options": list(spec.option_names),
            }
            for spec in sorted(REGISTRY, key=lambda s: s.name)
        ]

    async def _op_open(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        path = obj.get("graph")
        if not isinstance(path, str) or not path:
            raise ServeError.bad_request("'graph' must be a non-empty path")
        key = self.graphs.path_key(path)

        def job():
            entry, retired = self.graphs.resolve(path)
            if retired is not None:
                self.cache.invalidate_signature(retired)
            return entry.info()

        info, _wait = await self.scheduler.submit(key, job)
        return {"graph": info}

    async def _op_query(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        request = parse_query(obj)
        client = obj.get("client")
        self.admission.check_rate(client if isinstance(client, str) else None)
        key = self.graphs.path_key(request.graph)

        # Admission-time cache probe: a hit is answered from the event
        # loop without touching the scheduler, so repeats on an
        # unchanged graph are O(1) even while cold queries queue.
        signature = self.graphs.peek_signature(request.graph)
        if signature is not None:
            cached = self.cache.get(cache_key(signature, request))
            if cached is not None:
                return self._attach_serve(cached, cache_hit=True, wait=0.0)

        # Memory admission: a cold query must fit the budget alongside
        # what is already resident (cache hits above cost nothing, so
        # they are never shed).
        if self.admission.memory_budget is not None:
            cost = estimate_query_cost(key)
            if cost is None:
                # No binary store yet: estimate from the source file
                # the residency path would convert.
                cost = estimate_query_cost(request.graph)
            self.admission.check_memory(
                cost, self.graphs.resident_bytes(exclude=key)
            )

        deadline = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.query_deadline_s
        )
        job = functools.partial(self._execute_query, request)
        try:
            (payload, was_hit), wait = await self.scheduler.submit(
                key, job, deadline_s=deadline
            )
        except asyncio.TimeoutError:
            return self._degraded_response(request, deadline)
        return self._attach_serve(payload, cache_hit=was_hit, wait=wait)

    def _degraded_response(
        self, request: QueryRequest, deadline: Optional[float]
    ) -> Dict[str, Any]:
        """The deadline-expired answer: degraded metadata, not a 500.

        Reports how far the (still-running or abandoned) computation
        got via the run's last durable checkpoint — round reached,
        frontier size — when the query's algorithm checkpoints to the
        graph's ``<store>.ckpt`` tree; ``checkpoint`` is ``null``
        otherwise.
        """
        checkpoint = None
        try:
            from repro.runtime.checkpoint import (
                checkpoint_dir_for,
                latest_metadata,
            )

            signature = self.graphs.peek_signature(request.graph)
            if signature is None:
                signature = self.store.signature(request.graph)
            ckpt_dir = checkpoint_dir_for(
                request.algorithm, request.config, store_path=signature[0]
            )
            if ckpt_dir is not None:
                checkpoint = latest_metadata(ckpt_dir)
        except Exception:
            checkpoint = None  # metadata is best-effort, never an error
        return {
            "degraded": True,
            "reason": "deadline",
            "deadline_s": deadline,
            "algorithm": request.algorithm,
            "graph": request.graph,
            "checkpoint": checkpoint,
            "serve": {
                "cache_hit": False,
                "pending": self.scheduler.pending,
                "running": self.scheduler.running,
            },
        }

    def _attach_serve(
        self, payload: Dict[str, Any], *, cache_hit: bool, wait: float
    ) -> Dict[str, Any]:
        out = dict(payload)  # cached payloads are immutable; copy first
        out["serve"] = {
            "cache_hit": cache_hit,
            "queue_wait_s": round(wait, 6),
            "pending": self.scheduler.pending,
            "running": self.scheduler.running,
        }
        return out

    # ------------------------------------------------------------------ #
    # Query execution (worker thread)
    # ------------------------------------------------------------------ #

    def _execute_query(
        self, request: QueryRequest
    ) -> Tuple[Dict[str, Any], bool]:
        """Resolve → cache-check → run → cache.  Returns (payload, hit)."""
        from repro.runtime import run

        entry, retired = self.graphs.resolve(request.graph)
        if retired is not None:
            self.cache.invalidate_signature(retired)
        key = cache_key(entry.signature, request)
        cached = self.cache.get(key)
        if cached is not None:
            # A twin query completed while this one waited in the queue.
            return cached, True

        with entry.lock:
            entry.queries += 1
            try:
                engine = entry.get_engine(
                    request.executor, request.workers, request.shards
                )
                result = run(
                    request.algorithm,
                    entry.graph,
                    config=request.config,
                    executor=request.executor,
                    workers=request.workers,
                    shards=request.shards,
                    engine=engine,
                    store=self.store,
                    **request.option_dict(),
                )
            except KeyError as exc:
                raise ServeError.not_found(str(exc.args[0]) if exc.args else str(exc))
            except ConfigurationError as exc:
                raise ServeError.bad_request(str(exc))
            except ReproError as exc:
                raise ServeError.bad_request(f"{type(exc).__name__}: {exc}")
            except Exception as exc:
                # A run that died mid-way may leave the warm engine's
                # shard state poisoned: close and drop it so the next
                # run rebuilds from scratch.
                entry.drop_engine(
                    request.executor, request.workers, request.shards
                )
                raise ServeError.internal(f"{type(exc).__name__}: {exc}")

        payload = result_payload(result, entry.signature)
        self.cache.put(key, payload)
        return payload, False

    # ------------------------------------------------------------------ #
    # HTTP surface
    # ------------------------------------------------------------------ #

    async def _handle_http(self, reader, writer, first: bytes) -> None:
        try:
            method, target = self._parse_request_line(first)
        except ServeError as exc:
            await self._send_http(writer, exc.status, exc.as_response())
            return
        headers: Dict[str, str] = {}
        while True:
            line = await self._read_line(reader)
            if line in (None, b"__TOO_LARGE__"):
                return
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                length = int(length)
            except ValueError:
                await self._send_http(
                    writer, 400,
                    ServeError.bad_request("bad Content-Length").as_response(),
                )
                return
            if length > self.config.max_request_bytes:
                await self._send_http(
                    writer, 413,
                    ServeError.too_large(
                        f"body of {length} bytes exceeds the "
                        f"{self.config.max_request_bytes}-byte limit"
                    ).as_response(),
                )
                return
            body = await reader.readexactly(length)

        self.requests += 1
        status, response = await self._route_http(method, target, body)
        await self._send_http(writer, status, response)

    def _parse_request_line(self, line: bytes) -> Tuple[str, str]:
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise ServeError.bad_request("malformed HTTP request line")
        return parts[0], parts[1]

    async def _route_http(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        try:
            if method in ("GET", "HEAD"):
                if path in ("/", "/healthz"):
                    return 200, {"ok": True, "version": __version__,
                                 "protocol": PROTOCOL_VERSION}
                if path == "/stats":
                    return 200, {"ok": True, "result": self.stats()}
                if path == "/graphs":
                    return 200, {"ok": True,
                                 "result": {"graphs": self.graphs.infos()}}
                if path == "/algorithms":
                    return 200, {
                        "ok": True,
                        "result": {"algorithms": self._algorithms()},
                    }
                raise ServeError.not_found(f"no such resource: {path}")
            if method == "POST":
                if path in ("/query", "/open", "/shutdown"):
                    try:
                        obj = json.loads(body) if body else {}
                    except json.JSONDecodeError as exc:
                        raise ServeError.bad_request(f"invalid JSON body: {exc}")
                    if not isinstance(obj, dict):
                        raise ServeError.bad_request(
                            "body must be a JSON object"
                        )
                    obj["op"] = path.lstrip("/")
                    result = await self._dispatch(obj)
                    return 200, {"ok": True, "result": result}
                raise ServeError.not_found(f"no such resource: {path}")
            return 405, ServeError(
                "method-not-allowed", f"{method} not supported", 405
            ).as_response()
        except ServeError as exc:
            return exc.status, exc.as_response()
        except Exception as exc:  # pragma: no cover - defensive
            err = ServeError.internal(f"{type(exc).__name__}: {exc}")
            return err.status, err.as_response()

    async def _send_http(
        self, writer, status: int, payload: Dict[str, Any]
    ) -> None:
        body = json.dumps(payload).encode()
        reason = _HTTP_REASONS.get(status, "OK")
        retry_after = ""
        retry_after_s = (payload.get("error") or {}).get("retry_after_s")
        if retry_after_s is not None:
            # HTTP Retry-After is integral seconds; round up so a
            # compliant client never retries before the hint.
            import math

            retry_after = (
                f"Retry-After: {max(1, math.ceil(retry_after_s))}\r\n"
            )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{retry_after}"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, Any]:
        return {
            "version": __version__,
            "protocol": PROTOCOL_VERSION,
            "uptime_s": round(time.time() - self.started_at, 3)
            if self.started_at
            else 0.0,
            "connections": self.connections,
            "requests": self.requests,
            "scheduler": self.scheduler.snapshot(),
            "admission": self.admission.snapshot(),
            "cache": self.cache.snapshot(),
            "graphs": self.graphs.snapshot(),
        }


# --------------------------------------------------------------------- #
# Thread harness (tests, benchmarks, and the shell's --spawn mode)
# --------------------------------------------------------------------- #


class ServerHandle:
    """A running daemon on a background thread."""

    def __init__(self, server: ReproServer, thread: threading.Thread):
        self.server = server
        self.thread = thread

    @property
    def socket_path(self) -> Optional[str]:
        return self.server.config.socket_path

    @property
    def port(self) -> Optional[int]:
        return self.server.bound_port

    def stop(self, timeout: float = 30.0) -> None:
        if not self.thread.is_alive():
            return
        self.server.request_shutdown()
        self.thread.join(timeout)
        if self.thread.is_alive():  # pragma: no cover - hang diagnostics
            raise RuntimeError("serve daemon did not stop in time")

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_server_thread(
    config: ServerConfig, *, start_timeout: float = 30.0
) -> ServerHandle:
    """Boot a :class:`ReproServer` on a daemon thread and wait until it
    accepts connections.  The returned handle stops it cleanly."""
    server = ReproServer(config)
    started = threading.Event()
    failure: list = []

    async def main():
        try:
            await server.start()
        except Exception as exc:
            failure.append(exc)
            started.set()
            return
        started.set()
        await server._stop_event.wait()
        await server._shutdown()

    thread = threading.Thread(
        target=lambda: asyncio.run(main()), name="repro-serve", daemon=True
    )
    thread.start()
    if not started.wait(start_timeout):  # pragma: no cover - hang diagnostics
        raise RuntimeError("serve daemon did not start in time")
    if failure:
        thread.join(5.0)
        raise failure[0]
    return ServerHandle(server, thread)
