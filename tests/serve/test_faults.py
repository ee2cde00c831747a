"""Fault injection: the daemon must survive misbehaving clients, runs
that fail mid-growth, and graphs mutating on disk — recovering without
leaked shared-memory segments or orphaned processes."""

from __future__ import annotations

import json
import os
import socket
import threading
import time

import pytest

from repro.generators import gnm_random_graph, mesh
from repro.graph import write_store
from repro.runtime import run
from repro.serve import ServeClient
from repro.serve.client import ServeRemoteError
from repro.serve.protocol import result_digest

from .conftest import shm_segments

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="fault suite drives POSIX processes/sockets"
)


class TestMalformedInput:
    def test_invalid_json_gets_error_not_disconnect(self, server):
        with ServeClient(socket_path=server.socket_path) as client:
            response = client.send_raw(b"this is not json\n")
            assert response["ok"] is False
            assert response["error"]["status"] == 400
            # Same connection still serves valid requests.
            assert client.ping()["pong"] is True

    def test_non_object_json_rejected(self, server):
        with ServeClient(socket_path=server.socket_path) as client:
            response = client.send_raw(b"[1, 2, 3]\n")
            assert response["error"]["status"] == 400
            assert client.ping()["pong"] is True

    def test_oversized_request_gets_413(self, make_server):
        handle = make_server(max_request_bytes=4096)
        with ServeClient(socket_path=handle.socket_path) as client:
            padding = "x" * 8192
            response = client.send_raw(
                json.dumps({"op": "ping", "pad": padding}).encode() + b"\n"
            )
            assert response["error"]["status"] == 413
            # Under the limit again: connection recovered.
            assert client.ping()["pong"] is True

    def test_request_past_stream_limit_closes_cleanly(self, make_server):
        # Past max_request_bytes + slack the reader cannot even frame
        # the line: the daemon answers 413 and drops the connection.
        handle = make_server(max_request_bytes=4096)
        with ServeClient(socket_path=handle.socket_path) as client:
            blob = b"y" * (4096 + 65536 + 4096) + b"\n"
            response = client.send_raw(blob)
            assert response["error"]["status"] == 413
        # The server is still alive for new connections.
        with ServeClient(socket_path=handle.socket_path) as client:
            assert client.ping()["pong"] is True

    def test_garbage_http_request_line(self, server):
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=30
        ) as raw:
            raw.sendall(b"GET not-a-valid-request\r\n\r\n")
            data = raw.makefile("rb").read()
        assert b"400" in data


class TestClientDisconnect:
    def test_disconnect_before_response(self, server, stored_graphs):
        """A client that fires a query and hangs up only kills its own
        connection; the query result still lands in the cache."""
        request = {
            "op": "query",
            "graph": stored_graphs["gnm"],
            "algorithm": "cluster",
            "config": {"tau": 6, "seed": 91},
        }
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.connect(server.socket_path)
            raw.sendall(json.dumps(request).encode() + b"\n")
            # Hang up immediately — the server will try to write the
            # response into a dead socket.
        deadline = time.time() + 60
        with ServeClient(socket_path=server.socket_path) as client:
            while time.time() < deadline:
                response = client.query(
                    stored_graphs["gnm"], "cluster", tau=6, seed=91
                )
                if response["serve"]["cache_hit"]:
                    break
                time.sleep(0.05)
            assert response["serve"]["cache_hit"] is True
            direct = run("cluster", stored_graphs["gnm"], tau=6, seed=91)
            assert response["digest"] == result_digest(direct.raw)

    def test_abrupt_reset_mid_stream(self, server):
        for _ in range(5):
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(server.socket_path)
            raw.sendall(b'{"op": "stats"')  # half a request, no newline
            # SO_LINGER(0) → RST instead of FIN on close.
            raw.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                __import__("struct").pack("ii", 1, 0),
            )
            raw.close()
        with ServeClient(socket_path=server.socket_path) as client:
            assert client.ping()["pong"] is True


def _sharded_engines(handle) -> list:
    """The daemon's resident sharded engines."""
    return [
        engine
        for entry in handle.server.graphs._entries.values()
        for engine in entry._engines.values()
        if getattr(engine.executor, "num_shards", None)
    ]


class TestBrokenRun:
    def test_failed_run_drops_the_engine(
        self, make_server, stored_graphs, monkeypatch
    ):
        """A run that raises mid-growth may leave its warm engine's
        shard state half-updated: the query fails 500, the engine is
        closed and dropped, and the next query rebuilds it and matches
        a direct run bit-for-bit."""
        from repro.mr.sharded import ShardedGrowingState

        before_shm = shm_segments()
        handle = make_server()
        with ServeClient(socket_path=handle.socket_path) as client:
            first = client.query(
                stored_graphs["big"], "cluster", tau=16, seed=21,
                executor="sharded", shards=2,
            )
            assert first["serve"]["cache_hit"] is False
            (warm,) = _sharded_engines(handle)

            original = ShardedGrowingState.step
            calls = [0]

            def step_then_fail(self, *args, **kwargs):
                calls[0] += 1
                if calls[0] == 2:
                    raise RuntimeError("injected mid-growth failure")
                return original(self, *args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(ShardedGrowingState, "step", step_then_fail)
                with pytest.raises(ServeRemoteError) as excinfo:
                    client.query(
                        stored_graphs["big"], "cluster", tau=16, seed=22,
                        executor="sharded", shards=2,
                    )
            assert excinfo.value.status == 500
            assert "injected mid-growth failure" in str(excinfo.value)
            assert _sharded_engines(handle) == []
            assert warm.executor._pool is None  # closed, shards released

            after = client.query(
                stored_graphs["big"], "cluster", tau=16, seed=23,
                executor="sharded", shards=2,
            )
            direct = run(
                "cluster", stored_graphs["big"], tau=16, seed=23,
                executor="sharded", shards=2,
            )
            assert after["digest"] == result_digest(direct.raw)
            assert after["counters"] == direct.counters.snapshot()
            (rebuilt,) = _sharded_engines(handle)
            assert rebuilt is not warm
        handle.stop()
        assert shm_segments() - before_shm == set()


class TestStoreMutation:
    def test_mutated_store_refreshes_and_purges_cache(
        self, make_server, tmp_path
    ):
        path = str(tmp_path / "mutable.rcsr")
        write_store(mesh(9, seed=1), path)
        handle = make_server()
        with ServeClient(socket_path=handle.socket_path) as client:
            first = client.query(path, "diameter", tau=8, seed=4)
            hit = client.query(path, "diameter", tau=8, seed=4)
            assert hit["serve"]["cache_hit"] is True
            old_signature = first["graph"]["signature"]

            # Rewrite the store in place with a different graph.
            write_store(gnm_random_graph(70, 180, seed=8, connect=True), path)

            fresh = client.query(path, "diameter", tau=8, seed=4)
            assert fresh["serve"]["cache_hit"] is False, (
                "stale cache hit after the store file changed"
            )
            assert fresh["graph"]["signature"] != old_signature
            assert fresh["graph"]["n"] == 70
            direct = run("diameter", path, tau=8, seed=4)
            assert fresh["digest"] == result_digest(direct.raw)

            # The pool noticed the refresh and the old residency is gone.
            stats = client.stats()
            assert stats["graphs"]["refreshes"] >= 1
            resident = {
                tuple(g["signature"]) for g in client.graphs()["graphs"]
            }
            assert tuple(old_signature) not in resident

            # Old cached results are purged, not just shadowed: a repeat
            # of the original query computes against the new graph.
            again = client.query(path, "diameter", tau=8, seed=4)
            assert again["digest"] == fresh["digest"]
        handle.stop()

    def test_deleted_store_is_not_found(self, make_server, tmp_path):
        path = str(tmp_path / "vanishing.rcsr")
        write_store(mesh(6, seed=2), path)
        handle = make_server()
        with ServeClient(socket_path=handle.socket_path) as client:
            client.query(path, "diameter", tau=8)
            os.unlink(path)
            with pytest.raises(ServeRemoteError) as excinfo:
                client.query(path, "diameter", tau=8, seed=99)
            assert excinfo.value.status == 404
            assert client.ping()["pong"] is True


class TestDeadlineDegradation:
    def test_expired_deadline_returns_degraded_not_500(
        self, make_server, stored_graphs
    ):
        handle = make_server(max_workers=1)
        with ServeClient(socket_path=handle.socket_path) as client:
            response = client.query(
                stored_graphs["big"], "cluster", tau=16, seed=31,
                executor="vector", deadline_s=1e-6,
            )
            assert response.get("degraded") is True
            assert response["reason"] == "deadline"
            assert response["deadline_s"] == 1e-6
            assert response["serve"]["cache_hit"] is False
            # The daemon survived; the same query without a deadline
            # completes and matches a direct run.
            full = client.query(
                stored_graphs["big"], "cluster", tau=16, seed=31,
                executor="vector",
            )
            assert "degraded" not in full
            direct = run(
                "cluster", stored_graphs["big"], tau=16, seed=31,
                executor="vector",
            )
            assert full["digest"] == result_digest(direct.raw)
        handle.stop()

    def test_server_default_deadline_applies(self, make_server, stored_graphs):
        handle = make_server(query_deadline_s=1e-6)
        with ServeClient(socket_path=handle.socket_path) as client:
            response = client.query(
                stored_graphs["gnm"], "cluster", tau=6, seed=41,
                executor="vector",
            )
            assert response.get("degraded") is True
            # A generous per-request deadline overrides the tiny default.
            ok = client.query(
                stored_graphs["gnm"], "cluster", tau=6, seed=41,
                executor="vector", deadline_s=300.0,
            )
            assert "degraded" not in ok
        handle.stop()

    def test_degraded_response_reports_checkpoint_metadata(
        self, make_server, stored_graphs
    ):
        """A degraded answer names the run's last durable round."""
        # Populate <store>.ckpt with the exact (algorithm, config) the
        # serve query will ask for; checkpoints every round.
        direct = run(
            "cluster", stored_graphs["big"], tau=16, seed=51,
            executor="vector", checkpoint_every="1",
        )
        saved = direct.counters.impl.get("checkpoint_rounds")
        assert saved, "precondition: the direct run wrote checkpoints"
        handle = make_server()
        with ServeClient(socket_path=handle.socket_path) as client:
            response = client.query(
                stored_graphs["big"], "cluster", tau=16, seed=51,
                executor="vector", deadline_s=1e-6,
            )
            assert response.get("degraded") is True
            assert response["checkpoint"] is not None
            assert response["checkpoint"]["round"] == max(saved)
            assert "uncovered" in response["checkpoint"]
        handle.stop()

    def test_deadline_is_not_part_of_the_cache_key(
        self, make_server, stored_graphs
    ):
        """A patient twin of a deadlined query still hits the cache."""
        handle = make_server()
        with ServeClient(socket_path=handle.socket_path) as client:
            first = client.query(
                stored_graphs["mesh"], "diameter", tau=8, seed=61,
                deadline_s=300.0,
            )
            assert "degraded" not in first
            twin = client.query(stored_graphs["mesh"], "diameter", tau=8,
                                seed=61)
            assert twin["serve"]["cache_hit"] is True
            assert twin["digest"] == first["digest"]
        handle.stop()

    def test_timed_out_counter_increments(self, make_server, stored_graphs):
        handle = make_server()
        with ServeClient(socket_path=handle.socket_path) as client:
            client.query(
                stored_graphs["gnm"], "cluster", tau=6, seed=71,
                executor="vector", deadline_s=1e-6,
            )
            stats = client.stats()
            assert stats["scheduler"]["timed_out"] >= 1
        handle.stop()


class TestShutdownDrain:
    def test_new_queries_rejected_while_shutting_down(
        self, make_server, stored_graphs
    ):
        """Post-shutdown queries get a 503 shutting-down, not a hang."""
        handle = make_server(shutdown_grace_s=5.0)
        with ServeClient(socket_path=handle.socket_path) as client:
            assert client.ping()["pong"] is True
            client.shutdown()
            # The daemon is draining; a query racing the socket teardown
            # sees either the structured 503 or a dropped/refused
            # connection — never an accepted query, never a hang.
            try:
                with ServeClient(
                    socket_path=handle.socket_path, timeout=30.0
                ) as late:
                    late.request({
                        "op": "query",
                        "graph": stored_graphs["mesh"],
                        "algorithm": "diameter",
                        "config": {"tau": 8},
                    })
                    raise AssertionError("query accepted during shutdown")
            except ServeRemoteError as err:
                assert err.status == 503
                assert err.kind == "shutting-down"
            except (ConnectionError, OSError):
                pass
        handle.stop()

    def test_queued_jobs_fail_fast_on_shutdown(self, stored_graphs, tmp_path):
        """Queued-but-unstarted queries drain with shutting-down errors
        and the daemon stops within the bounded grace."""
        from repro.serve import ServerConfig, start_server_thread

        handle = start_server_thread(
            ServerConfig(
                socket_path=str(tmp_path / "drain.sock"),
                max_workers=1,
                shutdown_grace_s=2.0,
            )
        )
        outcomes = []

        def fire(seed):
            try:
                with ServeClient(socket_path=handle.socket_path) as c:
                    outcomes.append(c.query(
                        stored_graphs["big"], "cluster", tau=16, seed=seed,
                        executor="vector",
                    ))
            except Exception as exc:  # noqa: BLE001 - recorded for asserts
                outcomes.append(exc)

        threads = [
            threading.Thread(target=fire, args=(800 + i,)) for i in range(3)
        ]
        for t in threads:
            t.start()
        time.sleep(0.3)  # let them enqueue behind the single worker
        t0 = time.time()
        handle.stop()
        stop_elapsed = time.time() - t0
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        # Bounded: the 2s grace plus teardown slack, not an unbounded
        # drain of every queued cold query.
        assert stop_elapsed < 30
        # Every query either completed or failed with the structured
        # shutting-down error / a torn connection — none hung.
        assert len(outcomes) == 3
        for outcome in outcomes:
            if isinstance(outcome, ServeRemoteError):
                assert outcome.status in (500, 503)


class TestLeakHygiene:
    def test_serve_lifecycle_leaks_nothing(self, tmp_path, stored_graphs):
        """Boot → mixed queries on every backend → stop: /dev/shm is
        clean and every resident sharded engine released its shards."""
        from repro.serve import ServerConfig, start_server_thread

        before_shm = shm_segments()
        handle = start_server_thread(
            ServerConfig(
                socket_path=str(tmp_path / "leak.sock"), max_workers=2
            )
        )
        with ServeClient(socket_path=handle.socket_path) as client:
            client.query(stored_graphs["mesh"], "diameter", tau=8)
            client.query(
                stored_graphs["mesh"], "cluster", tau=8,
                executor="vector",
            )
            client.query(
                stored_graphs["big"], "cluster", tau=16,
                executor="sharded", shards=2,
            )
            engines = _sharded_engines(handle)
        assert engines
        handle.stop()
        assert all(engine.executor._pool is None for engine in engines)
        assert shm_segments() - before_shm == set()
