"""Fork safety of the native tier's threaded emit pool.

``repro.mr.native`` keeps one module-global ``ThreadPoolExecutor`` for
the threaded emit.  ``fork`` copies that object into a child but none of
its threads, so a forked sharded worker that reused it would wait
forever on chunks no thread runs.  The module resets the pool in every
forked child; these tests pin that, directly and end to end (a vector
run that builds the pool, then a sharded run in the same process).
"""

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.mr import native

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fork-only hazard"
)

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: Hard deadline for the end-to-end child; a hang fails the test
#: instead of stalling the suite.
DEADLINE_S = 120


def test_forked_child_starts_without_the_parent_pool():
    pool = native._get_pool(2)
    assert pool.submit(lambda: 7).result() == 7
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        ok = native._pool is None and native._pool_size == 0
        if ok:
            # A fresh pool in the child actually runs work.
            ok = native._get_pool(2).submit(lambda: 7).result() == 7
        os.write(write, b"1" if ok else b"0")
        os._exit(0)
    os.close(write)
    try:
        verdict = os.read(read, 1)
    finally:
        os.close(read)
        os.waitpid(pid, 0)
    assert verdict == b"1"
    assert native._pool is pool  # the parent keeps its own pool


_VECTOR_THEN_SHARDED = textwrap.dedent(
    """
    import os
    os.environ["REPRO_EMIT_THREADS"] = "2"
    from repro.core.config import ClusterConfig
    from repro.generators import rmat
    from repro.graph.ops import largest_connected_component
    from repro.mr import native
    from repro.mrimpl.diameter_mr import mr_approximate_diameter
    from repro.mrimpl.growing_mr import default_engine

    graph = largest_connected_component(rmat(11, edge_factor=8, seed=3))[0]
    config = ClusterConfig(seed=5, tau=16)
    answers = []
    for executor in ("vector", "sharded"):
        engine = default_engine(graph, executor=executor, num_workers=2)
        try:
            est = mr_approximate_diameter(graph, config=config, engine=engine)
        finally:
            if hasattr(engine.executor, "close"):
                engine.executor.close()
        answers.append((est.value, est.counters.snapshot()))
    assert answers[0] == answers[1], answers
    print("pool", native._pool is not None or not native.use_native())
    """
)


def test_vector_then_sharded_in_one_process_completes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    # A new session, so a hang can take the forked shard workers down
    # with the child.
    proc = subprocess.Popen(
        [sys.executable, "-c", _VECTOR_THEN_SHARDED],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:  # pragma: no cover - the regression
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"vector then sharded run hung past {DEADLINE_S}s")
    assert proc.returncode == 0, stderr
    # With the native tier the vector run must really have built the
    # emit pool, or the sharded fork would not exercise the reset.
    assert "pool True" in stdout
