"""Import budget: a native-tier CL-DIAM run never loads scipy.

scipy (``scipy.sparse.csgraph`` alone costs ~0.3 s and ~23 MB per
process) is the oracle of ``repro.exact`` / ``repro.baselines`` and the
py tier of the quotient diameter, and is imported only inside the
functions that use it.  These tests pin that down end to end, in fresh
interpreters: the one-shot CLI (``python -m repro run diameter``, via
``runpy``), ``import repro``, and a booted ``repro serve`` answering a
diameter query.  The py tier must print the same answer.
"""

import os
import subprocess
import sys

import pytest

from repro.generators import mesh
from repro.graph import write_store
from repro.mr import native

needs_native = pytest.mark.skipif(
    not native.native_available(),
    reason="native kernel tier unavailable (no C toolchain)",
)

_REPORT = (
    "mods = sorted(m for m in sys.modules"
    " if m == 'scipy' or m.startswith('scipy.'))\n"
    "print('scipy-modules:', ','.join(mods))\n"
)

_RUN = (
    "import runpy, sys\n"
    "sys.argv = ['repro', 'run', 'diameter', sys.argv[1], '--tau', '8',"
    " '--seed', '1', '--executor', 'vector']\n"
    "try:\n"
    "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    assert not exc.code, exc.code\n"
    "import repro, repro.serve.daemon\n"
) + _REPORT

_SERVE = (
    "import sys\n"
    "from repro.serve import ServeClient, ServerConfig, start_server_thread\n"
    "store, sock = sys.argv[1], sys.argv[2]\n"
    "handle = start_server_thread(ServerConfig(socket_path=sock,"
    " preload=(store,), max_workers=1))\n"
    "with ServeClient(socket_path=sock) as client:\n"
    "    result = client.query(store, 'diameter', tau=8, seed=1,"
    " executor='vector')\n"
    "assert result['value'] > 0, result\n"
    "handle.stop()\n"
) + _REPORT

#: CLI lines that carry the answer (the tier and timing lines differ).
_ANSWER_KEYS = (
    "value", "estimate", "quotient_diameter", "radius", "clusters",
    "quotient_exact", "rounds", "work",
)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    path = tmp_path_factory.mktemp("import-budget") / "mesh.rcsr"
    write_store(mesh(24, seed=1), str(path))
    return str(path)


def _python(code, *args, py_tier=False):
    env = dict(os.environ)
    env.pop(native.KERNEL_IMPL_ENV, None)
    if py_tier:
        env[native.KERNEL_IMPL_ENV] = "py"
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _scipy_modules(stdout):
    line = next(
        ln for ln in stdout.splitlines() if ln.startswith("scipy-modules:")
    )
    return [m for m in line.split(":", 1)[1].strip().split(",") if m]


def _answer(stdout):
    return [
        ln for ln in stdout.splitlines()
        if ln.split(":", 1)[0].strip() in _ANSWER_KEYS
    ]


@needs_native
def test_native_cli_run_never_loads_scipy(store):
    out = _python(_RUN, store)
    assert "kernels      : native" in out
    assert _scipy_modules(out) == []


@needs_native
def test_serve_boot_and_query_never_load_scipy(store, tmp_path):
    out = _python(_SERVE, store, str(tmp_path / "budget.sock"))
    assert _scipy_modules(out) == []


def test_py_tier_prints_the_same_answer(store):
    native_out = _python(_RUN, store)
    py_out = _python(_RUN, store, py_tier=True)
    assert "kernels      : py" in py_out
    assert len(_answer(py_out)) == len(_ANSWER_KEYS)
    assert _answer(native_out) == _answer(py_out)
