"""Import budget: a native-tier CL-DIAM run loads only its own path.

scipy (``scipy.sparse.csgraph`` alone costs ~0.3 s and ~23 MB per
process) is the oracle of ``repro.exact`` / ``repro.baselines`` and the
py tier of the quotient diameter, and is imported only inside the
functions that use it.  These tests pin that down end to end, in fresh
interpreters: the one-shot CLI (``python -m repro run diameter``, via
``runpy``), ``import repro``, and a booted ``repro serve`` answering a
diameter query.  The py tier must print the same answer.

The package ``__init__`` modules export lazily (:mod:`repro._lazy`), so
the one-shot run also imports none of the generators, baselines, exact
oracles, partitioners or checkpoint code, and at most
:data:`RUN_MODULE_CEILING` repro modules in all.  A booted daemon has
already imported the run path, so its first cache miss does not.
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
    "print('repro-modules:', ','.join(sorted(m for m in sys.modules"
    " if m == 'repro' or m.startswith('repro.'))))\n"
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

_SERVE_BOOT = (
    "import sys\n"
    "from repro.serve import ServerConfig, start_server_thread\n"
    "handle = start_server_thread(ServerConfig(socket_path=sys.argv[1],"
    " max_workers=1))\n"
    "print('repro-modules:', ','.join(sorted(m for m in sys.modules"
    " if m == 'repro' or m.startswith('repro.'))))\n"
    "handle.stop()\n"
)

#: Packages and modules the native-tier vector run must not import.
OFF_THE_RUN_PATH = (
    "repro.generators",
    "repro.baselines",
    "repro.exact",
    "repro.bench",
    "repro.serve",
    "repro.graph.partition",
    "repro.graph.io",
    "repro.mr.partitioner",
    "repro.runtime.checkpoint",
    "repro.core.cluster2",
    "repro.mrimpl.cluster2_mr",
)

#: Most repro modules the native-tier vector run may import (68 when
#: every package ``__init__`` imported its whole package eagerly).
RUN_MODULE_CEILING = 40

#: What ``repro serve`` imports before it reports ready.
SERVE_RUN_PATH = (
    "repro.runtime.runner",
    "repro.mrimpl.diameter_mr",
    "repro.mrimpl.cluster_mr",
)

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


def _listed(stdout, label):
    line = next(ln for ln in stdout.splitlines() if ln.startswith(label))
    return [m for m in line.split(":", 1)[1].strip().split(",") if m]


def _scipy_modules(stdout):
    return _listed(stdout, "scipy-modules:")


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
def test_native_cli_run_imports_only_its_own_path(store):
    loaded = _listed(_python(_RUN, store), "repro-modules:")
    assert "repro.mrimpl.diameter_mr" in loaded  # the listing is the run's
    off_path = [
        m for m in loaded
        if any(m == p or m.startswith(p + ".") for p in OFF_THE_RUN_PATH)
    ]
    assert off_path == []
    assert len(loaded) <= RUN_MODULE_CEILING, loaded


def test_serve_imports_the_run_path_before_it_is_ready(tmp_path):
    loaded = _listed(
        _python(_SERVE_BOOT, str(tmp_path / "boot.sock")), "repro-modules:"
    )
    assert [m for m in SERVE_RUN_PATH if m not in loaded] == []


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
