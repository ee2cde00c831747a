"""End-to-end A/B parity of the emit pipeline directions.

``REPRO_EMIT_MODE`` switches every fused execution path between push,
pull, and auto (direction by degree-sum, frozen-emission cache where
legal) expansion.  This suite runs the full CLUSTER / CLUSTER2 / CL-DIAM
drivers on a seeded R-MAT under every mode and across every executor,
and asserts the strongest possible contract: bit-identical clusterings
and bit-identical ``rounds`` / ``messages`` / ``updates`` /
``growing_steps`` counters.  The fixed point is the per-key oracle of
``tests/oracle/mr_literal.py``, which ignores the direction switch; it
counts pair traffic, so its ``messages`` are not compared
(``tests/mr/test_emit.py`` checks the fused emission counts against the
``emit_frontier`` oracle).  The CI
``bench-regression`` job runs this file before believing any benchmark.
"""

import os

import numpy as np
import pytest
from mr_literal import literal_engine

from repro.core.cluster import cluster
from repro.core.config import ClusterConfig
from repro.generators import rmat
from repro.graph.ops import largest_connected_component
from repro.mr.emit import EMIT_ENV
from repro.mrimpl.cluster2_mr import mr_cluster2
from repro.mrimpl.cluster_mr import mr_cluster
from repro.mrimpl.diameter_mr import mr_approximate_diameter
from repro.mrimpl.growing_mr import default_engine

EXECUTORS = ("vector", "sharded")
MODES = ("push", "pull", "auto")
CFG = ClusterConfig(seed=42, stage_threshold_factor=1.0, tau=16)


@pytest.fixture(scope="module")
def graph():
    return largest_connected_component(rmat(9, edge_factor=8, seed=11))[0]


@pytest.fixture()
def mode_env():
    """Restore the direction switch after each test."""
    before = os.environ.get(EMIT_ENV)
    yield
    if before is None:
        os.environ.pop(EMIT_ENV, None)
    else:
        os.environ[EMIT_ENV] = before


def run_mr(graph, algorithm, executor, mode):
    os.environ[EMIT_ENV] = mode
    if executor == "literal":
        engine = literal_engine(graph, num_workers=2)
    else:
        engine = default_engine(graph, executor=executor, num_workers=2)
    try:
        return algorithm(graph, config=CFG, engine=engine)
    finally:
        if hasattr(engine.executor, "close"):
            engine.executor.close()


def assert_identical(a, b, *, messages=True):
    np.testing.assert_array_equal(a.center, b.center)
    np.testing.assert_array_equal(a.dist_to_center, b.dist_to_center)
    assert a.counters.rounds == b.counters.rounds
    if messages:
        assert a.counters.messages == b.counters.messages
    assert a.counters.updates == b.counters.updates
    assert a.counters.growing_steps == b.counters.growing_steps


@pytest.mark.parametrize("executor", EXECUTORS)
def test_modes_agree_on_every_executor(graph, executor, mode_env):
    """CLUSTER: push == pull == auto on each executor."""
    results = {
        mode: run_mr(graph, mr_cluster, executor, mode) for mode in MODES
    }
    assert_identical(results["push"], results["pull"])
    assert_identical(results["push"], results["auto"])


@pytest.mark.parametrize("algorithm", [mr_cluster, mr_cluster2])
@pytest.mark.parametrize("mode", MODES)
def test_modes_match_oracle(graph, algorithm, mode, mode_env):
    """Each direction equals the per-key oracle (which ignores the
    direction switch — it *is* the fixed point)."""
    reference = run_mr(graph, algorithm, "literal", "push")
    assert_identical(
        run_mr(graph, algorithm, "vector", mode), reference, messages=False
    )


@pytest.mark.parametrize("executor", ("vector", "sharded"))
@pytest.mark.parametrize("mode", MODES)
def test_cluster2_modes_across_backends(graph, executor, mode, mode_env):
    """CLUSTER2 exercises rescaling (the cache-ineligible branch)."""
    reference = run_mr(graph, mr_cluster2, "vector", "push")
    assert_identical(run_mr(graph, mr_cluster2, executor, mode), reference)


@pytest.mark.parametrize("mode", MODES)
def test_cl_diam_modes(graph, mode, mode_env):
    """CL-DIAM end to end: estimates and counters survive the pipeline."""
    os.environ[EMIT_ENV] = "push"
    engine = default_engine(graph, executor="vector", num_workers=2)
    reference = mr_approximate_diameter(graph, config=CFG, engine=engine)
    os.environ[EMIT_ENV] = mode
    engine2 = default_engine(graph, executor="vector", num_workers=2)
    result = mr_approximate_diameter(graph, config=CFG, engine=engine2)
    assert result.value == reference.value
    assert engine2.counters.rounds == engine.counters.rounds
    assert engine2.counters.messages == engine.counters.messages
    assert engine2.counters.updates == engine.counters.updates


@pytest.mark.parametrize("mode", MODES)
def test_core_cluster_modes(graph, mode, mode_env):
    """The core path's direction-optimized step: all modes identical."""
    os.environ[EMIT_ENV] = "push"
    reference = cluster(graph, config=CFG)
    os.environ[EMIT_ENV] = mode
    result = cluster(graph, config=CFG)
    assert_identical(result, reference)


def test_timings_recorded(graph, mode_env):
    """The per-phase timers accumulate on every fused round."""
    os.environ[EMIT_ENV] = "auto"
    engine = default_engine(graph, executor="vector", num_workers=2)
    mr_cluster(graph, config=CFG, engine=engine)
    snap = engine.counters.timing_snapshot()
    assert set(snap) >= {"emit", "shuffle", "reduce", "apply"}
    assert snap["emit"] > 0.0
    assert snap["reduce"] > 0.0
