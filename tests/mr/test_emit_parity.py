"""End-to-end parity of the emit pipeline across kernel tiers.

Each Δ-growing round expands its candidates push-style: the frontier's
rows, or on a forced round every emitting row; each kernel tier has its
own push expansion and forced-round scan.  This suite runs the full CLUSTER / CLUSTER2 / CL-DIAM drivers on a seeded
R-MAT on each tier and across every executor, and asserts the
strongest possible contract: bit-identical clusterings and
bit-identical ``rounds`` / ``messages`` / ``updates`` /
``growing_steps`` counters.  The fixed point is the per-key oracle of
``tests/oracle/mr_literal.py``, which has no fused pipeline; it counts
pair traffic, so its ``messages`` are not compared here
(``tests/mr/test_counter_parity.py`` compares its candidate pairs;
``tests/mr/test_emit.py`` checks the fused emission counts against the
``emit_frontier`` oracle, and ``tests/mr/test_native_kernels.py`` the
tiers' full counter snapshots against each other).  The CI
``bench-regression`` job runs this file before believing any benchmark.
"""

import numpy as np
import pytest
from mr_literal import literal_engine

from repro.core.cluster import cluster
from repro.core.config import ClusterConfig
from repro.generators import rmat
from repro.graph.ops import largest_connected_component
from repro.mr import native
from repro.mrimpl.cluster2_mr import mr_cluster2
from repro.mrimpl.cluster_mr import mr_cluster
from repro.mrimpl.diameter_mr import mr_approximate_diameter
from repro.mrimpl.growing_mr import default_engine

CFG = ClusterConfig(seed=42, stage_threshold_factor=1.0, tau=16)
TIERS = (
    "py",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native.native_available(),
            reason="native kernel tier unavailable (no C toolchain)",
        ),
    ),
)


@pytest.fixture(scope="module")
def graph():
    return largest_connected_component(rmat(9, edge_factor=8, seed=11))[0]


def run_mr(graph, algorithm, executor, impl):
    with native.impl_overrides(impl):
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


@pytest.mark.parametrize("impl", TIERS)
@pytest.mark.parametrize("algorithm", [mr_cluster, mr_cluster2])
def test_executors_agree(graph, algorithm, impl):
    """``sharded`` == ``vector`` on each tier; CLUSTER2 exercises
    rescaling (the cache-ineligible branch)."""
    assert_identical(
        run_mr(graph, algorithm, "sharded", impl),
        run_mr(graph, algorithm, "vector", impl),
    )


@pytest.mark.parametrize("impl", TIERS)
@pytest.mark.parametrize("algorithm", [mr_cluster, mr_cluster2])
def test_matches_oracle(graph, algorithm, impl):
    """Each tier's fused pipeline equals the per-key oracle (which has
    no fused pipeline — it *is* the fixed point)."""
    reference = run_mr(graph, algorithm, "literal", "py")
    assert_identical(
        run_mr(graph, algorithm, "vector", impl), reference, messages=False
    )


@pytest.mark.parametrize("impl", TIERS)
def test_cl_diam_matches_oracle(graph, impl):
    """CL-DIAM end to end: estimates and counters survive the pipeline."""
    engine = literal_engine(graph, num_workers=2)
    reference = mr_approximate_diameter(graph, config=CFG, engine=engine)
    with native.impl_overrides(impl):
        engine2 = default_engine(graph, executor="vector", num_workers=2)
        result = mr_approximate_diameter(graph, config=CFG, engine=engine2)
    assert result.value == reference.value
    assert engine2.counters.rounds == engine.counters.rounds
    assert engine2.counters.updates == engine.counters.updates


@pytest.mark.parametrize("impl", TIERS)
def test_core_cluster_matches_vector(graph, impl):
    """The core path's growing step lands on the same clustering as the
    MR drivers."""
    with native.impl_overrides(impl):
        result = cluster(graph, config=CFG)
    reference = run_mr(graph, mr_cluster, "vector", impl)
    np.testing.assert_array_equal(result.center, reference.center)
    np.testing.assert_array_equal(
        result.dist_to_center, reference.dist_to_center
    )


def test_timings_recorded(graph):
    """The per-phase timers accumulate on every fused round."""
    engine = default_engine(graph, executor="vector", num_workers=2)
    mr_cluster(graph, config=CFG, engine=engine)
    snap = engine.counters.timing_snapshot()
    assert set(snap) >= {"emit", "shuffle", "reduce", "apply"}
    assert snap["emit"] > 0.0
    assert snap["reduce"] > 0.0
