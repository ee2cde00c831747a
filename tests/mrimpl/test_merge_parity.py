"""End-to-end parity of the growing-step merge on tie-heavy workloads.

Every batch path (the ``vector`` and ``sharded`` backends and the
core path) resolves a growing step with the scatter-min kernel
:func:`repro.mr.kernels.scatter_min_rows`.  The per-key oracle of
``tests/oracle/mr_literal.py`` does not: its reducer picks each node's
winning candidate with a plain Python comparison loop (smallest
distance, then smallest center, then first arrival).  That reducer is an independent
oracle for the kernel, so this suite runs CLUSTER, CLUSTER2 and CL-DIAM on an
R-MAT and a road graph, plus unit-weight variants where equal
distances are the rule, and asserts bit-identical clusterings and
growing-step counters against it.  The ``messages`` counter is not
compared with the per-key path (it counts every pair in the round,
state and adjacency records included); the two batch backends must
agree on the whole ``Counters.snapshot()``.
"""

import numpy as np
import pytest
from mr_literal import literal_engine

from repro.core.cluster import cluster
from repro.core.cluster2 import cluster2
from repro.core.config import ClusterConfig
from repro.core.diameter import approximate_diameter
from repro.generators import mesh, rmat, road_network
from repro.graph.ops import largest_connected_component
from repro.mrimpl.cluster2_mr import mr_cluster2
from repro.mrimpl.cluster_mr import mr_cluster
from repro.mrimpl.diameter_mr import mr_approximate_diameter

GRAPHS = ("rmat", "rmat-unit", "road", "mesh-unit")
ALGORITHMS = {"cluster": (mr_cluster, cluster), "cluster2": (mr_cluster2, cluster2)}


@pytest.fixture(scope="module")
def workloads():
    """``name -> (graph, config)``; each τ leaves real merge work to do."""

    def cfg(tau):
        return ClusterConfig(seed=42, stage_threshold_factor=1.0, tau=tau)

    return {
        "rmat": (
            largest_connected_component(rmat(9, edge_factor=8, seed=11))[0],
            cfg(16),
        ),
        "rmat-unit": (
            largest_connected_component(
                rmat(9, edge_factor=8, weights="unit", seed=5)
            )[0],
            cfg(4),
        ),
        "road": (road_network(14, seed=3), cfg(2)),
        "mesh-unit": (mesh(12, weights="unit"), cfg(2)),
    }


@pytest.fixture(scope="module")
def per_key_reference(workloads):
    """The per-key oracle runs, computed once per (graph, algorithm)."""
    cache = {}

    def get(name, algo):
        if (name, algo) not in cache:
            graph, cfg = workloads[name]
            mr_algorithm = ALGORITHMS[algo][0]
            cache[name, algo] = mr_algorithm(
                graph, config=cfg, engine=literal_engine(graph)
            )
        return cache[name, algo]

    return get


def assert_same_clustering(a, b):
    np.testing.assert_array_equal(a.center, b.center)
    np.testing.assert_array_equal(a.dist_to_center, b.dist_to_center)
    assert a.num_clusters == b.num_clusters
    assert a.counters.updates == b.counters.updates


@pytest.mark.parametrize("path", ["core", "vector", "sharded"])
@pytest.mark.parametrize("algo", list(ALGORITHMS))
@pytest.mark.parametrize("name", GRAPHS)
def test_scatter_merge_matches_per_key_reducer(
    workloads, per_key_reference, name, algo, path
):
    graph, cfg = workloads[name]
    mr_algorithm, core_algorithm = ALGORITHMS[algo]
    reference = per_key_reference(name, algo)
    assert reference.counters.updates > 0, "workload never merges"
    if path == "core":
        result = core_algorithm(graph, config=cfg)
    else:
        result = mr_algorithm(graph, config=cfg.with_(executor=path))
        assert result.counters.rounds == reference.counters.rounds
        assert (
            result.counters.growing_steps == reference.counters.growing_steps
        )
    assert_same_clustering(result, reference)


@pytest.mark.parametrize("algo", list(ALGORITHMS))
@pytest.mark.parametrize("name", GRAPHS)
def test_batch_backends_share_counters(workloads, name, algo):
    graph, cfg = workloads[name]
    mr_algorithm = ALGORITHMS[algo][0]
    vector = mr_algorithm(graph, config=cfg.with_(executor="vector"))
    sharded = mr_algorithm(graph, config=cfg.with_(executor="sharded"))
    assert_same_clustering(sharded, vector)
    assert sharded.counters.snapshot() == vector.counters.snapshot()


@pytest.mark.parametrize("executor", ["literal", "vector", "sharded"])
@pytest.mark.parametrize("name", GRAPHS)
def test_diameter_estimate_identical(workloads, name, executor):
    graph, cfg = workloads[name]
    reference = approximate_diameter(graph, config=cfg)
    if executor == "literal":
        result = mr_approximate_diameter(
            graph, config=cfg, engine=literal_engine(graph)
        )
    else:
        result = mr_approximate_diameter(
            graph, config=cfg.with_(executor=executor)
        )
    assert result.value == reference.value
    assert result.quotient_diameter == reference.quotient_diameter
    assert result.radius == reference.radius
    assert result.num_clusters == reference.num_clusters
    np.testing.assert_array_equal(
        result.clustering.center, reference.clustering.center
    )
