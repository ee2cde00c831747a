"""Property-based tests of the clustering invariants (hypothesis).

Random graphs and parameters; the invariants under test are the paper's
structural guarantees:

1. the result is a partition (every node assigned, centers self-assigned);
2. distance bounds are sound (d ≥ true distance, finite, centers at 0);
3. determinism under a fixed seed;
4. conservativeness of the diameter estimate.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines.dijkstra import dijkstra_sssp
from repro.core.cluster import cluster
from repro.core.cluster2 import cluster2
from repro.core.config import ClusterConfig
from repro.core.diameter import approximate_diameter
from repro.exact import exact_diameter
from repro.generators import gnm_random_graph


graph_params = st.tuples(
    st.integers(5, 45),        # n
    st.integers(0, 60),        # extra edges
    st.integers(0, 10_000),    # topology seed
)


def build_graph(params):
    n, extra, seed = params
    max_extra = min(extra, n * (n - 1) // 2)
    return gnm_random_graph(n, max_extra, seed=seed, connect=True)


@given(graph_params, st.integers(1, 8), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_partition_invariants(params, tau, seed):
    g = build_graph(params)
    cfg = ClusterConfig(seed=seed, stage_threshold_factor=1.0)
    c = cluster(g, tau=tau, config=cfg)
    c.validate()
    # Partition: every node in exactly one cluster; sizes sum to n.
    assert c.cluster_sizes().sum() == g.num_nodes
    # Radius consistency.
    assert c.radius == c.dist_to_center.max()


@given(graph_params, st.integers(1, 6), st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_distance_soundness(params, tau, seed):
    g = build_graph(params)
    cfg = ClusterConfig(seed=seed, stage_threshold_factor=1.0)
    c = cluster(g, tau=tau, config=cfg)
    # d_acc upper-bounds the true distance to the center for every node.
    for center_id in c.centers:
        true = dijkstra_sssp(g, int(center_id))
        members = np.flatnonzero(c.center == center_id)
        assert np.all(c.dist_to_center[members] >= true[members] - 1e-9)


@given(graph_params, st.integers(1, 6), st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_determinism(params, tau, seed):
    g = build_graph(params)
    cfg = ClusterConfig(seed=seed, stage_threshold_factor=1.0)
    a = cluster(g, tau=tau, config=cfg)
    b = cluster(g, tau=tau, config=cfg)
    assert np.array_equal(a.center, b.center)
    assert np.array_equal(a.dist_to_center, b.dist_to_center)


@given(graph_params, st.integers(1, 6), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_diameter_estimate_conservative(params, tau, seed):
    g = build_graph(params)
    cfg = ClusterConfig(seed=seed, stage_threshold_factor=1.0)
    est = approximate_diameter(g, tau=tau, config=cfg)
    assert est.value >= exact_diameter(g) - 1e-9


@given(graph_params, st.integers(1, 4), st.integers(0, 500))
@settings(max_examples=15, deadline=None)
def test_cluster2_invariants(params, tau, seed):
    g = build_graph(params)
    cfg = ClusterConfig(seed=seed, stage_threshold_factor=1.0)
    c = cluster2(g, tau=tau, config=cfg)
    c.validate()
    for center_id in c.centers:
        true = dijkstra_sssp(g, int(center_id))
        members = np.flatnonzero(c.center == center_id)
        assert np.all(c.dist_to_center[members] >= true[members] - 1e-9)


@given(graph_params, st.integers(0, 500))
@settings(max_examples=15, deadline=None)
def test_growing_step_cap_never_breaks_validity(params, seed):
    g = build_graph(params)
    cfg = ClusterConfig(seed=seed, stage_threshold_factor=1.0, growing_step_cap=1)
    c = cluster(g, tau=2, config=cfg)
    c.validate()


@st.composite
def assignments(draw):
    """A complete, self-consistent center assignment over node ids."""
    n = draw(st.integers(1, 200))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    k = draw(st.integers(1, n))
    centers = np.sort(rng.choice(n, size=k, replace=False))
    center = centers[rng.integers(0, k, n)]
    center[centers] = centers  # every center is in its own cluster
    return center.astype(np.int64)


@given(assignments())
@settings(max_examples=60, deadline=None)
def test_dense_cluster_index_matches_binary_search(center):
    """The O(n) center helpers equal the sort / binary-search forms
    they replaced, values and dtypes, on any valid assignment."""
    from repro.core.cluster import Clustering, distinct_centers
    from repro.mr.metrics import Counters

    centers = distinct_centers(center)
    reference = np.unique(center)
    assert centers.dtype == reference.dtype
    assert np.array_equal(centers, reference)
    clustering = Clustering(
        center=center,
        dist_to_center=np.zeros(len(center)),
        centers=centers,
        radius=0.0,
        delta_end=0.0,
        tau=1,
        counters=Counters(),
    )
    clustering.validate()
    ids = clustering.cluster_ids()
    old = np.searchsorted(centers, center)
    assert ids.dtype == old.dtype
    assert np.array_equal(ids, old)


@given(graph_params, st.integers(1, 8), st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_cluster_ids_index_the_sorted_centers(params, tau, seed):
    """On real clusterings, node u's dense index points back at its
    center in the sorted ``centers`` array."""
    c = cluster(build_graph(params), tau=tau,
                config=ClusterConfig(seed=seed, stage_threshold_factor=1.0))
    ids = c.cluster_ids()
    assert np.array_equal(c.centers[ids], c.center)
    assert np.array_equal(ids, np.searchsorted(c.centers, c.center))
