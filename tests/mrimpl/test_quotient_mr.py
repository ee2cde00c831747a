"""Tests for the MR quotient construction (one batch reduce-by-key round)."""

from repro.mr.engine import MREngine
from repro.mr.model import MRSpec


def make_engine(ml=1000):
    return MREngine(MRSpec(total_memory=1_000_000, local_memory=ml))


class TestMrQuotient:
    def test_matches_vectorized(self, small_mesh):
        from repro.core.cluster import cluster
        from repro.core.config import ClusterConfig
        from repro.core.quotient import quotient_graph
        from repro.mrimpl.quotient_mr import mr_quotient_graph

        cl = cluster(
            small_mesh, tau=4, config=ClusterConfig(seed=1, stage_threshold_factor=1.0)
        )
        vec_q, vec_centers = quotient_graph(small_mesh, cl)
        mr_q, mr_centers = mr_quotient_graph(make_engine(), small_mesh, cl)
        assert mr_q == vec_q
        assert (mr_centers == vec_centers).all()

    def test_single_cluster_empty_quotient(self, star7):
        from repro.core.cluster import cluster
        from repro.core.config import ClusterConfig
        from repro.mrimpl.quotient_mr import mr_quotient_graph

        cl = cluster(
            star7, tau=1, config=ClusterConfig(seed=2, gamma=0.01, stage_threshold_factor=0.1)
        )
        engine = make_engine()
        q, centers = mr_quotient_graph(engine, star7, cl)
        if cl.num_clusters == 1:
            assert q.num_edges == 0

    def test_uses_one_round(self, small_mesh):
        from repro.core.cluster import cluster
        from repro.core.config import ClusterConfig
        from repro.mrimpl.quotient_mr import mr_quotient_graph

        cl = cluster(
            small_mesh, tau=4, config=ClusterConfig(seed=3, stage_threshold_factor=1.0)
        )
        engine = make_engine()
        mr_quotient_graph(engine, small_mesh, cl)
        assert engine.counters.rounds == 1
