"""Property suite for the locality-aware (label-propagation) partitioner.

``lp_assignment`` is only admissible as a drop-in replacement for the
contiguous range plan because it upholds three contracts: every node
gets exactly one shard (coverage), the heaviest shard stays within the
slack-bounded arc budget (balance — up to the indivisible-node floor),
and the cut never regresses past the range plan it competes against
(the range candidate is always in the final selection).  This suite
pins all three plus determinism, across the three regimes that matter:
power-law (R-MAT, where LP wins big), lattice (mesh, where contiguity
is already near-optimal and LP must tie), and star (degenerate hub,
where every balanced partition cuts everything).
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.generators import (
    gnm_random_graph,
    mesh,
    path_graph,
    rmat,
    star_graph,
)
from repro.graph.csr import CSRGraph
from repro.graph.ops import disjoint_union
from repro.mr import native
from repro.mr.partitioner import (
    assignment_cut_fraction,
    _best_neighbor_label,
    _contract,
    _lpt_seed,
    _range_owner,
    lp_assignment,
)

needs_native = pytest.mark.skipif(
    not native.native_available(),
    reason="native kernel tier unavailable (no C toolchain)",
)

SHARD_COUNTS = (2, 4, 7)
SLACK = 0.5


@pytest.fixture(scope="module")
def graphs():
    return {
        "rmat": rmat(12, seed=4),
        "mesh": mesh(32, seed=1),
        "star": star_graph(500),
    }


class TestAssignmentContract:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("name", ["rmat", "mesh", "star"])
    def test_every_node_owned_exactly_once(self, graphs, name, shards):
        graph = graphs[name]
        owner = lp_assignment(graph, shards, slack=SLACK, seed=0)
        assert owner.dtype == np.int32
        assert len(owner) == graph.num_nodes
        assert owner.min() >= 0
        assert owner.max() < shards

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("name", ["rmat", "mesh", "star"])
    def test_balance_bound(self, graphs, name, shards):
        """Heaviest shard <= (1 + slack) * arcs / K, except that a single
        node's arcs are indivisible — a hub whose degree alone exceeds
        the budget (star) sets the floor instead."""
        graph = graphs[name]
        owner = lp_assignment(graph, shards, slack=SLACK, seed=0)
        degs = np.diff(graph.indptr).astype(np.float64)
        loads = np.bincount(owner, weights=degs, minlength=shards)
        cap = (1.0 + SLACK) * graph.num_arcs / shards
        assert loads.max() <= max(cap, degs.max()) * (1.0 + 1e-9)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("name", ["rmat", "mesh", "star"])
    def test_cut_never_worse_than_range(self, graphs, name, shards):
        """The range plan competes in the final candidate selection, so
        lp can tie it but never lose to it."""
        graph = graphs[name]
        owner = lp_assignment(graph, shards, slack=SLACK, seed=0)
        lp_cut = assignment_cut_fraction(graph, owner)
        range_cut = assignment_cut_fraction(
            graph, _range_owner(graph, shards)
        )
        assert lp_cut <= range_cut + 1e-12

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_strictly_better_on_powerlaw(self, graphs, shards):
        """On R-MAT the contiguous plan is near-random locality; the
        multilevel pipeline must beat it by a real margin, not noise."""
        graph = graphs["rmat"]
        lp_cut = assignment_cut_fraction(
            graph, lp_assignment(graph, shards, slack=SLACK, seed=0)
        )
        range_cut = assignment_cut_fraction(
            graph, _range_owner(graph, shards)
        )
        assert lp_cut <= range_cut - 0.10

    def test_mesh_cut_stays_low(self, graphs):
        """Lattices have an obvious good partition; the pipeline must
        not wander away from it."""
        graph = graphs["mesh"]
        owner = lp_assignment(graph, 4, slack=SLACK, seed=0)
        assert assignment_cut_fraction(graph, owner) <= 0.06

    @pytest.mark.parametrize("name", ["rmat", "mesh", "star"])
    def test_deterministic(self, graphs, name):
        """Same graph + seed => identical assignment; the on-disk shard
        cache and every parity test depend on this."""
        graph = graphs[name]
        first = lp_assignment(graph, 4, slack=SLACK, seed=0)
        second = lp_assignment(graph, 4, slack=SLACK, seed=0)
        assert np.array_equal(first, second)

    def test_single_shard_is_trivial(self, graphs):
        owner = lp_assignment(graphs["mesh"], 1)
        assert np.array_equal(
            owner, np.zeros(graphs["mesh"].num_nodes, dtype=np.int32)
        )

    def test_invalid_shard_count(self, graphs):
        with pytest.raises(ValueError):
            lp_assignment(graphs["mesh"], 0)

    def test_empty_graph(self):
        from repro.graph.builder import from_edges

        empty = np.empty(0, dtype=np.int64)
        graph = from_edges(empty, empty, empty.astype(np.float64), 0)
        owner = lp_assignment(graph, 3)
        assert len(owner) == 0
        assert assignment_cut_fraction(graph, owner) == 0.0


# --------------------------------------------------------------------- #
# Tier parity: the native row scans against the NumPy passes
# --------------------------------------------------------------------- #


def _csr(n, u, v, w=None):
    """A raw symmetric CSR that keeps self-loops and parallel arcs (the
    canonical builders drop both)."""
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(src, minlength=n))
    weights = np.ones(len(src)) if w is None else np.concatenate([w, w])
    return CSRGraph(indptr, dst[order], weights[order])


def _multigraph():
    rng = np.random.default_rng(5)
    n = 400
    u = rng.integers(0, n, 3000)
    v = rng.integers(0, n, 3000)
    loops = rng.integers(0, n, 40)
    dup = rng.integers(0, 3000, 500)
    return _csr(
        n,
        np.concatenate([u, loops, u[dup]]),
        np.concatenate([v, loops, v[dup]]),
    )


def _with_isolated(graph, extra):
    """``graph`` plus ``extra`` arc-less nodes, spread through the ids."""
    n = graph.num_nodes + extra
    isolated = np.linspace(0, n - 1, extra).astype(np.int64)
    old = np.setdiff1d(np.arange(n), isolated)
    u, v, _ = graph.edge_arrays()
    return _csr(n, old[u], old[v])


PARITY_GRAPHS = {
    "rmat": lambda: rmat(11, seed=4),
    "mesh": lambda: mesh(24, seed=1),
    "star": lambda: star_graph(300),
    "disconnected": lambda: disjoint_union(
        rmat(9, seed=2), mesh(12, seed=3), path_graph(40), star_graph(30)
    ),
    "multigraph": _multigraph,
    "isolated": lambda: _with_isolated(
        gnm_random_graph(600, 2400, seed=6), 150
    ),
    "tiny": lambda: path_graph(4),
}


@pytest.fixture(scope="module")
def parity_graphs():
    return {name: make() for name, make in PARITY_GRAPHS.items()}


@needs_native
class TestTierParity:
    @pytest.mark.parametrize("seed,slack", [(0, 0.5), (3, 0.1)])
    @pytest.mark.parametrize("shards", (2, 3, 4, 7))
    @pytest.mark.parametrize("name", sorted(PARITY_GRAPHS))
    def test_assignment_byte_identical(
        self, parity_graphs, monkeypatch, name, shards, seed, slack
    ):
        graph = parity_graphs[name]
        owners = {}
        for tier in ("py", "native"):
            monkeypatch.setenv(native.KERNEL_IMPL_ENV, tier)
            owners[tier] = lp_assignment(graph, shards, slack=slack, seed=seed)
        assert owners["py"].dtype == owners["native"].dtype == np.int32
        assert owners["py"].tobytes() == owners["native"].tobytes()

    @pytest.mark.parametrize("weighted", [False, True])
    def test_best_label_ties_go_to_larger_label(self, weighted):
        """Row 0 reaches labels 1, 2 and 3 with weights 2, 1, 2: label 3
        must win the tie, on both tiers."""
        graph = _csr(
            4,
            np.array([0, 0, 0, 0, 0, 1]),
            np.array([1, 1, 2, 3, 3, 2]),
            np.full(6, 0.5) if weighted else None,
        )
        arc_w = graph.weights if weighted else None
        label = np.arange(4, dtype=np.int64)
        arc_src = np.repeat(np.arange(4), np.diff(graph.indptr))
        best, best_w = _best_neighbor_label(
            arc_src, label[graph.indices], arc_w, 4
        )
        nbest, nbest_w, own_w = native.lp_best_label(
            graph.indptr, graph.indices, arc_w, label
        )
        assert best[0] == nbest[0] == 3
        assert best_w[0] == nbest_w[0] == (1.0 if weighted else 2.0)
        assert np.array_equal(best, nbest)
        assert np.array_equal(best_w, nbest_w)
        assert np.array_equal(own_w, np.zeros(4))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_best_label_matches_numpy(self, weighted):
        """Few labels and small integer weights: ties on most rows, and
        rows whose own label is among their neighbours'."""
        graph = _multigraph()
        n = graph.num_nodes
        rng = np.random.default_rng(11)
        arc_w = (
            rng.integers(1, 4, graph.num_arcs).astype(np.float64)
            if weighted else None
        )
        label = rng.integers(0, 12, n).astype(np.int64)
        arc_src = np.repeat(np.arange(n), np.diff(graph.indptr))
        arc_lab = label[graph.indices]
        best, best_w = _best_neighbor_label(arc_src, arc_lab, arc_w, n)
        own = label[arc_src] == arc_lab
        cur_w = np.bincount(
            arc_src[own],
            weights=None if arc_w is None else arc_w[own],
            minlength=n,
        ).astype(np.float64)
        got = native.lp_best_label(graph.indptr, graph.indices, arc_w, label)
        assert np.array_equal(got[0], best)
        assert got[1].tobytes() == best_w.tobytes()
        assert got[2].tobytes() == cur_w.tobytes()

    @pytest.mark.parametrize("weighted", [False, True])
    def test_affinity_matches_bincount(self, weighted):
        graph = _multigraph()
        n, K = graph.num_nodes, 5
        rng = np.random.default_rng(12)
        arc_w = rng.random(graph.num_arcs) if weighted else None
        owner = rng.integers(0, K, n).astype(np.int64)
        arc_src = np.repeat(np.arange(n), np.diff(graph.indptr))
        expect = np.bincount(
            arc_src * K + owner[graph.indices], weights=arc_w,
            minlength=n * K,
        ).astype(np.float64).reshape(n, K)
        got = native.lp_affinity(graph.indptr, graph.indices, arc_w, owner, K)
        assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("weighted", [False, True])
    def test_contraction_matches_numpy(self, weighted):
        """Sparse, unsorted cluster labels: each super-node's targets
        ascend, weights summed in arc order, self-arcs dropped."""
        graph = _multigraph()
        n = graph.num_nodes
        rng = np.random.default_rng(13)
        arc_w = rng.random(graph.num_arcs) if weighted else None
        node_w = np.diff(graph.indptr).astype(np.float64)
        label = rng.choice(n, 37)[rng.integers(0, 37, n)].astype(np.int64)
        args = (graph.indptr, graph.indices, arc_w, node_w, label)
        py = _contract(*args, native=False)
        nat = _contract(*args, native=True)
        for a, b in zip(py, nat):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        cindptr, cd = nat[0], nat[1]
        for c in range(len(cindptr) - 1):
            row = cd[cindptr[c]:cindptr[c + 1]]
            assert np.all(np.diff(row) > 0)
            assert c not in row


class TestRangeOwner:
    """The contiguous arc-balanced plan: lp's first candidate and its
    answer when the graph is too small or arc-less to refine."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("name", ["rmat", "mesh", "star"])
    def test_contiguous_and_arc_balanced(self, graphs, name, shards):
        """Shard ids ascend with the node id, and each shard holds at
        most its ``1/K`` slice of the arcs plus one node's row."""
        graph = graphs[name]
        owner = _range_owner(graph, shards)
        assert owner.dtype == np.int64
        assert len(owner) == graph.num_nodes
        assert np.all(np.diff(owner) >= 0)
        assert owner.min() >= 0 and owner.max() < shards
        degs = np.diff(graph.indptr)
        loads = np.bincount(owner, weights=degs, minlength=shards)
        bound = -(-graph.num_arcs // shards) + degs.max()
        assert loads.max() <= bound
        assert loads.sum() == graph.num_arcs

    def test_tiny_graph_returns_the_range_plan(self):
        """With n <= 2K lp skips refinement and returns the range plan."""
        graph = path_graph(5, weights="uniform", seed=1)
        owner = lp_assignment(graph, 4)
        assert owner.dtype == np.int32
        assert np.array_equal(owner, _range_owner(graph, 4))
        assert np.all(np.diff(owner) >= 0)

    def test_arcless_graph_returns_the_range_plan(self):
        from repro.graph.builder import from_edges

        empty = np.empty(0, dtype=np.int64)
        graph = from_edges(empty, empty, empty.astype(np.float64), 12)
        owner = lp_assignment(graph, 3)
        assert owner.dtype == np.int32
        assert len(owner) == 12
        assert np.array_equal(owner, _range_owner(graph, 3))


def test_lpt_seed_breaks_load_ties_to_lowest_shard():
    owner = _lpt_seed(np.array([1.0, 1.0, 1.0, 1.0, 1.0, 3.0]), 3)
    assert owner.tolist() == [1, 2, 1, 2, 1, 0]


def test_py_tier_builds_nothing(tmp_path):
    """``lp_assignment`` under ``REPRO_KERNEL_IMPL=py`` neither compiles
    nor loads the library (checked against an empty native dir)."""
    native_dir = tmp_path / "native"
    native_dir.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    env[native.KERNEL_IMPL_ENV] = "py"
    env[native.NATIVE_DIR_ENV] = str(native_dir)
    code = (
        "from repro.generators import rmat\n"
        "from repro.mr import native\n"
        "from repro.mr.partitioner import lp_assignment\n"
        "lp_assignment(rmat(10, seed=1), 3)\n"
        "assert native._lib is None\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(native_dir.iterdir()) == []
