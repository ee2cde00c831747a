"""Tests for :mod:`repro.graph.builder` (canonicalization rules)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import GraphValidationError
from repro.graph.builder import (
    MAX_PACKED_NODES,
    from_edge_list,
    from_edges,
    from_pair_keys,
    min_by_key,
    pair_keys,
    symmetrized,
)
from repro.graph.csr import CSRGraph
from repro.graph.validate import validate_graph


def lexsort_from_edges(u, v, w, num_nodes, dedup="min"):
    """The two-lexsort builder, kept as the oracle for :func:`from_edges`.

    Canonicalizes with a stable lexsort on ``(a, b, w)`` and takes each
    pair's first (lightest) copy, then sorts the doubled arc list on
    ``(src, dst)``.  Inputs are assumed valid.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    keep = u != v
    u, v, w = u[keep], v[keep], w[keep]
    a, b = np.minimum(u, v), np.maximum(u, v)
    if len(a):
        order = np.lexsort((w, b, a))
        a, b, w = a[order], b[order], w[order]
        new_group = np.empty(len(a), dtype=bool)
        new_group[0] = True
        np.logical_or(a[1:] != a[:-1], b[1:] != b[:-1], out=new_group[1:])
        if dedup == "error" and not new_group.all():
            raise GraphValidationError("duplicate edges present and dedup='error'")
        first = np.flatnonzero(new_group)
        a, b, w = a[first], b[first], w[first]
    src, dst = np.concatenate([a, b]), np.concatenate([b, a])
    ww = np.concatenate([w, w])
    order = np.lexsort((dst, src))
    src, dst, ww = src[order], dst[order], ww[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSRGraph(indptr, dst, ww)


def assert_bit_identical(got, want):
    for name in ("indptr", "indices", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


class TestFromEdges:
    def test_self_loops_dropped(self):
        g = from_edge_list([(0, 0, 1.0), (0, 1, 2.0)], 2)
        assert g.num_edges == 1

    def test_duplicate_edges_keep_min(self):
        g = from_edge_list([(0, 1, 5.0), (1, 0, 2.0), (0, 1, 3.0)], 2)
        assert g.num_edges == 1
        assert g.weights[0] == 2.0

    def test_duplicate_edges_error_mode(self):
        with pytest.raises(GraphValidationError):
            from_edges(
                np.array([0, 1]), np.array([1, 0]), np.array([1.0, 2.0]), 2,
                dedup="error",
            )

    def test_orientation_irrelevant(self):
        a = from_edge_list([(0, 1, 1.0), (2, 1, 3.0)], 3)
        b = from_edge_list([(1, 0, 1.0), (1, 2, 3.0)], 3)
        assert a == b

    def test_out_of_range_endpoint(self):
        with pytest.raises(GraphValidationError):
            from_edge_list([(0, 5, 1.0)], 3)

    def test_negative_endpoint(self):
        with pytest.raises(GraphValidationError):
            from_edge_list([(-1, 0, 1.0)], 3)

    def test_zero_weight_rejected(self):
        with pytest.raises(GraphValidationError):
            from_edge_list([(0, 1, 0.0)], 2)

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphValidationError):
            from_edge_list([(0, 1, -2.0)], 2)

    def test_infinite_weight_rejected(self):
        with pytest.raises(GraphValidationError):
            from_edge_list([(0, 1, float("inf"))], 2)

    def test_nan_weight_rejected(self):
        with pytest.raises(GraphValidationError):
            from_edge_list([(0, 1, float("nan"))], 2)

    def test_length_mismatch(self):
        with pytest.raises(GraphValidationError):
            from_edges(np.array([0]), np.array([1, 2]), np.array([1.0]), 3)

    def test_negative_num_nodes(self):
        with pytest.raises(GraphValidationError):
            from_edges(np.array([], dtype=int), np.array([], dtype=int), np.array([]), -1)

    def test_adjacency_sorted(self):
        g = from_edge_list([(0, 3, 1.0), (0, 1, 1.0), (0, 2, 1.0)], 4)
        nbrs, _ = g.neighbors(0)
        assert nbrs.tolist() == [1, 2, 3]

    def test_result_is_canonical(self):
        g = from_edge_list(
            [(3, 1, 2.0), (1, 3, 1.0), (0, 0, 5.0), (2, 0, 3.0)], 4
        )
        validate_graph(g)


class TestSymmetrized:
    def test_antiparallel_arcs_collapse(self):
        g = symmetrized(np.array([0, 1]), np.array([1, 0]), np.array([3.0, 1.0]), 2)
        assert g.num_edges == 1
        assert g.weights[0] == 1.0


class TestPropertyBased:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 14),
                st.integers(0, 14),
                st.floats(0.01, 100, allow_nan=False),
            ),
            max_size=60,
        )
    )
    def test_always_canonical(self, edges):
        g = from_edge_list(edges, 15)
        validate_graph(g)
        # Edge count never exceeds input size and never counts loops.
        proper = {(min(u, v), max(u, v)) for u, v, _ in edges if u != v}
        assert g.num_edges == len(proper)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 9),
                st.integers(0, 9),
                st.floats(0.01, 10, allow_nan=False),
            ),
            max_size=40,
        )
    )
    def test_idempotent(self, edges):
        g = from_edge_list(edges, 10)
        u, v, w = g.edge_arrays()
        again = from_edges(u, v, w, 10)
        assert again == g


#: Weights drawn from a small set, so duplicate pairs often tie exactly.
_tied_weights = st.sampled_from([0.5, 1.0, 1.0 + 2.0**-52, 3.0, 1e300])


@st.composite
def edge_inputs(draw, weights=st.floats(1e-3, 1e3, allow_nan=False) | _tied_weights):
    """``(u, v, w, n)`` with duplicates in both orientations and loops."""
    n = draw(st.integers(0, 12))
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), 0
    node = st.integers(0, n - 1)
    base = draw(st.lists(st.tuples(node, node, weights), max_size=40))
    # Re-emit some edges reversed and/or reweighted: exact and near ties.
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, max(len(base) - 1, 0)), st.booleans(), weights),
            max_size=20 if base else 0,
        )
    )
    edges = list(base)
    for i, flip, wt in extra:
        a, b, old = base[i]
        edges.append((b, a, old) if flip else (a, b, wt))
    if not edges:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), n
    u, v, w = map(np.asarray, zip(*edges))
    return u.astype(np.int64), v.astype(np.int64), w.astype(np.float64), n


class TestMatchesLexsortOracle:
    """The packed-key builder is bit-identical to the two-lexsort one."""

    @given(edge_inputs())
    def test_min_dedup_bit_identical(self, case):
        u, v, w, n = case
        assert_bit_identical(from_edges(u, v, w, n), lexsort_from_edges(u, v, w, n))

    @given(edge_inputs())
    def test_error_dedup_agrees(self, case):
        u, v, w, n = case
        try:
            want = lexsort_from_edges(u, v, w, n, dedup="error")
        except GraphValidationError:
            with pytest.raises(GraphValidationError):
                from_edges(u, v, w, n, dedup="error")
        else:
            assert_bit_identical(from_edges(u, v, w, n, dedup="error"), want)

    @given(edge_inputs(), st.randoms(use_true_random=False))
    def test_input_order_irrelevant(self, case, rnd):
        u, v, w, n = case
        perm = np.array(rnd.sample(range(len(u)), len(u)), dtype=np.int64)
        assert_bit_identical(
            from_edges(u[perm], v[perm], w[perm], n), from_edges(u, v, w, n)
        )

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_empty_input(self, n):
        empty = np.empty(0, np.int64)
        got = from_edges(empty, empty, np.empty(0), n)
        assert_bit_identical(got, lexsort_from_edges(empty, empty, np.empty(0), n))
        assert got.num_nodes == n and got.num_edges == 0

    def test_only_self_loops(self):
        u = np.array([0, 0, 2])
        got = from_edges(u, u, np.array([1.0, 2.0, 3.0]), 3)
        assert got.num_edges == 0 and got.indptr.tolist() == [0, 0, 0, 0]

    def test_isolated_nodes_keep_empty_rows(self):
        got = from_edge_list([(1, 4, 2.0), (4, 1, 1.0), (6, 4, 1.0)], 8)
        want = lexsort_from_edges([1, 4, 6], [4, 1, 4], [2.0, 1.0, 1.0], 8)
        assert_bit_identical(got, want)
        assert got.indptr.tolist() == [0, 0, 1, 1, 1, 3, 3, 4, 4]
        assert got.weights.tolist() == [1.0, 1.0, 1.0, 1.0]


class TestFromPairKeys:
    """Combined packed keys (distinct, ascending) build the graph
    :func:`from_edges` builds; raw or repeated keys are rejected."""

    @given(edge_inputs())
    def test_combined_keys_bit_identical(self, case):
        u, v, w, n = case
        keep = u != v
        keys, weights = min_by_key(pair_keys(u[keep], v[keep], n), w[keep])
        assert_bit_identical(
            from_pair_keys(keys, weights, n), from_edges(u, v, w, n)
        )

    @pytest.mark.parametrize(
        "keys", [[6, 1], [1, 1], [1, 6, 6]], ids=["unsorted", "equal", "repeated"]
    )
    def test_uncombined_keys_are_rejected(self, keys):
        with pytest.raises(GraphValidationError, match="strictly ascending"):
            from_pair_keys(np.array(keys), np.ones(len(keys)), 4)


class TestPackingBound:
    def test_bound_is_the_largest_safe_n(self):
        limit = int(np.iinfo(np.int64).max)
        assert MAX_PACKED_NODES * MAX_PACKED_NODES - 1 <= limit
        assert (MAX_PACKED_NODES + 1) ** 2 - 1 > limit

    def test_keys_at_the_bound_do_not_wrap(self):
        n = MAX_PACKED_NODES
        top = np.array([n - 1], dtype=np.int64)
        keys = pair_keys(top, top - 1, n)
        assert int(keys[0]) == (n - 2) * n + (n - 1)

    @pytest.mark.parametrize("num_edges", [0, 1])
    def test_overflowing_node_count_raises(self, num_edges):
        u = np.zeros(num_edges, np.int64)
        v = np.ones(num_edges, np.int64)
        with pytest.raises(GraphValidationError, match="packed pair-key bound"):
            from_edges(u, v, np.ones(num_edges), MAX_PACKED_NODES + 1)

    def test_pair_keys_raises_past_the_bound(self):
        with pytest.raises(GraphValidationError, match="overflow int64"):
            pair_keys(np.array([0]), np.array([1]), MAX_PACKED_NODES + 1)
