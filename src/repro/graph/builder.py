"""Builders that turn raw edge data into a canonical :class:`CSRGraph`.

Canonical form means: self-loops dropped, parallel edges deduplicated to the
minimum weight (the only one shortest paths can use), both directions
stored, and each adjacency list sorted by neighbour id.  Every generator and
reader in the library funnels through :func:`from_edges` so that any two
representations of the same graph compare equal.
"""

from __future__ import annotations

import math
from typing import Iterable, Tuple

import numpy as np

from repro.errors import GraphValidationError
from repro.graph.csr import CSRGraph

__all__ = [
    "MAX_PACKED_NODES",
    "check_packable",
    "from_edges",
    "from_edge_list",
    "from_pair_keys",
    "min_by_key",
    "pair_keys",
    "symmetrized",
]


def from_edges(
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    num_nodes: int,
    *,
    dedup: str = "min",
) -> CSRGraph:
    """Build a canonical undirected :class:`CSRGraph` from parallel arrays.

    Parameters
    ----------
    u, v:
        Integer endpoint arrays.  Each pair ``(u[i], v[i])`` denotes one
        undirected edge; orientation and duplicates are irrelevant.
    w:
        Positive weights, parallel to ``u``/``v``.
    num_nodes:
        Number of nodes ``n``; endpoints must lie in ``[0, n)``, and
        ``n·n`` must fit int64 (see :func:`pair_keys`).
    dedup:
        Policy for parallel edges: ``"min"`` (default) keeps the lightest
        copy — the only one relevant to shortest paths — while ``"error"``
        raises :class:`GraphValidationError` when duplicates exist.

    Returns
    -------
    CSRGraph
    """
    u = np.asarray(u, dtype=np.int64).ravel()
    v = np.asarray(v, dtype=np.int64).ravel()
    w = np.asarray(w, dtype=np.float64).ravel()
    if not (len(u) == len(v) == len(w)):
        raise GraphValidationError("u, v, w must have equal length")
    n = int(num_nodes)
    if n < 0:
        raise GraphValidationError("num_nodes must be non-negative")
    if len(u):
        lo = min(u.min(), v.min())
        hi = max(u.max(), v.max())
        if lo < 0 or hi >= n:
            raise GraphValidationError(
                f"edge endpoint out of range [0, {n}): saw [{lo}, {hi}]"
            )
        if w.min() <= 0:
            raise GraphValidationError("edge weights must be strictly positive")
        if not np.all(np.isfinite(w)):
            raise GraphValidationError("edge weights must be finite")

    # Drop self-loops: they never participate in shortest paths.
    keep = u != v
    key = pair_keys(u[keep], v[keep], n)
    # Parallel edges collapse to their lightest copy.
    pairs, weights = min_by_key(key, w[keep])
    if dedup == "error" and len(pairs) < len(key):
        raise GraphValidationError("duplicate edges present and dedup='error'")
    return _assemble_csr(pairs, weights, n)


def from_pair_keys(keys: np.ndarray, w: np.ndarray, num_nodes: int) -> CSRGraph:
    """:func:`from_edges` for edges already packed and combined.

    ``keys`` are strictly ascending ``min·n + max`` codes of distinct
    endpoints (:func:`pair_keys`, no self-loops), one per edge, as a
    combined quotient map side gives them (:func:`min_by_key`'s
    output).  Unsorted or repeated keys raise
    :class:`GraphValidationError`; one O(k) comparison tells.  Weights
    are validated as in :func:`from_edges`; the graph is the one
    :func:`from_edges` builds from the unpacked endpoints.
    """
    keys = np.asarray(keys, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64).ravel()
    if len(w):
        if w.min() <= 0:
            raise GraphValidationError("edge weights must be strictly positive")
        if not np.all(np.isfinite(w)):
            raise GraphValidationError("edge weights must be finite")
    if not np.all(keys[1:] > keys[:-1]):
        raise GraphValidationError("pair keys must be strictly ascending")
    return _assemble_csr(keys, w, int(num_nodes))


def min_by_key(
    keys: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct ``keys`` ascending, each with the minimum of its ``values``.

    One sort makes equal keys adjacent and ``np.minimum.reduceat`` takes
    each run's minimum.  ``min`` is order-free, so the sort needs neither
    stability nor a tie-break and the result is independent of input
    order.
    """
    if not len(keys):
        return keys, values
    order = np.argsort(keys)
    keys, values = keys[order], values[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    if len(starts) == len(keys):
        return keys, values
    return keys[starts], np.minimum.reduceat(values, starts)


#: Largest node count whose packed pair keys ``min·n + max`` fit int64.
MAX_PACKED_NODES = math.isqrt(int(np.iinfo(np.int64).max))


def pair_keys(u: np.ndarray, v: np.ndarray, num_nodes: int) -> np.ndarray:
    """Pack unordered pairs into int64 keys ``min(u, v)·n + max(u, v)``.

    Keys order pairs lexicographically by ``(min, max)``, so one sort
    groups every orientation of a pair.  Raises
    :class:`GraphValidationError` when ``n·n`` would overflow int64
    (``n > MAX_PACKED_NODES``) rather than wrapping silently.
    """
    n = check_packable(num_nodes)
    return np.minimum(u, v) * np.int64(n) + np.maximum(u, v)


def check_packable(num_nodes: int) -> int:
    """``num_nodes`` as an int, if its packed pair keys fit int64.

    Raises :class:`GraphValidationError` past :data:`MAX_PACKED_NODES`.
    """
    n = int(num_nodes)
    if n > MAX_PACKED_NODES:
        raise GraphValidationError(
            f"num_nodes={n} exceeds the packed pair-key bound "
            f"{MAX_PACKED_NODES}: min(u,v)*n + max(u,v) would overflow int64"
        )
    return n


def _assemble_csr(key: np.ndarray, w: np.ndarray, n: int) -> CSRGraph:
    """Symmetric CSR from distinct packed pairs ``a·n + b`` (``a < b``), sorted.

    Row ``r`` lists its smaller neighbours (pairs with ``b = r``) and
    then its larger ones (pairs with ``a = r``), each ascending.  The
    forward half is already in that order, so it is placed directly; the
    reversed half needs one more sort, on its own unique key ``b·n + a``.
    """
    a = key // n if n else key  # n = 0 admits no pairs
    b = key - a * n
    m = len(key)
    # Rows start after all earlier rows' smaller (rstart) and larger
    # (fstart) neighbours.
    fstart = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(a, minlength=n), out=fstart[1:])
    rstart = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(b, minlength=n), out=rstart[1:])
    indptr = fstart + rstart

    indices = np.empty(2 * m, dtype=np.int64)
    weights = np.empty(2 * m, dtype=np.float64)
    rank = np.arange(m, dtype=np.int64)
    pos = rank + rstart[a + 1]  # (a → b) after a's smaller neighbours
    indices[pos] = b
    weights[pos] = w
    rorder = np.argsort(b * np.int64(n) + a)
    pos = rank + fstart[b[rorder]]  # (b → a), ascending a within row b
    indices[pos] = a[rorder]
    weights[pos] = w[rorder]
    return CSRGraph(indptr, indices, weights)


def from_edge_list(
    edges: Iterable[Tuple[int, int, float]], num_nodes: int, **kwargs
) -> CSRGraph:
    """Build a graph from an iterable of ``(u, v, w)`` triples.

    Convenience wrapper over :func:`from_edges` for tests and small inputs.
    """
    triples = list(edges)
    if not triples:
        return from_edges(
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), num_nodes
        )
    u, v, w = map(np.asarray, zip(*triples))
    return from_edges(u, v, w, num_nodes, **kwargs)


def symmetrized(
    u: np.ndarray, v: np.ndarray, w: np.ndarray, num_nodes: int
) -> CSRGraph:
    """Build an undirected graph from a *directed* edge list.

    This mirrors the paper's treatment of the twitter graph ("originally
    directed, has been symmetrized"): every arc becomes an undirected edge,
    and anti-parallel arcs with different weights collapse to the lighter
    one.
    """
    return from_edges(u, v, w, num_nodes, dedup="min")
