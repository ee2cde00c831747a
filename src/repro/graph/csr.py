"""Compressed-sparse-row storage for undirected weighted graphs.

The whole library operates on :class:`CSRGraph`: an immutable, NumPy-backed
adjacency structure storing each undirected edge in both directions.  This
is the layout every vectorized kernel (Δ-growing steps, Δ-stepping buckets,
Dijkstra frontiers) gathers from, so it is deliberately minimal: three flat
arrays plus cached summary statistics.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.errors import GraphValidationError

__all__ = ["CSRGraph"]


class CSRGraph:
    """An undirected weighted graph in CSR (adjacency-array) form.

    Parameters
    ----------
    indptr:
        int64 array of length ``n + 1``; the neighbours of node ``u`` are
        ``indices[indptr[u]:indptr[u+1]]``.
    indices:
        int64 array of neighbour ids, length ``2m`` for ``m`` undirected
        edges (each edge appears once per direction).
    weights:
        float64 array of positive edge weights, parallel to ``indices``.

    validate:
        When ``True`` (default) the constructor runs the full O(n + m)
        invariant scan.  :meth:`open_mmap` passes ``False`` so that
        opening a stored graph does not fault every page in; the cheap
        structural checks (shapes, indptr endpoints) always run.

    Notes
    -----
    Instances are treated as immutable: the constructor sets the arrays to
    non-writeable so that kernels can safely share views.  Use the builders
    in :mod:`repro.graph.builder` rather than calling this constructor with
    hand-made arrays; the builders deduplicate, symmetrize and sort.
    """

    __slots__ = (
        "indptr",
        "indices",
        "weights",
        "_num_nodes",
        "_num_directed_edges",
        "_mmap",
        "store_path",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        *,
        validate: bool = True,
    ):
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        if indptr.ndim != 1 or indices.ndim != 1 or weights.ndim != 1:
            raise GraphValidationError("CSR arrays must be one-dimensional")
        if len(indptr) == 0:
            raise GraphValidationError("indptr must have length n + 1 >= 1")
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise GraphValidationError("indptr must start at 0 and end at len(indices)")
        if len(indices) != len(weights):
            raise GraphValidationError("indices and weights must have equal length")
        n = len(indptr) - 1
        if validate:
            if np.any(np.diff(indptr) < 0):
                raise GraphValidationError("indptr must be non-decreasing")
            if len(indices) and (indices.min() < 0 or indices.max() >= n):
                raise GraphValidationError("edge endpoint out of range")
            if len(weights) and weights.min() <= 0:
                raise GraphValidationError("edge weights must be strictly positive")
        for arr in (indptr, indices, weights):
            if arr.flags.writeable:
                arr.setflags(write=False)
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self._num_nodes = n
        self._num_directed_edges = len(indices)
        self._mmap = None
        self.store_path = None

    # ------------------------------------------------------------------ #
    # Zero-copy open
    # ------------------------------------------------------------------ #

    @classmethod
    def open_mmap(cls, path, *, validate: bool = False) -> "CSRGraph":
        """Memory-map a GraphStore file as a read-only graph.

        The three CSR sections become zero-copy views over one shared
        read-only ``mmap`` of the file: nothing is read eagerly, pages
        fault in on first touch, and every process that opens the same
        store (or inherits the mapping through ``fork``) shares the same
        physical page-cache bytes.  Opening is therefore O(1) in the
        graph size — the basis of the warm-start numbers in
        ``benchmarks/bench_graph_store.py``.

        The mapping lives as long as the graph (the arrays keep the
        buffer alive); there is deliberately no ``close()`` because
        invalidating live array views would be unsound.

        Parameters
        ----------
        path:
            A file written by :func:`repro.graph.serialize.write_store`.
        validate:
            Run the full O(n + m) invariant scan on open.  Off by
            default — store files are validated when written, and the
            scan would fault in every page.

        Raises
        ------
        GraphFormatError
            If ``path`` is not a valid GraphStore file.
        CorruptArtifact
            If the store fails the integrity checks selected by
            ``REPRO_STORE_VERIFY`` (``header`` by default: O(1)
            structural + header-digest checks; ``full`` streams and
            re-hashes every section before mapping).
        """
        import mmap as _mmap

        from repro.graph.serialize import read_store_header, verify_store
        from repro.integrity import verify_level

        header = read_store_header(path)
        if verify_level() != "off":
            verify_store(path, header=header)
        with open(path, "rb") as fh:
            if header.file_size:
                buf = _mmap.mmap(fh.fileno(), 0, access=_mmap.ACCESS_READ)
            else:  # pragma: no cover - zero-size files fail header checks
                buf = b""
        indptr = np.frombuffer(
            buf, dtype=np.int64, count=header.num_nodes + 1,
            offset=header.indptr_offset,
        )
        indices = np.frombuffer(
            buf, dtype=np.int64, count=header.num_arcs,
            offset=header.indices_offset,
        )
        weights = np.frombuffer(
            buf, dtype=np.float64, count=header.num_arcs,
            offset=header.weights_offset,
        )
        graph = cls(indptr, indices, weights, validate=validate)
        graph._mmap = buf
        graph.store_path = header.path
        return graph

    @property
    def is_mmap(self) -> bool:
        """Whether the arrays are memory-mapped views of a store file."""
        return self._mmap is not None

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of *undirected* edges ``m`` (half the stored arcs)."""
        return self._num_directed_edges // 2

    @property
    def num_arcs(self) -> int:
        """Number of stored directed arcs (``2m`` for a symmetric graph)."""
        return self._num_directed_edges

    @property
    def degrees(self) -> np.ndarray:
        """int64 array of node degrees (arc counts per node)."""
        return np.diff(self.indptr)

    @property
    def min_weight(self) -> float:
        """Smallest edge weight (``inf`` for an edgeless graph)."""
        return float(self.weights.min()) if len(self.weights) else float("inf")

    @property
    def max_weight(self) -> float:
        """Largest edge weight (``0`` for an edgeless graph)."""
        return float(self.weights.max()) if len(self.weights) else 0.0

    @property
    def mean_weight(self) -> float:
        """Arithmetic mean of edge weights (``0`` for an edgeless graph)."""
        return float(self.weights.mean()) if len(self.weights) else 0.0

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    def neighbors(self, u: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(neighbour_ids, edge_weights)`` views for node ``u``."""
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def degree(self, u: int) -> int:
        """Degree (number of incident arcs) of node ``u``."""
        return int(self.indptr[u + 1] - self.indptr[u])

    def iter_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield each undirected edge once as ``(u, v, w)`` with ``u <= v``.

        Intended for tests and I/O, not for hot paths.
        """
        for u in range(self._num_nodes):
            lo, hi = self.indptr[u], self.indptr[u + 1]
            for v, w in zip(self.indices[lo:hi], self.weights[lo:hi]):
                if u <= v:
                    yield u, int(v), float(w)

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(u, v, w)`` arrays listing each undirected edge once.

        Edges are returned with ``u <= v``, in CSR order.  Self-loops are
        impossible by construction (builders drop them) but would be
        returned once if present.
        """
        src = np.repeat(np.arange(self._num_nodes, dtype=np.int64), self.degrees)
        keep = src <= self.indices
        return src[keep], self.indices[keep], self.weights[keep]

    def arc_sources(self) -> np.ndarray:
        """Source node of every stored arc (length ``num_arcs``)."""
        return np.repeat(np.arange(self._num_nodes, dtype=np.int64), self.degrees)

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #

    def to_scipy(self):
        """Return the graph as a ``scipy.sparse.csr_matrix`` (for csgraph)."""
        from scipy.sparse import csr_matrix

        return csr_matrix(
            (self.weights, self.indices, self.indptr),
            shape=(self._num_nodes, self._num_nodes),
        )

    def memory_words(self) -> int:
        """Size of the CSR representation in machine words.

        Used by the MR simulator to check the linear-total-space claim
        (M_T = Θ(m)): one word per indptr entry plus two per arc.
        """
        return len(self.indptr) + 2 * self._num_directed_edges

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(n={self._num_nodes}, m={self.num_edges}, "
            f"w=[{self.min_weight:.3g}, {self.max_weight:.3g}])"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):  # graphs are mutable-looking containers; keep unhashable
        raise TypeError("CSRGraph is not hashable")
