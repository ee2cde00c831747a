"""Weighted-graph substrate: CSR storage, construction, I/O, and operations."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CSRGraph": "repro.graph.csr",
    "from_edges": "repro.graph.builder",
    "from_edge_list": "repro.graph.builder",
    "symmetrized": "repro.graph.builder",
    "read_auto": "repro.graph.io",
    "read_dimacs": "repro.graph.io",
    "write_dimacs": "repro.graph.io",
    "read_edge_list": "repro.graph.io",
    "write_edge_list": "repro.graph.io",
    "read_metis": "repro.graph.io",
    "write_metis": "repro.graph.io",
    "write_auto": "repro.graph.io",
    "save_graph": "repro.graph.serialize",
    "load_graph": "repro.graph.serialize",
    "save_clustering": "repro.graph.serialize",
    "load_clustering": "repro.graph.serialize",
    "write_store": "repro.graph.serialize",
    "open_store": "repro.graph.serialize",
    "read_store_header": "repro.graph.serialize",
    "is_store": "repro.graph.serialize",
    "StoreHeader": "repro.graph.serialize",
    "PartitionPlan": "repro.graph.partition",
    "PartitionedStore": "repro.graph.partition",
    "plan_partition": "repro.graph.partition",
    "write_partitioned_store": "repro.graph.partition",
    "ensure_partitioned": "repro.graph.partition",
    "load_partitioned": "repro.graph.partition",
    "connected_components": "repro.graph.ops",
    "largest_connected_component": "repro.graph.ops",
    "induced_subgraph": "repro.graph.ops",
    "degree_histogram": "repro.graph.ops",
    "total_weight": "repro.graph.ops",
    "cartesian_product": "repro.graph.ops",
    "validate_graph": "repro.graph.validate",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
