"""Lazy package exports (PEP 562): same names, same objects, less import.

Nine package ``__init__`` modules resolve their public names on first
read (:mod:`repro._lazy`).  These tests run in fresh interpreters, so
nothing the test session already imported can hide a missing or wrong
export:

* every name in each lazy package's ``__all__`` resolves to the object
  the eager ``__init__`` gave (pinned below as ``module:qualname``, or
  the type for instances) and ``dir()`` lists it;
* a name that shadows its own submodule still resolves to the function
  when ``import <package>.<submodule>`` ran first;
* a submodule the eager ``__init__`` bound on its package
  (``repro.runtime``, ``repro.graph.ops``) is still an attribute after
  a bare ``import`` of the package;
* importing a package alone loads no NumPy.
"""

import json
import os
import subprocess
import sys

import pytest

#: What each name in each lazy package's ``__all__`` resolved to when
#: the package ``__init__`` modules imported eagerly, in ``__all__``
#: order: ``module:qualname``, with ``()`` for an instance of the type.
EAGER = {
    "repro": {
        "__version__": "builtins:str()",
        "ReproError": "repro.errors:ReproError",
        "GraphFormatError": "repro.errors:GraphFormatError",
        "GraphValidationError": "repro.errors:GraphValidationError",
        "MemoryLimitExceeded": "repro.errors:MemoryLimitExceeded",
        "ConfigurationError": "repro.errors:ConfigurationError",
        "CSRGraph": "repro.graph.csr:CSRGraph",
        "from_edges": "repro.graph.builder:from_edges",
        "from_edge_list": "repro.graph.builder:from_edge_list",
        "read_dimacs": "repro.graph.io:read_dimacs",
        "write_dimacs": "repro.graph.io:write_dimacs",
        "read_edge_list": "repro.graph.io:read_edge_list",
        "write_edge_list": "repro.graph.io:write_edge_list",
        "mesh": "repro.generators.mesh:mesh",
        "torus": "repro.generators.mesh:torus",
        "rmat": "repro.generators.rmat:rmat",
        "road_network": "repro.generators.roads:road_network",
        "roads": "repro.generators.roads:roads",
        "gnm_random_graph": "repro.generators.random_graphs:gnm_random_graph",
        "path_graph": "repro.generators.random_graphs:path_graph",
        "powerlaw_cluster_like": "repro.generators.random_graphs:powerlaw_cluster_like",
        "ClusterConfig": "repro.core.config:ClusterConfig",
        "Clustering": "repro.core.cluster:Clustering",
        "DiameterEstimate": "repro.core.diameter:DiameterEstimate",
        "cluster": "repro.core.cluster:cluster",
        "cluster2": "repro.core.cluster2:cluster2",
        "quotient_graph": "repro.core.quotient:quotient_graph",
        "approximate_diameter": "repro.core.diameter:approximate_diameter",
        "dijkstra_sssp": "repro.baselines.dijkstra:dijkstra_sssp",
        "bellman_ford_sssp": "repro.baselines.bellman_ford:bellman_ford_sssp",
        "delta_stepping_sssp": "repro.baselines.delta_stepping:delta_stepping_sssp",
        "sssp_diameter_approx": "repro.baselines.sssp_diameter:sssp_diameter_approx",
        "diameter_lower_bound": "repro.baselines.double_sweep:diameter_lower_bound",
        "exact_diameter": "repro.exact.apsp:exact_diameter",
        "MRSpec": "repro.mr.model:MRSpec",
        "MREngine": "repro.mr.engine:MREngine",
        "Counters": "repro.mr.metrics:Counters",
        "GraphStore": "repro.runtime.store:GraphStore",
        "get_graph": "repro.runtime.store:get_graph",
        "run_algorithm": "repro.runtime.runner:run",
        "RunResult": "repro.runtime.runner:RunResult",
    },
    "repro.graph": {
        "CSRGraph": "repro.graph.csr:CSRGraph",
        "from_edges": "repro.graph.builder:from_edges",
        "from_edge_list": "repro.graph.builder:from_edge_list",
        "symmetrized": "repro.graph.builder:symmetrized",
        "read_auto": "repro.graph.io:read_auto",
        "read_dimacs": "repro.graph.io:read_dimacs",
        "write_dimacs": "repro.graph.io:write_dimacs",
        "read_edge_list": "repro.graph.io:read_edge_list",
        "write_edge_list": "repro.graph.io:write_edge_list",
        "read_metis": "repro.graph.io:read_metis",
        "write_metis": "repro.graph.io:write_metis",
        "write_auto": "repro.graph.io:write_auto",
        "save_graph": "repro.graph.serialize:save_graph",
        "load_graph": "repro.graph.serialize:load_graph",
        "save_clustering": "repro.graph.serialize:save_clustering",
        "load_clustering": "repro.graph.serialize:load_clustering",
        "write_store": "repro.graph.serialize:write_store",
        "open_store": "repro.graph.serialize:open_store",
        "read_store_header": "repro.graph.serialize:read_store_header",
        "is_store": "repro.graph.serialize:is_store",
        "StoreHeader": "repro.graph.serialize:StoreHeader",
        "PartitionPlan": "repro.graph.partition:PartitionPlan",
        "PartitionedStore": "repro.graph.partition:PartitionedStore",
        "plan_partition": "repro.graph.partition:plan_partition",
        "write_partitioned_store": "repro.graph.partition:write_partitioned_store",
        "ensure_partitioned": "repro.graph.partition:ensure_partitioned",
        "load_partitioned": "repro.graph.partition:load_partitioned",
        "connected_components": "repro.graph.ops:connected_components",
        "largest_connected_component": "repro.graph.ops:largest_connected_component",
        "induced_subgraph": "repro.graph.ops:induced_subgraph",
        "degree_histogram": "repro.graph.ops:degree_histogram",
        "total_weight": "repro.graph.ops:total_weight",
        "cartesian_product": "repro.graph.ops:cartesian_product",
        "validate_graph": "repro.graph.validate:validate_graph",
    },
    "repro.core": {
        "ClusterConfig": "repro.core.config:ClusterConfig",
        "cluster": "repro.core.cluster:cluster",
        "cluster2": "repro.core.cluster2:cluster2",
        "Clustering": "repro.core.cluster:Clustering",
        "quotient_graph": "repro.core.quotient:quotient_graph",
        "approximate_diameter": "repro.core.diameter:approximate_diameter",
        "diameter_from_clustering": "repro.core.diameter:diameter_from_clustering",
        "DiameterEstimate": "repro.core.diameter:DiameterEstimate",
        "eccentricity_bounds": "repro.core.eccentricity:eccentricity_bounds",
        "EccentricityBounds": "repro.core.eccentricity:EccentricityBounds",
        "tune_tau": "repro.core.tuning:tune_tau",
        "TauTuningResult": "repro.core.tuning:TauTuningResult",
        "per_component_diameters": "repro.core.components:per_component_diameters",
        "ComponentDiameter": "repro.core.components:ComponentDiameter",
    },
    "repro.mr": {
        "MRSpec": "repro.mr.model:MRSpec",
        "Counters": "repro.mr.metrics:Counters",
        "RoundTrace": "repro.mr.trace:RoundTrace",
        "RoundRecord": "repro.mr.trace:RoundRecord",
        "MREngine": "repro.mr.engine:MREngine",
        "hash_partition": "repro.mr.partitioner:hash_partition",
        "hash_partition_array": "repro.mr.partitioner:hash_partition_array",
        "make_executor": "repro.mr.executor:make_executor",
        "EXECUTOR_NAMES": "builtins:tuple()",
    },
    "repro.mrimpl": {
        "ArrayGrowingState": "repro.mrimpl.growing_mr:ArrayGrowingState",
        "make_growing_state": "repro.mrimpl.growing_mr:make_growing_state",
        "default_engine": "repro.mrimpl.growing_mr:default_engine",
        "owned_engine": "repro.mrimpl.growing_mr:owned_engine",
        "mr_cluster": "repro.mrimpl.cluster_mr:mr_cluster",
        "mr_cluster2": "repro.mrimpl.cluster2_mr:mr_cluster2",
        "mr_approximate_diameter": "repro.mrimpl.diameter_mr:mr_approximate_diameter",
        "mr_quotient_graph": "repro.mrimpl.quotient_mr:mr_quotient_graph",
    },
    "repro.runtime": {
        "GraphStore": "repro.runtime.store:GraphStore",
        "default_store": "repro.runtime.store:default_store",
        "get_graph": "repro.runtime.store:get_graph",
        "AlgorithmRegistry": "repro.runtime.registry:AlgorithmRegistry",
        "AlgorithmSpec": "repro.runtime.registry:AlgorithmSpec",
        "REGISTRY": "repro.runtime.registry:AlgorithmRegistry()",
        "register": "repro.runtime.registry:register",
        "RunContext": "repro.runtime.runner:RunContext",
        "RunResult": "repro.runtime.runner:RunResult",
        "run": "repro.runtime.runner:run",
    },
    "repro.baselines": {
        "dijkstra_with_parents": "repro.baselines.paths:dijkstra_with_parents",
        "extract_path": "repro.baselines.paths:extract_path",
        "approximate_diametral_path": "repro.baselines.paths:approximate_diametral_path",
        "dijkstra_sssp": "repro.baselines.dijkstra:dijkstra_sssp",
        "dijkstra_sssp_reference": "repro.baselines.dijkstra:dijkstra_sssp_reference",
        "dial_sssp": "repro.baselines.dial:dial_sssp",
        "bellman_ford_sssp": "repro.baselines.bellman_ford:bellman_ford_sssp",
        "delta_stepping_sssp": "repro.baselines.delta_stepping:delta_stepping_sssp",
        "DeltaSteppingResult": "repro.baselines.delta_stepping:DeltaSteppingResult",
        "sssp_diameter_approx": "repro.baselines.sssp_diameter:sssp_diameter_approx",
        "SSSPDiameterResult": "repro.baselines.sssp_diameter:SSSPDiameterResult",
        "diameter_lower_bound": "repro.baselines.double_sweep:diameter_lower_bound",
    },
    "repro.generators": {
        "mesh": "repro.generators.mesh:mesh",
        "torus": "repro.generators.mesh:torus",
        "rmat": "repro.generators.rmat:rmat",
        "road_network": "repro.generators.roads:road_network",
        "roads": "repro.generators.roads:roads",
        "gnm_random_graph": "repro.generators.random_graphs:gnm_random_graph",
        "path_graph": "repro.generators.random_graphs:path_graph",
        "cycle_graph": "repro.generators.random_graphs:cycle_graph",
        "star_graph": "repro.generators.random_graphs:star_graph",
        "complete_graph": "repro.generators.random_graphs:complete_graph",
        "random_tree": "repro.generators.random_graphs:random_tree",
        "powerlaw_cluster_like": "repro.generators.random_graphs:powerlaw_cluster_like",
        "grid3d": "repro.generators.spatial:grid3d",
        "random_geometric": "repro.generators.spatial:random_geometric",
        "watts_strogatz": "repro.generators.spatial:watts_strogatz",
        "uniform_weights": "repro.generators.weights:uniform_weights",
        "integer_weights": "repro.generators.weights:integer_weights",
        "bimodal_weights": "repro.generators.weights:bimodal_weights",
        "unit_weights": "repro.generators.weights:unit_weights",
        "reweighted": "repro.generators.weights:reweighted",
    },
    "repro.exact": {
        "exact_diameter": "repro.exact.apsp:exact_diameter",
        "apsp_matrix": "repro.exact.apsp:apsp_matrix",
        "eccentricities": "repro.exact.eccentricity:eccentricities",
        "eccentricity": "repro.exact.eccentricity:eccentricity",
        "radius": "repro.exact.eccentricity:radius",
    },
}

#: Names equal to their own submodule's name.
SHADOWED = [
    ("repro.core", "cluster"),
    ("repro.core", "cluster2"),
    ("repro.generators", "mesh"),
    ("repro.generators", "rmat"),
    ("repro.generators", "roads"),
    ("repro.exact", "eccentricity"),
]

_DESCRIBE = (
    "import importlib, json, sys\n"
    "def describe(obj):\n"
    "    if not hasattr(obj, '__qualname__'):\n"
    "        t = type(obj)\n"
    "        return f'{t.__module__}:{t.__qualname__}()'\n"
    "    return f'{obj.__module__}:{obj.__qualname__}'\n"
)


def _python(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("package", sorted(EAGER))
def test_exports_resolve_to_the_eager_objects(package):
    out = _python(_DESCRIBE + (
        f"pkg = importlib.import_module({package!r})\n"
        "listed = set(dir(pkg))\n"
        "print(json.dumps({\n"
        "    'all': list(pkg.__all__),\n"
        "    'missing_from_dir': [n for n in pkg.__all__ if n not in listed],\n"
        "    'resolved': {n: describe(getattr(pkg, n)) for n in pkg.__all__},\n"
        "}))\n"
    ))
    assert out["all"] == list(EAGER[package])
    assert out["missing_from_dir"] == []
    assert out["resolved"] == EAGER[package]


@pytest.mark.parametrize("package,name", SHADOWED)
def test_shadowed_name_survives_a_prior_submodule_import(package, name):
    out = _python(_DESCRIBE + (
        f"import {package}.{name}\n"
        f"pkg = sys.modules[{package!r}]\n"
        f"from {package} import {name} as imported\n"
        f"print(json.dumps([describe(getattr(pkg, {name!r})),"
        " describe(imported)]))\n"
    ))
    assert out == [EAGER[package][name]] * 2


@pytest.mark.parametrize(
    "statement,expr,want",
    [
        ("import repro", "repro.runtime.run", "repro.runtime.runner:run"),
        (
            "import repro.graph",
            "repro.graph.ops.connected_components",
            "repro.graph.ops:connected_components",
        ),
        ("import repro", "repro.core.quotient.quotient_graph",
         "repro.core.quotient:quotient_graph"),
    ],
)
def test_submodules_are_attributes_after_a_bare_import(statement, expr, want):
    out = _python(_DESCRIBE + f"{statement}\nprint(json.dumps(describe({expr})))\n")
    assert out == want


@pytest.mark.parametrize("package", sorted(EAGER))
def test_importing_a_package_loads_no_numpy(package):
    out = _python(
        "import json, sys\n"
        f"import {package}\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'numpy' or m.startswith('numpy.'))))\n"
    )
    assert out == []


def test_unknown_name_is_an_attribute_error():
    import repro.core

    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        repro.core.nope  # noqa: B018
