"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info <file>``
    Print a graph's basic statistics (n, m, weight range, components).
    For a binary GraphStore file, print the header metadata *without*
    loading the arrays.
``convert <input> <output>``
    Convert between graph formats by extension; in particular
    ``repro convert graph.gr graph.rcsr`` writes the memory-mappable
    GraphStore container.
``generate <family> -o out.gr [params]``
    Write a benchmark-family graph (format from the output extension).
``diameter <file> [--tau N] [--exact] [--seed S] [--executor E]``
    Run CL-DIAM and report the estimate, certified lower bound, rounds
    and work.
``sssp <file> --source U [--delta D]``
    Run Δ-stepping SSSP and report eccentricity/rounds/work.
``compare <file> [--tau N]``
    One Table-2-style row: CL-DIAM vs best-Δ Δ-stepping.
``partition <file> [--shards K] [--report]``
    Write (or refresh) the graph's locality-aware (lp) owner-compute
    shard partition — ``<store>.rcsr.shards/<K>-lp/part-*.rcsr`` +
    sidecars + manifest — and print the edge-cut summary (``--report``
    adds the per-shard table).  ``--executor sharded`` reuses it.
``run <algorithm> <file> [options]``
    Dispatch any registered algorithm through the runtime layer
    (``repro algorithms`` lists them) and print its metrics.

Every command that takes a graph file accepts any supported format —
DIMACS ``.gr``(.gz), METIS, edge list, legacy ``.npz``, or GraphStore
``.rcsr``.  Algorithm commands load through the process-wide
:class:`~repro.runtime.store.GraphStore`, so a text graph is parsed
once, converted to the binary container under ``~/.cache/repro`` (or
``$REPRO_STORE_DIR``), and memory-mapped on every later invocation —
warm starts are milliseconds regardless of graph size.

The CLI is a thin veneer over :func:`repro.runtime.run`; each command
returns an exit status (0 success) and prints human-readable text to
stdout, making the package usable from shell pipelines without writing
Python.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro._version import __version__
from repro.errors import ConfigurationError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from repro.mr.executor import EXECUTOR_NAMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Diameter approximation of massive weighted graphs "
        "(Ceccarello et al., IPPS 2016 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print graph statistics")
    p_info.add_argument("file")

    p_conv = sub.add_parser(
        "convert",
        help="convert between graph formats (.rcsr = mmap GraphStore)",
    )
    p_conv.add_argument("input")
    p_conv.add_argument("output")

    p_gen = sub.add_parser("generate", help="generate a benchmark graph")
    p_gen.add_argument(
        "family",
        choices=["mesh", "rmat", "road", "roads", "gnm", "powerlaw"],
    )
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.add_argument("--size", type=int, default=32,
                       help="side/scale/S/n depending on family")
    p_gen.add_argument("--edges", type=int, default=None,
                       help="edge count (gnm only)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--weights", default="uniform",
                       choices=["uniform", "unit"])

    p_diam = sub.add_parser("diameter", help="estimate the weighted diameter")
    p_diam.add_argument("file")
    p_diam.add_argument("--tau", type=int, default=None)
    p_diam.add_argument("--seed", type=int, default=0)
    p_diam.add_argument("--exact", action="store_true",
                        help="also compute the exact diameter (small graphs)")
    p_diam.add_argument("--cluster2", action="store_true",
                        help="use CLUSTER2 (Algorithm 2) for the decomposition")
    p_diam.add_argument(
        "--executor",
        choices=list(EXECUTOR_NAMES),
        default=None,
        help="run the MR-engine code path on this backend: 'vector' is "
        "the NumPy batch engine, 'sharded' the owner-compute "
        "persistent-worker backend.  "
        "Default: the vectorized in-memory path (no MR engine).",
    )
    p_diam.add_argument(
        "--workers", type=int, default=None,
        help="simulated machines (the shard count for 'sharded'); "
        "defaults to 1",
    )
    p_diam.add_argument(
        "--shards", type=int, default=None,
        help="shard count for --executor sharded (default: CPU count)",
    )

    p_part = sub.add_parser(
        "partition",
        help="write the owner-compute shard partition of a graph store",
    )
    p_part.add_argument("file")
    p_part.add_argument("--shards", type=int, default=4,
                        help="number of shards")
    p_part.add_argument(
        "--report", action="store_true",
        help="print the per-shard edge-cut table",
    )

    p_sssp = sub.add_parser("sssp", help="run delta-stepping SSSP")
    p_sssp.add_argument("file")
    p_sssp.add_argument("--source", type=int, default=0)
    p_sssp.add_argument("--delta", default="mean")

    p_cmp = sub.add_parser("compare", help="CL-DIAM vs delta-stepping")
    p_cmp.add_argument("file")
    p_cmp.add_argument("--tau", type=int, default=None)
    p_cmp.add_argument("--seed", type=int, default=0)

    p_ecc = sub.add_parser(
        "eccentricity", help="certified per-node eccentricity bounds"
    )
    p_ecc.add_argument("file")
    p_ecc.add_argument("--tau", type=int, default=None)
    p_ecc.add_argument("--seed", type=int, default=0)
    p_ecc.add_argument("--top", type=int, default=5,
                       help="show the nodes with the largest upper bounds")

    p_comp = sub.add_parser(
        "components", help="per-component diameter estimates"
    )
    p_comp.add_argument("file")
    p_comp.add_argument("--tau", type=int, default=None)
    p_comp.add_argument("--seed", type=int, default=0)

    p_run = sub.add_parser(
        "run", help="run any registered algorithm by name"
    )
    p_run.add_argument("algorithm")
    p_run.add_argument("file")
    p_run.add_argument("--tau", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--executor", choices=list(EXECUTOR_NAMES),
                       default=None)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--shards", type=int, default=None,
                       help="shard count for --executor sharded")
    p_run.add_argument("--source", type=int, default=None,
                       help="source node (sssp)")
    p_run.add_argument("--delta", default=None, help="bucket width (sssp)")
    p_run.add_argument("--exact", action="store_true",
                       help="also compute the exact answer (diameter)")
    p_run.add_argument("--timings", action="store_true",
                       help="print per-phase wall-clock (emit/shuffle/"
                            "reduce/apply) after the run")
    p_run.add_argument(
        "--checkpoint", nargs="?", const="5", default=None, metavar="EVERY",
        help="checkpoint at safe points every EVERY rounds (or '<x>s' "
             "seconds); bare --checkpoint means every 5 rounds",
    )
    p_run.add_argument(
        "--resume", action="store_true",
        help="resume from the newest valid checkpoint (fresh run if none)",
    )
    p_run.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="checkpoint tree location (default: <store>.ckpt next to "
             "the graph store; env REPRO_CHECKPOINT_DIR)",
    )
    p_run.add_argument("--kernel-impl", choices=["auto", "py", "native"],
                       default=None,
                       help="kernel tier: native C kernels, pure NumPy, "
                            "or auto (native when a compiler exists)")

    sub.add_parser("algorithms", help="list the registered algorithms")

    p_serve = sub.add_parser(
        "serve",
        help="run the persistent graph-analytics daemon (see docs/serve.md)",
    )
    p_serve.add_argument("--socket", default=None,
                         help="unix socket path to listen on")
    p_serve.add_argument("--port", type=int, default=None,
                         help="TCP port to listen on (0 picks a free port)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--max-workers", type=int, default=2,
                         help="concurrent queries across all graphs")
    p_serve.add_argument("--queue-depth", type=int, default=16,
                         help="waiting queries per graph before 429 busy")
    p_serve.add_argument("--max-pending", type=int, default=64,
                         help="total admitted queries before 429 busy")
    p_serve.add_argument("--cache-entries", type=int, default=256,
                         help="result-cache capacity (0 disables caching)")
    p_serve.add_argument("--graph-capacity", type=int, default=8,
                         help="resident graphs kept warm (LRU)")
    p_serve.add_argument("--query-deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="default per-query wall-clock budget; "
                              "expired queries answer degraded instead "
                              "of erroring (default: no deadline)")
    p_serve.add_argument("--shutdown-grace", type=float, default=5.0,
                         metavar="SECONDS",
                         help="seconds shutdown waits for in-flight "
                              "queries before abandoning them")
    p_serve.add_argument("--no-shutdown-op", action="store_true",
                         help="refuse the remote 'shutdown' op")
    p_serve.add_argument("--preload", action="append", default=[],
                         metavar="GRAPH",
                         help="make GRAPH resident at boot (repeatable)")
    p_serve.add_argument("--memory-budget", default=None, metavar="BYTES",
                         help="resident-memory budget ('512MB', '2GB', or "
                              "bytes); over-budget queries get 503 + "
                              "retry-after instead of an OOM")
    p_serve.add_argument("--rate-limit", type=float, default=None,
                         metavar="QPS",
                         help="per-client query rate limit (token bucket); "
                              "exhausted clients get 429 + retry-after")
    p_serve.add_argument("--rate-burst", type=float, default=None,
                         metavar="N",
                         help="token-bucket burst capacity (default: "
                              "max(rate-limit, 1))")

    p_shell = sub.add_parser(
        "shell", help="interactive client for a running serve daemon"
    )
    p_shell.add_argument("--socket", default=None,
                         help="unix socket of the daemon")
    p_shell.add_argument("--port", type=int, default=None,
                         help="TCP port of the daemon")
    p_shell.add_argument("--host", default="127.0.0.1")

    p_verify = sub.add_parser(
        "verify",
        help="check a graph's store, shard layouts, and checkpoints "
             "against their recorded digests",
    )
    p_verify.add_argument("file")
    p_verify.add_argument(
        "--deep", action="store_true",
        help="re-hash every payload byte (the 'full' verify tier); "
             "default checks structure plus the O(1) digests",
    )

    p_ckpt = sub.add_parser(
        "ckpt", help="inspect or garbage-collect checkpoint trees"
    )
    ckpt_sub = p_ckpt.add_subparsers(dest="ckpt_command", required=True)
    p_clist = ckpt_sub.add_parser("list", help="list published rounds")
    p_clist.add_argument("directory",
                         help="a <store>.ckpt tree or one run directory")
    p_cgc = ckpt_sub.add_parser(
        "gc", help="delete rounds the retention policy no longer keeps"
    )
    p_cgc.add_argument("directory",
                       help="a <store>.ckpt tree or one run directory")
    p_cgc.add_argument(
        "--retain", default=None, metavar="SPEC",
        help="retention: round count ('5'), age ('36h', '7d'), or byte "
             "budget ('500MB'); default: env REPRO_CKPT_RETAIN or keep 3",
    )
    p_cgc.add_argument("--dry-run", action="store_true",
                       help="report what would be deleted, delete nothing")
    return parser


def _parse_delta(raw):
    """CLI deltas are floats when they look like floats, else keywords."""
    try:
        return float(raw)
    except ValueError:
        return raw


def _check_workers(args) -> Optional[int]:
    """Shared --workers/--executor validation; returns an exit code or None."""
    if args.workers is not None and args.executor is None:
        print("error: --workers requires --executor", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    shards = getattr(args, "shards", None)
    if shards is not None and args.executor != "sharded":
        print("error: --shards requires --executor sharded", file=sys.stderr)
        return 2
    if shards is not None and shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    return None


def _cmd_info(args) -> int:
    from repro.graph.serialize import is_store, read_store_header

    if is_store(args.file):
        # Header metadata only — the arrays are never touched, so this
        # is O(1) even for a multi-gigabyte store.
        header = read_store_header(args.file)
        print(f"format       : GraphStore v{header.version} (mmap-ready)")
        print(f"nodes        : {header.num_nodes}")
        print(f"edges        : {header.num_edges}")
        print(f"arcs         : {header.num_arcs}")
        print(f"file size    : {header.file_size} bytes")
        sections = " ".join(
            f"{name}@{offset}" for name, offset, _ in header.sections()
        )
        print(f"sections     : {sections}")
        _print_partitions(args.file)
        return 0

    from repro.graph.io import read_auto
    from repro.graph.ops import connected_components

    graph = read_auto(args.file)
    count, labels = connected_components(graph)
    print(f"nodes        : {graph.num_nodes}")
    print(f"edges        : {graph.num_edges}")
    print(f"components   : {count}")
    print(f"weight range : [{graph.min_weight:.6g}, {graph.max_weight:.6g}]")
    print(f"mean weight  : {graph.mean_weight:.6g}")
    print(f"max degree   : {graph.degrees.max() if graph.num_nodes else 0}")
    return 0


def _print_partitions(store_file) -> None:
    """Summarize the cached shard partitions of a store, if any."""
    import json

    from repro.graph.partition import MANIFEST_NAME

    shards_root = Path(str(store_file) + ".shards")
    if not shards_root.is_dir():
        return
    lines = []
    for directory in sorted(shards_root.iterdir()):
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.is_file():
            continue
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError):
            continue
        num_arcs = int(manifest.get("num_arcs", 0) or 0)
        cut = sum(manifest.get("cut_arcs", [])) / num_arcs if num_arcs else 0.0
        lines.append(
            f"{manifest.get('num_shards')}-way "
            f"{manifest.get('partitioner', '?')} (cut {cut:.1%})"
        )
    if lines:
        print(f"partitions   : {', '.join(lines)}")


def _cmd_convert(args) -> int:
    from repro.graph.serialize import STORE_SUFFIX

    if Path(args.output).suffix == STORE_SUFFIX:
        from repro.runtime import default_store

        graph = default_store().convert(args.input, args.output)
    else:
        from repro.graph.io import read_auto, write_auto

        graph = read_auto(args.input)
        write_auto(graph, args.output, comment=f"repro convert {args.input}")
    size = Path(args.output).stat().st_size
    print(
        f"converted {args.input} -> {args.output} "
        f"({graph.num_nodes} nodes / {graph.num_edges} edges, {size} bytes)"
    )
    return 0


def _cmd_generate(args) -> int:
    from repro.generators import (
        gnm_random_graph,
        mesh,
        powerlaw_cluster_like,
        rmat,
        road_network,
        roads,
    )
    from repro.graph.io import write_auto

    size, seed, weights = args.size, args.seed, args.weights
    if args.family == "mesh":
        graph = mesh(size, seed=seed, weights=weights)
    elif args.family == "rmat":
        graph = rmat(size, seed=seed, weights=weights)
    elif args.family == "road":
        graph = road_network(size, seed=seed)
    elif args.family == "roads":
        graph = roads(size, seed=seed)
    elif args.family == "gnm":
        m = args.edges if args.edges is not None else 4 * size
        graph = gnm_random_graph(size, m, seed=seed, weights=weights, connect=True)
    else:  # powerlaw
        graph = powerlaw_cluster_like(size, seed=seed, weights=weights)
    write_auto(graph, args.output, comment=f"repro generate {args.family}")
    print(f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges to {args.output}")
    return 0


def _cmd_diameter(args) -> int:
    from repro.baselines.double_sweep import diameter_lower_bound
    from repro.runtime import run

    rc = _check_workers(args)
    if rc is not None:
        return rc
    result = run(
        "diameter",
        args.file,
        tau=args.tau,
        seed=args.seed,
        executor=args.executor,
        workers=args.workers,
        shards=args.shards,
        use_cluster2=args.cluster2,
        exact=args.exact,
    )
    if args.executor is not None:
        print(f"executor     : {args.executor} ({result.workers} workers)")
    lb = diameter_lower_bound(result.graph, seed=args.seed)
    print(f"estimate     : {result.value:.6g}")
    print(f"lower bound  : {lb:.6g}")
    print(f"ratio (<=)   : {result.value / lb if lb > 0 else float('inf'):.4f}")
    print(f"radius       : {result.metrics['radius']:.6g}")
    print(f"clusters     : {result.metrics['clusters']}")
    print(f"rounds       : {result.counters.rounds}")
    print(f"work         : {result.counters.work}")
    if args.exact:
        exact = result.metrics["exact"]
        print(f"exact        : {exact:.6g}")
        print(f"true ratio   : {result.metrics['true_ratio']:.4f}")
    return 0


def _cmd_partition(args) -> int:
    from repro.bench.reporting import format_table
    from repro.runtime import default_store

    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    partitioned = default_store().get_partitioned(args.file, args.shards)
    plan = partitioned.plan
    shard_nodes = plan.shard_nodes
    balance = (
        float(plan.shard_arcs.max() / (plan.num_arcs / plan.num_shards))
        if plan.num_arcs
        else 1.0
    )
    print(
        f"{plan.num_shards}-way lp partition of {args.file}: "
        f"n={plan.num_nodes}, arcs={plan.num_arcs}, "
        f"cut={plan.cut_fraction:.2%}, arc balance={balance:.2f}x"
    )
    if args.report:
        rows = []
        for k in range(plan.num_shards):
            rows.append(
                {
                    "shard": k,
                    "nodes": int(shard_nodes[k]),
                    "arcs": int(plan.shard_arcs[k]),
                    "cut_arcs": int(plan.cut_arcs[k]),
                    "boundary_nodes": int(plan.boundary_nodes[k]),
                }
            )
        print(format_table(rows, title="per-shard edge-cut report"))
    print(f"shards       : {partitioned.directory}")
    return 0


def _cmd_sssp(args) -> int:
    from repro.runtime import run

    result = run(
        "sssp",
        args.file,
        seed=0,
        source=args.source,
        delta=_parse_delta(args.delta),
    )
    print(f"source        : {args.source}")
    print(f"delta         : {result.metrics['delta']:.6g}")
    print(
        f"reached       : {result.metrics['reached']} / "
        f"{result.graph.num_nodes}"
    )
    print(f"eccentricity  : {result.value:.6g}")
    print(f"buckets       : {result.metrics['buckets']}")
    print(f"rounds        : {result.counters.rounds}")
    print(f"work          : {result.counters.work}")
    return 0


def _cmd_compare(args) -> int:
    from repro.bench.harness import compare_algorithms
    from repro.bench.reporting import format_table
    from repro.core.config import ClusterConfig
    from repro.runtime import get_graph

    graph = get_graph(args.file)
    cl, ds, lb = compare_algorithms(
        graph,
        graph_name=Path(args.file).name,
        tau=args.tau,
        config=ClusterConfig(seed=args.seed, stage_threshold_factor=1.0),
        lb_seed=args.seed,
    )
    print(format_table([cl.as_row(), ds.as_row()],
                       title=f"lower bound = {lb:.6g}"))
    return 0


def _cmd_eccentricity(args) -> int:
    import numpy as np

    from repro.runtime import run

    result = run("eccentricity", args.file, tau=args.tau, seed=args.seed)
    bounds = result.raw
    lo = result.metrics["diameter_lower"]
    hi = result.metrics["diameter_upper"]
    print(f"diameter bracket : [{lo:.6g}, {hi:.6g}]")
    order = np.argsort(-bounds.upper)[: max(args.top, 0)]
    for node in order:
        print(
            f"node {int(node):>8}: ecc in [{bounds.lower[node]:.6g}, "
            f"{bounds.upper[node]:.6g}]"
        )
    return 0


def _cmd_components(args) -> int:
    from repro.runtime import run

    result = run("components", args.file, tau=args.tau, seed=args.seed)
    results = result.raw
    print(f"components   : {len(results)}")
    for r in results[:10]:
        print(
            f"component {r.component:>4}: size {r.size:>8}  "
            f"diameter <= {r.estimate:.6g}"
        )
    if len(results) > 10:
        print(f"... and {len(results) - 10} more")
    return 0


def _cmd_run(args) -> int:
    from repro.mr.faults import get_fault_plan
    from repro.runtime import REGISTRY, run

    if args.algorithm not in REGISTRY:
        known = ", ".join(REGISTRY.names())
        print(
            f"error: unknown algorithm {args.algorithm!r} (known: {known})",
            file=sys.stderr,
        )
        return 2
    rc = _check_workers(args)
    if rc is not None:
        return rc
    # Parse REPRO_FAULT_PLAN up front: only the MR drivers consult it,
    # and a malformed plan must fail every executor alike.
    get_fault_plan()
    # Options are passed through unfiltered: run() rejects any the
    # algorithm does not understand, instead of silently ignoring them.
    options = {}
    if args.source is not None:
        options["source"] = args.source
    if args.delta is not None:
        options["delta"] = _parse_delta(args.delta)
    if args.exact:
        options["exact"] = True
    result = run(
        args.algorithm,
        args.file,
        tau=args.tau,
        seed=args.seed,
        executor=args.executor,
        workers=args.workers,
        shards=args.shards,
        kernel_impl=args.kernel_impl,
        checkpoint_every=args.checkpoint,
        resume=args.resume,
        checkpoint_dir=args.checkpoint_dir,
        **options,
    )
    print(f"algorithm    : {result.algorithm}")
    if args.executor is not None:
        print(f"executor     : {args.executor} ({result.workers} workers)")
    if result.kernel_impl is not None:
        print(f"kernels      : {result.kernel_impl}")
    resume_round = result.counters.impl.get("resume_round")
    if resume_round is not None:
        print(f"resumed from : round {resume_round}")
    saved = result.counters.impl.get("checkpoint_rounds")
    if saved:
        print(f"checkpoints  : rounds {', '.join(str(r) for r in saved)}")
    print(f"value        : {result.value:.6g}")
    for key, value in result.metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{key:<13}: {shown}")
    print(f"rounds       : {result.counters.rounds}")
    print(f"work         : {result.counters.work}")
    print(f"elapsed      : {result.elapsed:.3f}s")
    if args.timings:
        accounted = 0.0
        for phase, seconds in result.timings.items():
            print(f"  {phase:<11}: {seconds:.3f}s")
            accounted += seconds
        print(f"  {'other':<11}: {max(0.0, result.elapsed - accounted):.3f}s")
    return 0


def _cmd_algorithms(args) -> int:
    from repro.runtime import REGISTRY

    for spec in sorted(REGISTRY, key=lambda s: s.name):
        executors = "core|mr engines" if spec.supports_executor else "core"
        print(f"{spec.name:<20} {spec.summary}  [{executors}]")
    return 0


def _parse_bytes(text: Optional[str]) -> Optional[int]:
    """'512MB' / '2GB' / plain byte counts for --memory-budget."""
    if text is None:
        return None
    t = str(text).strip().lower()
    for suffix, scale in (
        ("tb", 1024**4), ("gb", 1024**3), ("mb", 1024**2), ("kb", 1024),
        ("b", 1),
    ):
        if t.endswith(suffix):
            try:
                return int(float(t[: -len(suffix)]) * scale)
            except ValueError:
                break
    try:
        return int(t)
    except ValueError:
        raise ConfigurationError(
            f"invalid byte size {text!r}: expected e.g. '512MB', '2GB', "
            "or a plain byte count"
        ) from None


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import ReproServer, ServerConfig

    try:
        config = ServerConfig(
            socket_path=args.socket,
            host=args.host,
            port=args.port,
            max_workers=args.max_workers,
            max_queue_depth=args.queue_depth,
            max_pending=args.max_pending,
            cache_entries=args.cache_entries,
            graph_capacity=args.graph_capacity,
            allow_shutdown=not args.no_shutdown_op,
            preload=tuple(args.preload),
            query_deadline_s=args.query_deadline,
            shutdown_grace_s=args.shutdown_grace,
            memory_budget=_parse_bytes(args.memory_budget),
            rate_limit=args.rate_limit,
            rate_burst=args.rate_burst,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server = ReproServer(config)

    async def _main():
        await server.start()
        where = []
        if config.socket_path:
            where.append(f"unix:{config.socket_path}")
        if server.bound_port is not None:
            where.append(f"{config.host}:{server.bound_port}")
        print(f"repro serve listening on {', '.join(where)} "
              f"({config.max_workers} workers)")
        await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("\nrepro serve stopped")
    return 0


def _cmd_shell(args) -> int:
    from repro.serve import run_shell
    from repro.serve.protocol import ServeError

    if (args.socket is None) == (args.port is None):
        print("error: give exactly one of --socket or --port",
              file=sys.stderr)
        return 2
    try:
        return run_shell(
            socket_path=args.socket, host=args.host, port=args.port
        )
    except (ConnectionError, ServeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_verify(args) -> int:
    from repro.runtime.verify import verify_tree

    reports = verify_tree(args.file, deep=args.deep)
    failures = 0
    for report in reports:
        mark = "ok  " if report["ok"] else "FAIL"
        failures += not report["ok"]
        line = f"{mark}  {report['kind']:<10} {report['artifact']}"
        if report["detail"]:
            line += f"  ({report['detail']})"
        print(line)
    depth = "deep" if args.deep else "header"
    print(
        f"{len(reports)} artifact(s) checked ({depth}), "
        f"{failures} failure(s)"
    )
    return 1 if failures else 0


def _cmd_ckpt(args) -> int:
    from repro.runtime.checkpoint import (
        RetentionPolicy,
        collect_garbage,
        list_checkpoints,
    )

    trees = list_checkpoints(args.directory)
    if not trees:
        print(f"no checkpoint rounds under {args.directory}")
        return 0
    if args.ckpt_command == "list":
        for tree in trees:
            total = sum(r["bytes"] for r in tree["rounds"])
            print(f"{tree['run_key']}  ({tree['directory']}, {total} bytes)")
            for row in tree["rounds"]:
                import datetime

                stamp = datetime.datetime.fromtimestamp(
                    row["mtime"]
                ).isoformat(timespec="seconds")
                print(
                    f"  round-{row['round']:<8} {row['bytes']:>12} bytes  "
                    f"{stamp}"
                )
        return 0
    # gc
    policy = (
        RetentionPolicy.parse(args.retain)
        if args.retain is not None
        else RetentionPolicy.from_env()
    )
    verb = "would delete" if args.dry_run else "deleted"
    for tree in trees:
        removed = collect_garbage(
            tree["directory"], policy, dry_run=args.dry_run
        )
        if removed:
            rounds = ", ".join(f"round-{r}" for r in removed)
            print(f"{tree['run_key']}: {verb} {rounds}")
        else:
            print(f"{tree['run_key']}: nothing to collect")
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "convert": _cmd_convert,
    "generate": _cmd_generate,
    "diameter": _cmd_diameter,
    "partition": _cmd_partition,
    "sssp": _cmd_sssp,
    "compare": _cmd_compare,
    "eccentricity": _cmd_eccentricity,
    "components": _cmd_components,
    "run": _cmd_run,
    "algorithms": _cmd_algorithms,
    "serve": _cmd_serve,
    "shell": _cmd_shell,
    "verify": _cmd_verify,
    "ckpt": _cmd_ckpt,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        # Missing inputs, unwritable shard/output directories, ...:
        # filesystem problems get a clean message, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # surface library errors with a clean message
        from repro.errors import ReproError

        if isinstance(exc, ReproError):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
