"""One traced CL-DIAM run: the runner's layer calls, each inside a span.

Usage::

    python3 perfbench/traced.py STORE --seed S --executor vector|sharded \
        [--shards K] --out trace.json

The script calls the public functions ``repro run diameter`` reaches, in
the runner's order, and wraps each call in a span (name, start, end,
parent) taken with ``time.perf_counter``:

1. ``import repro.cli`` and the modules the run command imports;
2. ``GraphStore.get`` (plus ``get_partitioned`` for the sharded executor);
3. ``native_available()``;
4. ``owned_engine`` (engine build; worker spawn for the sharded executor);
5. ``mr_cluster``;
6. ``mr_quotient_graph``;
7. ``quotient_diameter``.

Nothing inside the program is instrumented.  Spans stay in memory and
are written once, at exit, together with the run's estimate and
counters, so the caller can check them against an untraced
``repro run`` of the same seed.  Counting crossing edges for the report
happens after the run, in a ``trace.bookkeeping`` span the caller
subtracts from the traced wall time.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402


class Tracer:
    """In-memory span recorder; offsets are seconds since interpreter start."""

    def __init__(self) -> None:
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter() - T0,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - T0
            self._stack.pop()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("store")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--executor", choices=["vector", "sharded"],
                        required=True)
    parser.add_argument("--shards", type=int, default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    tracer = Tracer()
    span = tracer.span

    with span("cli.import"):
        import repro.cli  # noqa: F401
        from repro.core.config import ClusterConfig
        from repro.core.diameter import quotient_diameter
        from repro.mr import native
        from repro.mrimpl.cluster_mr import mr_cluster
        from repro.mrimpl.growing_mr import owned_engine
        from repro.mrimpl.quotient_mr import mr_quotient_graph
        from repro.runtime.store import GraphStore

    sharded = args.executor == "sharded"
    workers = args.shards if sharded else 1
    with span("store.open"):
        store = GraphStore()
        graph = store.get(args.store)
    if sharded:
        with span("store.partition"):
            store.get_partitioned(args.store, workers, partitioner="lp")
    with span("native.load"):
        native.native_available()

    # The configuration `repro run diameter --seed S --executor E` builds.
    config = ClusterConfig(seed=args.seed, stage_threshold_factor=1.0)
    if sharded:
        config = config.with_(shards=workers)
    config = config.with_(executor=args.executor, use_cluster2=False)
    shipped = []
    with native.impl_overrides(config.kernel_impl, config.emit_threads):
        with contextlib.ExitStack() as stack:
            with span("engine.build"):
                engine = stack.enter_context(
                    owned_engine(graph, config, None, num_workers=workers)
                )
            with span("cluster.decompose"):
                clustering = mr_cluster(graph, config=config, engine=engine)
            # Phase timings so far belong to CLUSTER; the quotient round
            # adds its own to the same counters.
            cluster_timings = clustering.counters.timing_snapshot()
            with span("quotient.build"):
                quotient, _centers = mr_quotient_graph(engine, graph, clustering)
            shipped = list(getattr(engine.executor, "bytes_shipped_per_round", []))
            with span("engine.close"):
                stack.close()
        impl = native.resolved_info()
    with span("quotient.diameter"):
        value, exact = quotient_diameter(
            quotient,
            mode=config.quotient_mode,
            exact_limit=config.quotient_exact_limit,
        )
    estimate = value + 2.0 * clustering.radius

    with span("trace.bookkeeping"):
        import numpy as np

        ids = clustering.cluster_ids()
        rows = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
        crossing = int(np.count_nonzero(ids[rows] != ids[graph.indices]) // 2)
        counters = clustering.counters
        from repro.integrity import verify_level

        report = {
            "estimate": estimate,
            "rounds": counters.rounds,
            "work": counters.work,
            "messages": counters.messages,
            "updates": counters.updates,
            "growing_steps": counters.growing_steps,
            "clusters": int(clustering.num_clusters),
            "radius": float(clustering.radius),
            "timings": cluster_timings,
            "quotient_nodes": int(quotient.num_nodes),
            "quotient_edges": int(quotient.num_edges),
            "quotient_exact": bool(exact),
            "crossing_edges": crossing,
            "bytes_shipped_per_round": [int(b) for b in shipped],
            "impl": {**impl, "store_verify": verify_level()},
        }
    report["spans"] = tracer.spans
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
