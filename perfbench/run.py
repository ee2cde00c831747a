"""The repository's benchmark: CL-DIAM end to end, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rmat-vector --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` says why each one is here):

* ``rmat-vector``  - one-shot ``repro run diameter STORE --executor vector``
  on a stored R-MAT LCC;
* ``road-vector``  - the same command on a stored ``road_network`` grid;
* ``rmat-sharded`` - the R-MAT store with ``--executor sharded --shards 2``;
* ``serve-mixed``  - a ``repro serve`` daemon with an R-MAT and a road graph
  preloaded, driven by one closed-loop client connection.

Every batch repetition is a fresh ``repro run`` process, after one
unmeasured warm-up repetition; every workload first sets up from
scratch several times, each time in a cold private directory (store,
native kernels, checkpoints, temporary files), and reports the median
set-up time.  Outputs are checked while they are
measured: an estimate below the double-sweep lower bound, two runs of
one seed that disagree, a sharded run that disagrees with the vector
run, a served digest that differs from a direct ``runtime.run`` and
a repetition that outlives its deadline all count as failed
operations.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics: it alternates untraced ``repro run`` processes with
``perfbench/traced.py`` processes, which call the same layers from
outside, each call inside a span.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--scale small`` shrinks every graph for the smoke test.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Distinct CL-DIAM seeds each batch run cycles through.
BATCH_SEEDS = 4
#: CL-DIAM seeds per (graph, algorithm, executor) in the serve mix.
SERVE_SEEDS = 6
SHARDS = 2
#: The daemon's result-cache capacity: a quarter of the distinct queries,
#: so the client's cycle through them always misses (LRU evictions) and
#: every latency statistic rests on hundreds of warm-engine runs.
SERVE_CACHE_ENTRIES = 12
#: Misses the client sends before it repeats the last one, which the
#: cache must answer: a fixed 25% hit share.
SERVE_MISSES_PER_HIT = 3
#: Wall-clock limit on one repetition (process or query).
REP_DEADLINE_S = 60.0
#: Extra time a run may spend finishing started work past ``--seconds``.
GRACE_S = 60.0

SCALES = {
    "full": {"rmat": 16, "road": 1024, "serve_rmat": 13, "serve_road": 192},
    "small": {"rmat": 8, "road": 16, "serve_rmat": 8, "serve_road": 16},
}

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "rmat-vector": {"kind": "batch", "family": "rmat", "executor": "vector"},
    "road-vector": {"kind": "batch", "family": "road", "executor": "vector"},
    "rmat-sharded": {"kind": "batch", "family": "rmat", "executor": "sharded"},
    "serve-mixed": {"kind": "serve"},
}


class BenchError(RuntimeError):
    """A failure that leaves nothing to measure (set-up, boot)."""


# --------------------------------------------------------------------- #
# Processes and isolation
# --------------------------------------------------------------------- #


def private_env(base: Path) -> Dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` knob, plus
    private store, native-kernel, checkpoint and temporary directories
    under ``base``, so a warm ``~/.cache`` or a stray knob cannot move
    the numbers and nothing is written outside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_STORE_DIR"] = str(base / "store")
    env["REPRO_NATIVE_DIR"] = str(base / "native")
    env["REPRO_CHECKPOINT_DIR"] = str(base / "ckpt")
    env["TMPDIR"] = str(base / "tmp")  # the C compiler's scratch files
    (base / "tmp").mkdir(parents=True, exist_ok=True)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: List[str], env: Dict[str, str], log: Path) -> subprocess.Popen:
    with open(log, "wb") as out:
        return subprocess.Popen(
            cmd, env=env, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )


def reap(proc: subprocess.Popen, deadline_s: float) -> Dict[str, Any]:
    """Wait for ``proc`` (killing its process group past the deadline).

    Returns the exit time, exit code, peak RSS in KiB (``wait4``
    reports the largest of the process and the children it waited for)
    and whether the deadline fired.
    """
    box: Dict[str, Any] = {}

    def waiter() -> None:
        _, status, usage = os.wait4(proc.pid, 0)
        box.update(end=time.perf_counter(), status=status,
                   maxrss_kb=usage.ru_maxrss)

    thread = threading.Thread(target=waiter, daemon=True)
    thread.start()
    thread.join(max(deadline_s, 0.0))
    timed_out = thread.is_alive()
    if timed_out:
        _kill_group(proc.pid)
        thread.join()
    proc.returncode = os.waitstatus_to_exitcode(box["status"])
    _kill_group(proc.pid)  # workers the process left behind
    return {"end": box["end"], "rc": proc.returncode,
            "maxrss_kb": box["maxrss_kb"], "timed_out": timed_out}


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_process(cmd: List[str], env: Dict[str, str], log: Path,
                deadline_s: float = REP_DEADLINE_S) -> Dict[str, Any]:
    start = time.perf_counter()
    result = reap(spawn(cmd, env, log), deadline_s)
    result["wall"] = result["end"] - start
    result["output"] = log.read_text(errors="replace")
    return result


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #


def make_graph(family: str, size: int, seed: int):
    from repro.generators import rmat, road_network
    from repro.graph.ops import largest_connected_component

    if family == "rmat":
        return largest_connected_component(rmat(size, seed=seed))[0]
    return road_network(size, seed=seed)


def make_input(family: str, size: int, seed: int, inputs: Path) -> Dict[str, Any]:
    """Generate one graph, save it for conversion, bound its diameter."""
    from repro.baselines.double_sweep import diameter_lower_bound
    from repro.graph.io import write_auto

    graph = make_graph(family, size, seed)
    source = inputs / f"{family}{size}.npz"
    write_auto(graph, source)
    return {
        "family": family,
        "size": size,
        "source": source,
        "n": int(graph.num_nodes),
        "m": int(graph.num_edges),
        "lower_bound": float(diameter_lower_bound(graph)),
    }


def cl_diam_seeds(seed: int, count: int, salt: str) -> List[int]:
    rng = random.Random(f"{salt}:{seed}")
    return [rng.randrange(1, 1 << 30) for _ in range(count)]


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #


def tail(values: List[float]) -> Tuple[float, str, int]:
    """(value, label, samples) at the highest percentile that leaves at
    least ten samples beyond it: the 11th-largest value, which is the
    nearest-rank percentile ``100 * (n - 10) / n``.  With fewer than 11
    samples no percentile qualifies and the maximum is reported."""
    n = len(values)
    ordered = sorted(values)
    if n <= 10:
        return ordered[-1], "max", n
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.3f}", n


def median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values: List[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


# --------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------- #


def prepare(directory: Path, graphs: List[Dict[str, Any]],
            shards: Optional[int]) -> Tuple[Dict[str, Any], Dict[str, str], float]:
    """One cold set-up in a fresh ``directory``: convert, partition,
    build native kernels (``perfbench/prepare.py``).  Returns the
    layer report, the private environment and the wall time."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    env = private_env(directory)
    cmd = [sys.executable, str(HERE / "prepare.py"),
           "--out", str(directory / "prepare.json")]
    for g in graphs:
        cmd += ["--graph", str(g["source"]), str(directory / f"{g['family']}.rcsr")]
    if shards:
        cmd += ["--shards", str(shards)]
    result = run_process(cmd, env, directory / "prepare.log")
    if result["rc"] != 0:
        raise BenchError(f"set-up failed:\n{result['output'][-2000:]}")
    report = json.loads((directory / "prepare.json").read_text())
    return report, env, result["wall"]


# --------------------------------------------------------------------- #
# Batch workloads
# --------------------------------------------------------------------- #


def parse_run_output(text: str) -> Dict[str, Any]:
    """The fields ``repro run diameter`` prints (``key : value`` lines)."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            fields[key.strip()] = value.strip()
    return {
        "estimate": fields["value"],
        "rounds": int(fields["rounds"]),
        "work": int(fields["work"]),
        "elapsed": float(fields["elapsed"].rstrip("s")),
        "kernels": fields.get("kernels", ""),
    }


def cli_rep(store: Path, seed: int, spec: Dict[str, Any], env: Dict[str, str],
            log: Path, deadline_s: float) -> Dict[str, Any]:
    cmd = [sys.executable, "-m", "repro", "run", "diameter", str(store),
           "--executor", spec["executor"], "--seed", str(seed)]
    if spec["executor"] == "sharded":
        cmd += ["--shards", str(SHARDS)]
    return run_process(cmd, env, log, deadline_s)


def traced_rep(store: Path, seed: int, executor: str, env: Dict[str, str],
               out: Path, deadline_s: float) -> Dict[str, Any]:
    cmd = [sys.executable, str(HERE / "traced.py"), str(store), "--seed",
           str(seed), "--executor", executor, "--out", str(out)]
    if executor == "sharded":
        cmd += ["--shards", str(SHARDS)]
    result = run_process(cmd, env, out.with_suffix(".log"), deadline_s)
    if result["rc"] == 0 and not result["timed_out"]:
        result["trace"] = json.loads(out.read_text())
    return result


def same_answer(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    """Equal estimate (as ``repro run`` prints it), rounds and work."""
    return (
        _printed(a["estimate"]) == _printed(b["estimate"])
        and a["rounds"] == b["rounds"]
        and a["work"] == b["work"]
    )


def _printed(value: Any) -> str:
    # `repro run` prints the estimate with six significant digits.
    return value if isinstance(value, str) else f"{value:.6g}"


class Ledger:
    """Attempted/failed operations, with the reason for every failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.wrong = 0

    def record(self, problem: Optional[str], *, wrong: bool = False) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failures.append(problem)
            self.wrong += wrong
        return problem is None

    @property
    def failed(self) -> int:
        return len(self.failures)


def check_rep(rep: Dict[str, Any], seed: int, lower_bound: float,
              seen: Dict[int, Dict[str, Any]],
              reference: Dict[int, Dict[str, Any]]) -> Tuple[Optional[str], bool]:
    """(problem, is_wrong_answer) for one ``repro run`` repetition."""
    if rep["timed_out"]:
        return f"seed {seed}: killed at the {REP_DEADLINE_S:.0f}s deadline", False
    if rep["rc"] != 0:
        return f"seed {seed}: exit {rep['rc']}: {rep['output'][-300:]}", False
    try:
        parsed = parse_run_output(rep["output"])
    except (KeyError, ValueError):
        return f"seed {seed}: unparsable output {rep['output'][-300:]!r}", True
    rep["parsed"] = parsed
    # The printed estimate is rounded to 6 digits; allow that much.
    if float(parsed["estimate"]) < lower_bound * (1 - 5e-6):
        return (f"seed {seed}: estimate {parsed['estimate']} undershoots the "
                f"lower bound {lower_bound!r}"), True
    if seed in seen and not same_answer(parsed, seen[seed]):
        return f"seed {seed}: two runs disagree {parsed} vs {seen[seed]}", True
    if seed in reference and not same_answer(parsed, reference[seed]):
        return (f"seed {seed}: sharded {parsed} disagrees with vector "
                f"{reference[seed]}"), True
    seen.setdefault(seed, parsed)
    return None, False


def vector_reference(store: Path, seeds: List[int]) -> Dict[int, Dict[str, Any]]:
    """The vector executor's answers, computed in this process."""
    from repro.runtime import run
    from repro.runtime.store import GraphStore

    graphs = GraphStore()
    out = {}
    for seed in seeds:
        result = run("diameter", store, seed=seed, executor="vector", store=graphs)
        out[seed] = {"estimate": result.value, "rounds": result.counters.rounds,
                     "work": result.counters.work}
    return out


def batch_workload(name: str, spec: Dict[str, Any], args, work: Path,
                   ledger: Ledger, info: Dict[str, Any]) -> Dict[str, float]:
    scale = SCALES[args.scale]
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    graph = make_input(spec["family"], scale[spec["family"]], args.seed, inputs)
    info["graphs"] = [{k: v for k, v in graph.items() if k != "source"}]
    shards = SHARDS if spec["executor"] == "sharded" else None

    repeats = 1 if args.trace else SETUP_REPEATS
    setup_walls = []
    for i in range(repeats):
        directory = work / f"setup{i}"
        report, env, wall = prepare(directory, [graph], shards)
        setup_walls.append(wall)
    info["setup_walls_s"] = setup_walls
    store = directory / f"{spec['family']}.rcsr"
    os.environ.update(env)  # in-process reference runs use the same dirs

    seeds = cl_diam_seeds(args.seed, BATCH_SEEDS, name)
    info["cl_diam_seeds"] = seeds
    reference = vector_reference(store, seeds) if shards else {}
    lower_bound = graph["lower_bound"]
    seen: Dict[int, Dict[str, Any]] = {}
    reps: List[Dict[str, Any]] = []
    traces: List[Dict[str, Any]] = []
    # One unmeasured repetition first: the first process to read the
    # fresh store pays first-touch costs that users pay once, not per run.
    warm = cli_rep(store, seeds[0], spec, env, work / "warmup.log", REP_DEADLINE_S)
    problem, wrong = check_rep(warm, seeds[0], lower_bound, seen, reference)
    ledger.record(problem, wrong=wrong)
    start = time.perf_counter()
    window_end = start + args.seconds
    hard_end = window_end + GRACE_S
    i = 0
    while True:
        now = time.perf_counter()
        covered = i >= len(seeds) * (2 if args.trace else 1)
        if (now >= window_end and covered) or now >= hard_end:
            break
        seed = seeds[(i // 2 if args.trace else i) % len(seeds)]
        deadline = min(REP_DEADLINE_S, hard_end - now)
        log = work / f"rep{i}.log"
        if args.trace and i % 2 == 1:
            rep = traced_rep(store, seed, spec["executor"], env,
                             work / f"trace{i}.json", deadline)
            problem, wrong = _check_traced(rep, seed, seen)
            if ledger.record(problem, wrong=wrong):
                traces.append(rep)
        else:
            rep = cli_rep(store, seed, spec, env, log, deadline)
            problem, wrong = check_rep(rep, seed, lower_bound, seen, reference)
            if ledger.record(problem, wrong=wrong):
                reps.append(rep)
        rep["seed"] = seed
        i += 1
    window = time.perf_counter() - start

    if reps:
        from repro.integrity import verify_level

        info["impl"] = {"kernels": reps[0]["parsed"]["kernels"],
                        "store_verify": verify_level()}
    if args.trace:
        return batch_layers(spec, report, reps, traces, info)
    return batch_end_to_end(reps, window, setup_walls, lower_bound, info)


def _check_traced(rep: Dict[str, Any], seed: int,
                  seen: Dict[int, Dict[str, Any]]) -> Tuple[Optional[str], bool]:
    if rep["timed_out"]:
        return f"traced seed {seed}: killed at the deadline", False
    if "trace" not in rep:
        return f"traced seed {seed}: exit {rep['rc']}: {rep['output'][-300:]}", False
    if seed in seen and not same_answer(rep["trace"], seen[seed]):
        return (f"traced seed {seed}: {rep['trace']['estimate']!r} "
                f"{rep['trace']['rounds']} {rep['trace']['work']} differs from "
                f"the untraced run {seen[seed]}"), True
    return None, False


def per_seed(reps: List[Dict[str, Any]], key) -> List[float]:
    """``key`` of the first repetition of every distinct seed."""
    firsts: Dict[int, Dict[str, Any]] = {}
    for rep in reps:
        firsts.setdefault(rep["seed"], rep)
    return [key(rep) for rep in firsts.values()]


def batch_end_to_end(reps, window, setup_walls, lower_bound, info):
    walls = [rep["wall"] for rep in reps]
    tail_value, label, samples = tail(walls) if walls else (0.0, "max", 0)
    info["tail"] = f"{label} of {samples} runs"
    info["walls_s"] = walls
    return {
        "run_s": median(walls),
        "setup_s": median(setup_walls),
        "peak_rss_mb": max((rep["maxrss_kb"] for rep in reps), default=0) / 1024,
        "estimate_ratio": mean(per_seed(
            reps, lambda r: float(r["parsed"]["estimate"]) / lower_bound)),
        "rounds": mean(per_seed(reps, lambda r: r["parsed"]["rounds"])),
        "work": mean(per_seed(reps, lambda r: r["parsed"]["work"])),
        "qps": len(reps) / window if window > 0 else 0.0,
        "p50_ms": median(walls) * 1e3,
        "tail_ms": tail_value * 1e3,
    }


def span_seconds(trace: Dict[str, Any], *names: str) -> float:
    return sum(s["end"] - s["start"] for s in trace["spans"] if s["name"] in names)


def pipeline_layers(traces: List[Dict[str, Any]], executor: str) -> Dict[str, float]:
    """Per-layer metrics of traced pipeline runs: medians of times,
    means over distinct seeds of counts."""
    ts = [rep["trace"] for rep in traces]

    def med(fn) -> float:
        return median([fn(t) for t in ts])

    def avg(fn) -> float:
        return mean(per_seed(traces, lambda rep: fn(rep["trace"])))

    def other(t):
        return span_seconds(t, "cluster.decompose") - sum(t["timings"].values())

    metrics = {
        "cli.import_s": med(lambda t: span_seconds(t, "cli.import")),
        "store.open_s": med(lambda t: span_seconds(t, "store.open", "store.partition")),
        "native.load_s": med(lambda t: span_seconds(t, "native.load")),
        "cluster.s": med(lambda t: span_seconds(t, "engine.build", "cluster.decompose")),
        "cluster.growing_steps": avg(lambda t: t["growing_steps"]),
        "cluster.clusters": avg(lambda t: t["clusters"]),
        "cluster.radius": avg(lambda t: t["radius"]),
        "round.emit_s": med(lambda t: t["timings"].get("emit", 0.0)),
        "round.shuffle_s": med(lambda t: t["timings"].get("shuffle", 0.0)),
        "round.reduce_s": med(lambda t: t["timings"].get("reduce", 0.0)),
        "round.apply_s": med(lambda t: t["timings"].get("apply", 0.0)),
        "round.other_s": med(other),
        "round.messages": avg(lambda t: t["messages"]),
        "round.updates": avg(lambda t: t["updates"]),
        "round.useful_ratio": avg(lambda t: t["updates"] / max(t["messages"], 1)),
        "quotient.build_s": med(lambda t: span_seconds(t, "quotient.build")),
        "quotient.crossing_edges": avg(lambda t: t["crossing_edges"]),
        "quotient.nodes": avg(lambda t: t["quotient_nodes"]),
        "quotient.edges": avg(lambda t: t["quotient_edges"]),
        "quotient.diameter_s": med(lambda t: span_seconds(t, "quotient.diameter")),
        "quotient.exact": avg(lambda t: float(t["quotient_exact"])),
    }
    if executor == "sharded":
        metrics.update({
            "sharded.spawn_s": med(lambda t: span_seconds(t, "engine.build")),
            "sharded.bytes_shipped": avg(lambda t: sum(t["bytes_shipped_per_round"])),
            "sharded.max_round_bytes": avg(lambda t: max(t["bytes_shipped_per_round"], default=0)),
            "sharded.round_s": med(
                lambda t: span_seconds(t, "cluster.decompose") / max(t["rounds"], 1)),
        })
    return metrics


def traced_wall(rep: Dict[str, Any]) -> float:
    """Traced process wall minus the report's own bookkeeping."""
    return rep["wall"] - span_seconds(rep["trace"], "trace.bookkeeping")


def unattributed(rep: Dict[str, Any]) -> float:
    top = [s for s in rep["trace"]["spans"] if s["parent"] is None]
    return rep["wall"] - sum(s["end"] - s["start"] for s in top)


def setup_layers(report: Dict[str, Any]) -> Dict[str, float]:
    return {
        "store.bytes": report["store_bytes"],
        "partition.s": report["partition_s"],
        "partition.cut_fraction": report["cut_fraction"],
        "native.build_s": report["native_build_s"],
    }


def batch_layers(spec, report, reps, traces, info):
    metrics = setup_layers(report)
    if traces:
        metrics.update(pipeline_layers(traces, spec["executor"]))
        untraced = median([rep["wall"] for rep in reps])
        metrics["cli.residual_s"] = median(
            [rep["wall"] - rep["parsed"]["elapsed"] for rep in reps]
        ) - metrics["cli.import_s"]
        metrics["trace.unattributed_s"] = median([unattributed(r) for r in traces])
        metrics["trace.overhead_s"] = median([traced_wall(r) for r in traces]) - untraced
        info["span_tree"] = span_tree(traces[0]["trace"]["spans"])
        info["impl"] = traces[0]["trace"]["impl"]
    return metrics


def span_tree(spans: List[Dict[str, Any]]) -> List[str]:
    lines = []
    for s in spans:
        depth, parent = 0, s["parent"]
        while parent is not None:
            depth, parent = depth + 1, spans[parent]["parent"]
        lines.append(f"{'  ' * depth}{s['name']}: {s['end'] - s['start']:.4f}s")
    return lines


# --------------------------------------------------------------------- #
# Serve workload
# --------------------------------------------------------------------- #


class Daemon:
    """A ``repro serve`` subprocess on an ephemeral localhost port."""

    def __init__(self, env: Dict[str, str], stores: List[Path], log: Path):
        cmd = [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
               "--max-workers", "1", "--cache-entries", str(SERVE_CACHE_ENTRIES)]
        for store in stores:
            cmd += ["--preload", str(store)]
        self.log = log
        self.exit: Optional[Dict[str, Any]] = None
        self.proc = spawn(cmd, env, log)
        self.port = self._wait_listening()

    def _wait_listening(self) -> int:
        deadline = time.perf_counter() + REP_DEADLINE_S
        while time.perf_counter() < deadline:
            text = self.log.read_text(errors="replace")
            for line in text.splitlines():
                if line.startswith("repro serve listening on"):
                    return int(line.split()[-3].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise BenchError(f"repro serve did not start:\n{self.log.read_text()[-2000:]}")

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient(host="127.0.0.1", port=self.port, timeout=REP_DEADLINE_S)

    def stop(self) -> Dict[str, Any]:
        """Shut the daemon down over the wire; kill it if it will not go."""
        if self.exit is None:
            if getattr(self, "port", None):
                try:
                    with self.client() as c:
                        c.shutdown()
                except OSError:
                    pass
            self.exit = reap(self.proc, REP_DEADLINE_S)
        return self.exit


def serve_queries(graphs: List[Dict[str, Any]], seed: int) -> List[Tuple]:
    seeds = cl_diam_seeds(seed, SERVE_SEEDS, "serve-mixed")
    return [
        (g["family"], algorithm, executor, s)
        for g in graphs
        for algorithm in ("diameter", "cluster")
        for executor in (None, "vector")
        for s in seeds
    ]


def serve_references(stores: Dict[str, Path], queries) -> Dict[Tuple, str]:
    """``result_digest(run(...).raw)`` per (graph, algorithm, seed), on
    the core path: every executor must serve the same digest."""
    from repro.runtime import run
    from repro.runtime.store import GraphStore
    from repro.serve.protocol import result_digest

    graphs = GraphStore()
    digests = {}
    for family, algorithm, _executor, s in queries:
        key = (family, algorithm, s)
        if key not in digests:
            result = run(algorithm, stores[family], seed=s, store=graphs)
            digests[key] = result_digest(result.raw)
    return digests


def client_schedule(queries: List[Tuple], seed: int) -> List[Tuple]:
    """The cycle of queries the client sends.

    The queries come in blocks that hold every (graph, algorithm,
    executor) class once, each block in a seeded order, so any stretch
    of the cycle has the same mix of classes.  After every
    ``SERVE_MISSES_PER_HIT`` queries the last one is sent again: the
    cache must answer it, so the hit share is fixed instead of drawn.
    The distinct queries outnumber the cache entries, so every other
    query misses.
    """
    rng = random.Random(f"serve-client:{seed}")
    classes: Dict[Tuple, List[Tuple]] = {}
    for query in queries:
        classes.setdefault(query[:3], []).append(query)
    order: List[Tuple] = []
    for block in zip(*classes.values()):
        block = list(block)
        rng.shuffle(block)
        order += block
    schedule: List[Tuple] = []
    for i, query in enumerate(order, 1):
        schedule.append(query)
        if i % SERVE_MISSES_PER_HIT == 0:
            schedule.append(query)
    return schedule


def closed_loop(daemon: Daemon, stores, queries, seconds: float, seed: int,
                refs, bounds, ledger: Ledger) -> Tuple[List[Dict[str, Any]], float]:
    """One client connection sending the next query of its
    ``client_schedule`` when the previous answer arrives, for
    ``seconds``.  Returns one record per query (start, end, hit, ok,
    query, result) and the window length."""
    from repro.serve.client import ServeRemoteError

    records: List[Dict[str, Any]] = []
    start = time.perf_counter()
    client = daemon.client()
    try:
        for query in itertools.cycle(client_schedule(queries, seed)):
            if time.perf_counter() - start >= seconds:
                break
            family, algorithm, executor, s = query
            t0 = time.perf_counter()
            problem, wrong, result = None, False, None
            try:
                result = client.query(str(stores[family]), algorithm,
                                      executor=executor, seed=s)
            except ServeRemoteError as exc:
                problem = f"{query}: refused {exc.status} {exc}"
            except OSError as exc:  # deadline or dropped connection
                problem = f"{query}: {type(exc).__name__} {exc}"
                client.close()
                client = daemon.client()
            t1 = time.perf_counter()
            if result is not None:
                problem = check_served(query, result, refs, bounds)
                wrong = problem is not None
            records.append({
                "start": t0, "end": t1, "ok": ledger.record(problem, wrong=wrong),
                "query": query,
                "hit": bool(result and result["serve"]["cache_hit"]),
                "result": result,
            })
    finally:
        client.close()
    return records, time.perf_counter() - start


def check_served(query, result, refs, bounds) -> Optional[str]:
    family, algorithm, _executor, s = query
    if result.get("degraded"):
        return f"{query}: degraded answer"
    if result["digest"] != refs[(family, algorithm, s)]:
        return f"{query}: served digest differs from runtime.run"
    if algorithm == "diameter" and result["value"] < bounds[family]:
        return f"{query}: estimate {result['value']!r} undershoots {bounds[family]!r}"
    return None


def distinct_results(records) -> Dict[Tuple, Dict[str, Any]]:
    out = {}
    for r in records:
        if r["ok"]:
            out.setdefault(r["query"], r["result"])
    return out


def serve_end_to_end(records, window, setup_walls, maxrss_kb, bounds, info):
    ok = [r for r in records if r["ok"]]
    latencies = [r["end"] - r["start"] for r in ok]
    misses = [r["end"] - r["start"] for r in ok if not r["hit"]]
    tail_value, label, samples = tail(latencies) if latencies else (0.0, "max", 0)
    info["tail"] = f"{label} of {samples} queries"
    info["hits"] = len(latencies) - len(misses)
    info["misses"] = len(misses)
    distinct = distinct_results(records)
    diam = [res["value"] / bounds[q[0]] for q, res in distinct.items()
            if q[1] == "diameter"]
    return {
        "run_s": median(misses),
        "setup_s": median(setup_walls),
        "peak_rss_mb": maxrss_kb / 1024,
        "estimate_ratio": mean(diam),
        "rounds": mean([res["counters"]["rounds"] for res in distinct.values()]),
        "work": mean([res["counters"]["work"] for res in distinct.values()]),
        "qps": len(ok) / window if window > 0 else 0.0,
        "p50_ms": median(latencies) * 1e3,
        "tail_ms": tail_value * 1e3,
    }


def covered_seconds(records) -> float:
    """Length of the union of the request intervals."""
    total, reach = 0.0, None
    for r in sorted(records, key=lambda r: r["start"]):
        if reach is None or r["start"] > reach:
            total += r["end"] - r["start"]
            reach = r["end"]
        elif r["end"] > reach:
            total += r["end"] - reach
            reach = r["end"]
    return total


def serve_workload(name, spec, args, work: Path, ledger: Ledger,
                   info: Dict[str, Any]) -> Dict[str, float]:
    scale = SCALES[args.scale]
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    graphs = [make_input("rmat", scale["serve_rmat"], args.seed, inputs),
              make_input("road", scale["serve_road"], args.seed, inputs)]
    info["graphs"] = [{k: v for k, v in g.items() if k != "source"} for g in graphs]
    bounds = {g["family"]: g["lower_bound"] for g in graphs}
    queries = serve_queries(graphs, args.seed)
    info["distinct_queries"] = len(queries)

    repeats = 1 if args.trace else SETUP_REPEATS
    setup_walls = []
    daemon = None
    for i in range(repeats):
        if daemon is not None:
            daemon.stop()
        directory = work / f"setup{i}"
        start = time.perf_counter()
        report, env, _ = prepare(directory, graphs, None)
        stores = {g["family"]: directory / f"{g['family']}.rcsr" for g in graphs}
        daemon = Daemon(env, list(stores.values()), directory / "serve.log")
        setup_walls.append(time.perf_counter() - start)
    info["setup_walls_s"] = setup_walls
    os.environ.update(env)
    try:
        refs = serve_references(stores, queries)
        if not args.trace:
            records, window = closed_loop(daemon, stores, queries, args.seconds,
                                          args.seed, refs, bounds, ledger)
            rss = daemon.stop()["maxrss_kb"]
            _serve_impl(records, info)
            return serve_end_to_end(records, window, setup_walls, rss, bounds, info)
        return serve_layers(daemon, directory, env, stores, queries, args, refs,
                            bounds, ledger, report, info, work)
    finally:
        daemon.stop()


def _serve_impl(records, info) -> None:
    for r in records:
        if r["ok"] and not r["hit"] and r["result"]["kernels"]:
            info["impl"] = r["result"]["kernels"]
            return


def serve_layers(daemon, directory, env, stores, queries, args, refs, bounds,
                 ledger, report, info, work):
    """Untraced half, then a traced half on a fresh daemon, then one
    traced pipeline run of a representative miss (R-MAT, vector)."""
    half = args.seconds / 2.0
    untraced, _ = closed_loop(daemon, stores, queries, half, args.seed, refs,
                              bounds, ledger)
    daemon.stop()
    daemon = Daemon(env, list(stores.values()), directory / "serve2.log")
    try:
        with daemon.client() as c:
            before = c.stats()
        records, window = closed_loop(daemon, stores, queries, half, args.seed,
                                      refs, bounds, ledger)
        with daemon.client() as c:
            after = c.stats()
    finally:
        daemon.stop()
    _serve_impl(records, info)

    metrics = setup_layers(report)

    # A representative miss through the traced pipeline; it must match
    # the daemon's answer for the same query bit for bit.
    family, _alg, _ex, s = next(q for q in queries
                                if q[0] == "rmat" and q[1] == "diameter" and q[2])
    rep = cli_rep(stores[family], s, {"executor": "vector"}, env,
                  work / "miss-cli.log", REP_DEADLINE_S)
    problem, wrong = check_rep(rep, s, bounds[family], {}, {})
    ledger.record(problem, wrong=wrong)
    trep = traced_rep(stores[family], s, "vector", env, work / "miss-trace.json",
                      REP_DEADLINE_S)
    served = distinct_results(untraced + records).get((family, "diameter", "vector", s))
    problem, wrong = _check_traced(trep, s, {s: rep["parsed"]} if "parsed" in rep else {})
    if problem is None and served is not None and (
        served["value"] != trep["trace"]["estimate"]
        or served["counters"]["rounds"] != trep["trace"]["rounds"]
        or served["counters"]["work"] != trep["trace"]["work"]
    ):
        problem, wrong = "traced miss differs from the served answer", True
    if ledger.record(problem, wrong=wrong):
        trep["seed"] = s
        metrics.update(pipeline_layers([trep], "vector"))
        info["span_tree"] = span_tree(trep["trace"]["spans"])
        if "parsed" in rep:
            metrics["cli.residual_s"] = (rep["wall"] - rep["parsed"]["elapsed"]
                                         - metrics["cli.import_s"])

    ok = [r for r in records if r["ok"]]
    hits = [r["end"] - r["start"] for r in ok if r["hit"]]
    misses = [r["end"] - r["start"] for r in ok if not r["hit"]]
    untraced_misses = [r["end"] - r["start"] for r in untraced
                       if r["ok"] and not r["hit"]]
    sched_b, sched_a = before["scheduler"], after["scheduler"]
    completed = sched_a["completed"] - sched_b["completed"]
    adm_b, adm_a = before["admission"], after["admission"]
    metrics.update({
        "serve.hit_p50_ms": median(hits) * 1e3,
        "serve.miss_p50_ms": median(misses) * 1e3,
        "scheduler.queue_wait_s": (
            (sched_a["total_queue_wait_s"] - sched_b["total_queue_wait_s"])
            / completed if completed else 0.0),
        "serve.hit_share": len(hits) / len(ok) if ok else 0.0,
        "scheduler.rejected": sched_a["rejected"] - sched_b["rejected"],
        "admission.shed": (
            adm_a["shed_over_budget"] + adm_a["shed_rate_limited"]
            - adm_b["shed_over_budget"] - adm_b["shed_rate_limited"]),
        "cache.evictions": after["cache"]["evictions"] - before["cache"]["evictions"],
        "graphs.resident_bytes": after["graphs"]["resident_bytes"],
        "trace.unattributed_s": window - covered_seconds(records),
        "trace.overhead_s": median(misses) - median(untraced_misses),
    })
    info["requests_traced"] = len(records)
    return metrics


# --------------------------------------------------------------------- #
# Main
# --------------------------------------------------------------------- #


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=list(SCALES), default="full")
    args = parser.parse_args()
    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: run from a checkout with {SRC} and {bench_file}",
              file=sys.stderr)
        return 2
    declared = json.loads(bench_file.read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    why = {w["name"]: w["why"] for w in declared["workloads"]}
    sys.path.insert(0, str(SRC))

    spec = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = private_env(work / "bench")
    os.environ.clear()
    os.environ.update(env)

    ledger = Ledger()
    info: Dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                            "why": why.get(args.workload, ""), "scale": args.scale}
    runner = serve_workload if spec["kind"] == "serve" else batch_workload
    try:
        metrics = runner(args.workload, spec, args, work, ledger, info)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info["failed_frac"] = ledger.failed / max(ledger.attempted, 1)
    info["failures"] = ledger.failures[:20]
    for key, value in info.items():
        if key == "span_tree":
            print("span tree (first traced run):")
            for line in value:
                print(f"  {line}")
        else:
            print(f"{key}: {json.dumps(value, default=str)}")
    # Layers a workload bypasses read 0 (e.g. sharded.* on a vector run).
    metrics = {key: float(metrics.get(key, 0.0)) for key in units}
    for key, unit in units.items():
        print(f"{key:<26} {metrics[key]:>16.6g} {unit}")
    print(json.dumps({
        "correct": ledger.wrong == 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed if ledger.attempted else 1,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
