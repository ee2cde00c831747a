"""The paper-literal per-key MR(M_T, M_L) simulation, kept as a test oracle.

``repro`` runs every MR round as a batch round: int64 keys, float64
value rows, and one vectorized reducer over all groups (the ``vector``
and ``sharded`` backends).  This module keeps the model's literal form
— a multiset of Python ``(key, value)`` pairs, grouped by key, one
reducer call per key, every pair costed in machine words — as the
independent reference the merge and emit parity suites compare the
batch kernels against.  It is far too slow to be a backend (minutes on
a 100k-node R-MAT where ``vector`` takes about a second).

The oracle plugs into :func:`~repro.mrimpl.cluster_mr.mr_cluster`,
:func:`~repro.mrimpl.cluster2_mr.mr_cluster2` and
:func:`~repro.mrimpl.diameter_mr.mr_approximate_diameter` through the
executor hook the ``sharded`` backend uses (``owns_growing_state`` +
``growing_state(graph, engine)``)::

    result = mr_cluster(graph, config=cfg, engine=literal_engine(graph))

Growing steps then run as per-key rounds (:func:`literal_round`) over
:class:`PairGrowingState`; CL-DIAM's quotient is the engine's ordinary
``round_batch``.

Accounting is literal: ``messages`` counts every pair of a round,
adjacency and state records included, so it is not comparable with
the batch backends' count; clusterings, ``rounds``, ``updates`` and
``growing_steps`` are.  The batch backends' ``messages`` are a round's
candidate (``"C"``) pairs: :func:`candidate_messages` counts them.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.errors import MemoryLimitExceeded
from repro.mr.partitioner import hash_partition
from repro.mrimpl.growing_mr import default_engine

NO_CENTER = -1
BLANK = ("S", NO_CENTER, float("inf"), False, float("inf"), False, 0)


def _pair_words(value) -> int:
    """Machine words of one pair: one for the key, one per scalar of a
    tuple value, one for any other value."""
    if isinstance(value, (tuple, list)):
        return 1 + len(value)
    return 2


def literal_round(engine, pairs, reducer):
    """One per-key MR round under ``engine``'s spec and accounting.

    Values reach the reducer grouped by key in input order.  A group
    above ``M_L`` words or a round above ``M_T`` words raises
    :class:`~repro.errors.MemoryLimitExceeded`.  Keys are hash-routed
    to ``num_workers`` simulated machines; the round adds one to
    ``rounds``, ``len(pairs)`` to ``messages``, and the busiest
    machine's input + output pairs to ``engine.simulated_time``.
    """
    spec = engine.spec
    groups = {}
    total_words = 0
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
        total_words += _pair_words(value)
    if engine.enforce_memory:
        if total_words > spec.total_memory:
            raise MemoryLimitExceeded(total_words, spec.total_memory)
        for key, values in groups.items():
            words = sum(_pair_words(v) for v in values)
            if words > spec.local_memory:
                raise MemoryLimitExceeded(words, spec.local_memory, key)

    shards = [[] for _ in range(spec.num_workers)]
    for key, values in groups.items():
        shards[hash_partition(key, spec.num_workers)].append((key, values))
    output, loads = [], []
    for shard in shards:
        load = 0
        for key, values in shard:
            produced = list(reducer(key, values))
            load += len(values) + len(produced)
            output.extend(produced)
        loads.append(load)
    engine.counters.record_round(messages=len(pairs), updates=0)
    engine.simulated_time += max(loads)
    return output


def candidate_messages(pairs) -> int:
    """The candidate (``"C"``) pairs of a pair multiset: the messages a
    growing round emitted, in the batch backends' sense."""
    return sum(1 for _, value in pairs if value[0] == "C")


def growing_reducer(key, values, delta, force, rescale, iteration):
    """One node's share of a Δ-growing step.

    ``values`` hold the node's adjacency ``("A", ((v, w, v_frozen),
    ...))``, its
    state ``("S", center, dist, frozen, dacc, changed, frozen_iter)``
    and the candidates ``("C", nd, center, dacc)`` delivered to it.  The
    winning candidate is the smallest distance, then the smallest
    center, then the first to arrive — a plain comparison loop,
    independent of the batch scatter-min kernel.  A node emits to its
    light, open neighbours within Δ when its state changed or the round
    is forced; frozen nodes emit with effective distance 0 (Contract)
    or their Contract2-rescaled distance.  A node learns once that a
    neighbour froze — the freeze step flags it in the adjacency record
    — so nothing is ever sent to a frozen node.
    """
    adj = ()
    state = None
    best_nd, best_center, best_dacc = float("inf"), None, float("inf")
    for v in values:
        if v[0] == "A":
            adj = v[1]
        elif v[0] == "S":
            state = v
        else:
            _, nd, center, dacc = v
            if (
                best_center is None
                or nd < best_nd
                or (nd == best_nd and center < best_center)
            ):
                best_nd, best_center, best_dacc = nd, center, dacc
    _, center, dist, frozen, dacc, _, frozen_iter = state

    changed = False
    if (not frozen) and best_center is not None and best_nd < dist:
        center, dist, dacc = best_center, best_nd, best_dacc
        changed = True
    out = [
        (key, ("A", adj)),
        (key, ("S", center, dist, frozen, dacc, changed, frozen_iter)),
    ]
    if center != NO_CENTER and (changed or force):
        if frozen:
            eff = dist - rescale * (iteration - frozen_iter) if rescale else 0.0
        else:
            eff = dist
        if eff < delta:
            for nbr, w, nbr_frozen in adj:
                if w <= delta and eff + w <= delta and not nbr_frozen:
                    out.append((nbr, ("C", eff + w, center, dacc + w)))
    return out


class PairGrowingState:
    """The drivers' growing state over the literal pair multiset.

    Every node ``u`` owns an adjacency record and a state record, both
    keyed by ``u``; relaxation candidates emitted in one round are
    merged in the next, so one growing step is one :func:`literal_round`.
    """

    def __init__(self, graph):
        self.num_nodes = graph.num_nodes
        self.pairs = []
        for u in range(graph.num_nodes):
            nbrs, ws = graph.neighbors(u)
            adj = tuple((int(v), float(w), False) for v, w in zip(nbrs, ws))
            self.pairs += [(u, ("A", adj)), (u, BLANK)]

    def _states(self):
        return {k: v for k, v in self.pairs if v[0] == "S"}

    def _replace(self, updates, *, drop_candidates=False):
        """Swap in the state records of ``updates`` (driver-side steps
        such as center installation and freezing), then deliver the
        freeze messages: every adjacency record flags its frozen
        neighbours."""
        self.pairs = [
            (k, updates[k]) if v[0] == "S" and k in updates else (k, v)
            for k, v in self.pairs
            if not (drop_candidates and v[0] == "C")
        ]
        frozen = {k for k, v in self.pairs if v[0] == "S" and v[3]}
        self.pairs = [
            (k, ("A", tuple((u, w, u in frozen) for u, w, _ in v[1])))
            if v[0] == "A"
            else (k, v)
            for k, v in self.pairs
        ]

    def uncovered(self):
        states = self._states()
        return np.array(
            [u for u in range(self.num_nodes) if not states[u][3]],
            dtype=np.int64,
        )

    def begin_stage(self, picks):
        states = self._states()
        updates = {u: BLANK for u in range(self.num_nodes) if not states[u][3]}
        for u in picks:
            updates[int(u)] = ("S", int(u), 0.0, False, 0.0, False, 0)
        self._replace(updates)

    def step(self, engine, delta, *, force=False, rescale=0.0, iteration=0):
        before = self._states()
        reducer = partial(
            growing_reducer,
            delta=delta, force=force, rescale=rescale, iteration=iteration,
        )
        self.pairs = literal_round(engine, self.pairs, reducer)
        updated = newly = 0
        for u, state in self._states().items():
            if state[5]:
                updated += 1
                newly += before[u][1] == NO_CENTER
        engine.counters.updates += updated
        engine.counters.growing_steps += 1
        return updated, newly

    def in_flight(self):
        return any(v[0] == "C" for _, v in self.pairs)

    def discard_candidates(self):
        self._replace({}, drop_candidates=True)

    def freeze_assigned(self, iteration=0):
        updates = {
            u: ("S", s[1], s[2], True, s[4], False, iteration)
            for u, s in self._states().items()
            if s[1] != NO_CENTER and not s[3]
        }
        self._replace(updates)
        return len(updates)

    def make_singletons(self, iteration=0):
        updates = {
            u: ("S", u, 0.0, True, 0.0, False, iteration)
            for u, s in self._states().items()
            if not s[3]
        }
        self._replace(updates)
        return len(updates)

    def result(self):
        states = self._states()
        return (
            np.array([states[u][1] for u in range(self.num_nodes)], np.int64),
            np.array([states[u][4] for u in range(self.num_nodes)], np.float64),
        )

    #: Checkpoint arrays: ``(name, index in the state record, dtype)``.
    _COLUMNS = (
        ("center", 1, np.int64),
        ("dist", 2, np.float64),
        ("dist_acc", 4, np.float64),
        ("frozen", 3, bool),
        ("frozen_iter", 6, np.int64),
        ("changed", 5, bool),
    )

    def snapshot_arrays(self):
        """Checkpoint payload (safe points only: nothing in flight)."""
        states = self._states()
        return {
            name: np.array(
                [states[u][i] for u in range(self.num_nodes)], dtype=dtype
            )
            for name, i, dtype in self._COLUMNS
        }

    def restore_arrays(self, arrays):
        """Rehydrate from a checkpoint payload, dropping in-flight pairs."""
        cols = [
            arrays[name].tolist()
            for name, _, _ in sorted(self._COLUMNS, key=lambda c: c[1])
        ]
        updates = {u: ("S", *row) for u, row in enumerate(zip(*cols))}
        self._replace(updates, drop_candidates=True)


class LiteralExecutor:
    """Executor hook: the drivers run :class:`PairGrowingState`."""

    owns_growing_state = True

    def growing_state(self, graph, engine):
        return PairGrowingState(graph)


def literal_engine(graph, *, num_workers=None):
    """:func:`~repro.mrimpl.growing_mr.default_engine` on the oracle."""
    return default_engine(
        graph, executor=LiteralExecutor(), num_workers=num_workers
    )
