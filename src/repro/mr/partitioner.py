"""Partitioners: assign reducer keys to simulated workers.

In the MR model the assignment of keys to physical machines is abstracted
away; it matters here only for the executor's critical-path time model
(a round costs as much as its most loaded worker) and for exercising the
multiprocessing backend.

Beyond the hash key partitioner, this module houses the
**locality-aware graph partitioner** of the owner-compute sharded
backend (:func:`lp_assignment`): a multilevel size-constrained label
propagation pipeline that assigns whole CSR rows to shards so that far
fewer arcs cross shard boundaries than under a contiguous split of the
id space, while keeping per-shard arc loads within a configurable slack
of perfect balance.  The output is an explicit node→shard assignment
array — node ids are *never* relabeled, which is what keeps sharded
results bit-identical to the ``vector`` backend (the merge tie-break
``(nd, center, source)`` is over global ids).
"""

from __future__ import annotations

import heapq
from typing import Hashable, Optional

import numpy as np

from repro.mr import native as _native

__all__ = [
    "hash_partition",
    "hash_partition_array",
    "lp_assignment",
    "assignment_cut_fraction",
]


def hash_partition(key: Hashable, num_workers: int) -> int:
    """Stable hash partitioner.

    Uses a Fibonacci-style multiplicative mix of the builtin hash so that
    consecutive integer keys (the common case: node ids) spread across
    workers instead of landing in residue-class stripes.
    """
    h = hash(key)
    h ^= h >> 16
    return (h * 2654435761) % (2**32) % num_workers


def hash_partition_array(keys: np.ndarray, num_workers: int) -> np.ndarray:
    """Vectorized :func:`hash_partition` for non-negative int64 key arrays.

    Agrees element-wise with the scalar partitioner for keys below
    ``2^61 − 1`` (there ``hash(k) == k``; Python hashes larger ints
    modulo ``2^61 − 1``, so ``hash(2**61 - 1) == 0``), because
    ``(a·b mod 2^64) mod 2^32`` equals ``(a·b) mod 2^32``.  Per-key and
    batch rounds therefore route every node id to the same simulated
    worker — a precondition for identical critical-path accounting
    across backends.  The native kernels use the same mix
    (``rk_worker_of`` in ``repro/mr/native/_kernels.c``).
    """
    h = np.asarray(keys, dtype=np.uint64)
    h = h ^ (h >> np.uint64(16))
    with np.errstate(over="ignore"):
        h = h * np.uint64(2654435761)
    return ((h & np.uint64(0xFFFFFFFF)) % np.uint64(num_workers)).astype(np.int64)


# --------------------------------------------------------------------- #
# Locality-aware graph partitioning (multilevel label propagation)
# --------------------------------------------------------------------- #
#
# The pipeline is the social-network variant of multilevel partitioning:
#
# 1. **Coarsen** by size-constrained label propagation clustering: each
#    node adopts the label with the largest incident arc weight among
#    its neighbours, moves ordered by gain and admitted against a
#    per-cluster weight cap (so the dense core cannot collapse into one
#    unsplittable cluster).  Clusters contract into super-nodes whose
#    arc weights are the inter-cluster arc counts; repeat until small.
# 2. **Seed** the coarsest graph with a longest-processing-time greedy
#    assignment of cluster weights to shards (near-perfect balance by
#    construction).
# 3. **Refine** while uncoarsening: balanced label propagation over the
#    partition — each node prefers the shard with the largest incident
#    arc weight, positive-gain moves are admitted best-first against a
#    per-shard inflow budget ``(1 + slack) * arcs / K``.
#
# The same refinement applied to the contiguous range plan gives a
# second candidate; :func:`lp_assignment` returns whichever of
# {range, refined range, multilevel} cuts the fewest arcs, so the
# assignment can never cut more than a contiguous split (on
# lattice-like graphs where contiguous ranges are already near-optimal,
# the range candidate simply wins).
#
# The three passes over every arc (best neighbour label, shard affinity,
# contraction) run as O(arcs) row scans on the native kernel tier
# (``rk_lp_*``); the NumPy passes below are the ``py`` tier and return
# bit-identical arrays, so the assignment is the same on both tiers.

#: Per-cluster weight cap during coarsening, as a fraction of the ideal
#: shard load ``arcs / K``.  Clusters must stay well below one shard so
#: the LPT seed can balance them.
_CLUSTER_CAP_FRACTION = 0.05

#: Stop coarsening below this many super-nodes (times ``K``).
_COARSEST_NODES = 200


def _budget_filter(
    group: np.ndarray, weights: np.ndarray, budget: np.ndarray
) -> np.ndarray:
    """Admit a prefix of each group (rows in priority order) under budget.

    Rows are grouped by ``group`` (arbitrary non-negative ints indexing
    ``budget``); within each group, rows are admitted in their incoming
    order while the running weight sum stays ``<= budget[g]``.  Returns
    the admission mask aligned with the input order.
    """
    order = np.argsort(group, kind="stable")
    gs = group[order]
    cs = np.cumsum(weights[order])
    new = np.ones(len(gs), dtype=bool)
    if len(gs):
        new[1:] = gs[1:] != gs[:-1]
    # Running sum within each group: subtract the cumsum just before
    # the group's first row (propagated by a running maximum).
    start_base = np.where(new, cs - weights[order], 0.0)
    base = cs - np.maximum.accumulate(np.where(new, start_base, -np.inf))
    keep = np.zeros(len(group), dtype=bool)
    keep[order] = base <= budget[gs]
    return keep


def _best_neighbor_label(
    arc_src: np.ndarray,
    arc_lab: np.ndarray,
    arc_w: Optional[np.ndarray],
    num_nodes: int,
):
    """Per source node, the neighbour label with the largest weight sum.

    Labels are arbitrary ints in ``[0, num_nodes)``.  One combined-key
    argsort groups ``(src, label)`` pairs (ids fit ``src * n + lab`` in
    int64 for any graph this library handles); a second, much smaller
    sort ranks each source's segments by weight, so among equal weights
    the larger label wins.  Returns ``(best_label, best_weight)`` with
    label ``-1`` for arc-less nodes.  The ``py`` tier of
    :func:`repro.mr.native.lp_best_label`.
    """
    n = num_nodes
    code = arc_src * n + arc_lab
    order = np.argsort(code, kind="stable")
    code_s = code[order]
    new = np.ones(len(code_s), dtype=bool)
    if len(code_s):
        new[1:] = code_s[1:] != code_s[:-1]
    seg_id = np.cumsum(new) - 1
    nseg = int(seg_id[-1]) + 1 if len(code_s) else 0
    if arc_w is None:
        seg_w = np.bincount(seg_id, minlength=nseg).astype(np.float64)
    else:
        seg_w = np.bincount(seg_id, weights=arc_w[order], minlength=nseg)
    seg_src = arc_src[order][new]
    seg_lab = arc_lab[order][new]
    best_lab = np.full(n, -1, dtype=np.int64)
    best_w = np.zeros(n, dtype=np.float64)
    rank = np.lexsort((seg_w, seg_src))
    ss = seg_src[rank]
    last = np.ones(len(ss), dtype=bool)
    if len(ss):
        last[:-1] = ss[:-1] != ss[1:]
    pick = rank[last]
    best_lab[seg_src[pick]] = seg_lab[pick]
    best_w[seg_src[pick]] = seg_w[pick]
    return best_lab, best_w


def _lp_cluster(
    indptr: np.ndarray,
    indices: np.ndarray,
    arc_w: Optional[np.ndarray],
    node_w: np.ndarray,
    cap: float,
    rounds: int,
    native: bool,
) -> np.ndarray:
    """Size-constrained label propagation clustering (coarsening step)."""
    n = len(indptr) - 1
    label = np.arange(n, dtype=np.int64)
    if not native:
        arc_src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    for _ in range(rounds):
        if native:
            best_lab, best_w, cur_w = _native.lp_best_label(
                indptr, indices, arc_w, label
            )
        else:
            best_lab, best_w = _best_neighbor_label(
                arc_src, label[indices], arc_w, n
            )
            own = label[arc_src] == label[indices]
            if arc_w is None:
                cur_w = np.bincount(
                    arc_src[own], minlength=n
                ).astype(np.float64)
            else:
                cur_w = np.bincount(
                    arc_src[own], weights=arc_w[own], minlength=n
                )
        movers = np.flatnonzero(
            (best_lab >= 0) & (best_lab != label) & (best_w > cur_w)
        )
        if not len(movers):
            break
        gain = best_w[movers] - cur_w[movers]
        order = movers[np.argsort(-gain, kind="stable")]
        loads = np.bincount(label, weights=node_w, minlength=n)
        room = np.maximum(cap - loads, 0.0)
        keep = _budget_filter(
            best_lab[order], node_w[order].astype(np.float64), room
        )
        moved = order[keep]
        if not len(moved):
            break
        label[moved] = best_lab[moved]
    return label


def _contract(indptr, indices, arc_w, node_w, label, native: bool):
    """Contract clusters into super-nodes; arc weights sum per pair.

    Each super-node's targets ascend (the order ``np.unique`` gives the
    pair codes); the native tier writes the same CSR in one row scan.
    """
    uniq, cid = np.unique(label, return_inverse=True)
    nc = len(uniq)
    cw = np.bincount(cid, weights=node_w.astype(np.float64), minlength=nc)
    if native:
        cindptr, cd, uw = _native.lp_contract(indptr, indices, arc_w, cid, nc)
        return cindptr, cd, uw, cw, cid
    n = len(indptr) - 1
    src = cid[np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))]
    dst = cid[indices]
    keep = src != dst
    pairs = src[keep] * nc + dst[keep]
    up, inv = np.unique(pairs, return_inverse=True)
    if arc_w is None:
        uw = np.bincount(inv, minlength=len(up)).astype(np.float64)
    else:
        uw = np.bincount(inv, weights=arc_w[keep], minlength=len(up))
    cs = (up // nc).astype(np.int64)
    cd = (up % nc).astype(np.int64)
    cindptr = np.zeros(nc + 1, dtype=np.int64)
    cindptr[1:] = np.bincount(cs, minlength=nc)
    np.cumsum(cindptr, out=cindptr)
    return cindptr, cd, uw, cw, cid


def _lpt_seed(node_w: np.ndarray, num_shards: int) -> np.ndarray:
    """Longest-processing-time greedy: heaviest cluster → lightest shard.

    A heap keyed ``(load, shard)`` breaks load ties to the lowest shard.
    """
    order = np.argsort(-node_w, kind="stable")
    owner = np.zeros(len(node_w), dtype=np.int64)
    heap = [(0.0, k) for k in range(num_shards)]
    for i, w in zip(order.tolist(), node_w[order].tolist()):
        load, k = heapq.heappop(heap)
        owner[i] = k
        heapq.heappush(heap, (load + w, k))
    return owner


def _lp_refine(
    indptr: np.ndarray,
    indices: np.ndarray,
    arc_w: Optional[np.ndarray],
    node_w: np.ndarray,
    owner: np.ndarray,
    num_shards: int,
    total_w: float,
    rounds: int,
    slack: float,
    rng: np.random.Generator,
    native: bool,
) -> np.ndarray:
    """Balanced label propagation refinement of a K-way assignment.

    Positive-gain moves only, admitted best-first against the per-shard
    inflow budget ``(1 + slack) * total_w / K``; a random subsample of
    movers per round damps the two-colouring oscillation of synchronous
    label propagation.
    """
    n = len(indptr) - 1
    K = num_shards
    if not native:
        arc_src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    cap_hi = (1.0 + slack) * total_w / K
    idx = np.arange(n)
    node_wf = node_w.astype(np.float64)
    for _ in range(rounds):
        if native:
            aff = _native.lp_affinity(indptr, indices, arc_w, owner, K)
        else:
            code = arc_src * K + owner[indices]
            if arc_w is None:
                aff = np.bincount(code, minlength=n * K).astype(np.float64)
            else:
                aff = np.bincount(code, weights=arc_w, minlength=n * K)
            aff = aff.reshape(n, K)
        cur = aff[idx, owner]
        pref = np.argmax(aff, axis=1)
        gain = aff[idx, pref] - cur
        movers = np.flatnonzero((pref != owner) & (gain > 0))
        if len(movers):
            movers = movers[rng.random(len(movers)) < 0.7]
        if not len(movers):
            continue
        order = movers[np.argsort(-gain[movers], kind="stable")]
        loads = np.bincount(owner, weights=node_wf, minlength=K)
        room = np.maximum(cap_hi - loads, 0.0)
        keep = _budget_filter(pref[order], node_wf[order], room)
        moved = order[keep]
        if not len(moved):
            break
        owner[moved] = pref[moved]
    return owner


def assignment_cut_fraction(graph, owner: np.ndarray) -> float:
    """Fraction of arcs whose endpoints live on different shards."""
    if not graph.num_arcs:
        return 0.0
    arc_src_owner = np.repeat(owner, np.diff(graph.indptr))
    cut = np.count_nonzero(arc_src_owner != owner[graph.indices])
    return cut / graph.num_arcs


def _range_owner(graph, num_shards: int) -> np.ndarray:
    """Contiguous arc-balanced ranges of the id space: shard ``k`` owns
    the nodes whose arc prefix sums fall in its ``1/K`` slice."""
    n = graph.num_nodes
    arcs = graph.num_arcs
    targets = (arcs * np.arange(1, num_shards, dtype=np.int64)) // num_shards
    cuts = np.searchsorted(graph.indptr, targets, side="left")
    starts = np.concatenate(([0], np.clip(cuts, 0, n), [n])).astype(np.int64)
    starts = np.maximum.accumulate(starts)
    return np.repeat(np.arange(num_shards, dtype=np.int64), np.diff(starts))


def lp_assignment(
    graph,
    num_shards: int,
    *,
    slack: float = 0.5,
    seed: int = 0,
    refine_rounds: int = 20,
    cluster_rounds: int = 3,
) -> np.ndarray:
    """Locality-aware node→shard assignment (multilevel label propagation).

    Returns an int32 array mapping every node id to its owning shard.
    Node ids are untouched; only ownership changes.  ``slack`` bounds
    the arc-load imbalance the refinement may introduce (the heaviest
    shard stays under ``(1 + slack) * arcs / K`` arcs); looser slack
    buys a lower cut — on power-law graphs the balanced-cut frontier is
    steep, which is why the default trades 1.5x worst-case load for a
    roughly halved cut.  Deterministic for a fixed ``seed``.

    The returned assignment never cuts more arcs than the contiguous
    range plan: the range candidate competes in the final selection.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    n = graph.num_nodes
    if num_shards == 1 or n == 0:
        return np.zeros(n, dtype=np.int32)
    range_owner = _range_owner(graph, num_shards)
    if not graph.num_arcs or n <= 2 * num_shards:
        return range_owner.astype(np.int32)
    rng = np.random.default_rng(seed)
    K = num_shards
    native = _native.use_native()
    degs = np.diff(graph.indptr).astype(np.float64)
    total_w = float(graph.num_arcs)
    indptr = np.asarray(graph.indptr, dtype=np.int64)
    indices = np.asarray(graph.indices, dtype=np.int64)

    # Coarsening: size-constrained LP clustering, contracted per level.
    cap_cluster = total_w / K * _CLUSTER_CAP_FRACTION
    ip, ix = indptr, indices
    aw: Optional[np.ndarray] = None  # unit weights at the finest level
    nw = degs
    projections = []
    while len(ip) - 1 > max(4 * K, _COARSEST_NODES):
        label = _lp_cluster(
            ip, ix, aw, nw, cap_cluster, cluster_rounds, native
        )
        cip, cix, cuw, cnw, cid = _contract(ip, ix, aw, nw, label, native)
        if len(cip) - 1 >= len(ip) - 1:
            break  # no contraction progress: coarsest level reached
        projections.append(cid)
        ip, ix, aw, nw = cip, cix, cuw, cnw

    # Initial partition at the coarsest level, then refine + project.
    owner = _lpt_seed(nw, K)
    owner = _lp_refine(
        ip, ix, aw, nw, owner, K, total_w, refine_rounds, slack, rng, native
    )
    for cid in reversed(projections):
        owner = owner[cid]
    fine_rounds = max(4, refine_rounds // 2)
    multilevel_owner = _lp_refine(
        indptr, indices, None, degs, owner.copy(), K, total_w,
        fine_rounds, slack, rng, native,
    )

    # Second candidate: the range plan refined in place (wins on
    # lattice-like graphs where contiguity is already near-optimal).
    refined_range = _lp_refine(
        indptr, indices, None, degs, range_owner.copy(), K, total_w,
        fine_rounds, slack, rng, native,
    )

    candidates = [range_owner, refined_range, multilevel_owner]
    cuts = [assignment_cut_fraction(graph, c) for c in candidates]
    best = candidates[int(np.argmin(cuts))]
    return best.astype(np.int32)
