"""Per-node algorithm state ``(c_u, d_u)`` and the contraction bookkeeping.

The paper maintains, for every node ``u``, a pair ``(c_u, d_u)``: the
center of the cluster ``u`` is assigned to (or undefined) and an upper
bound on ``dist(c_u, u)``.  The Contract/Contract2 procedures then replace
covered nodes by their centers.

Rather than physically rebuilding the contracted graph after every stage —
which would copy the edge arrays O(log n) times — this implementation keeps
the original graph and marks covered nodes as **frozen**:

* a frozen node keeps its final cluster assignment and is never updated
  again (it was "removed" by Contract);
* a frozen node still *propagates* along its edges, with an effective
  distance that reproduces the contracted edge exactly:

  - Contract (CLUSTER): edge ``(u, v)`` became ``(c_u, v)`` of weight
    ``w(u, v)``, i.e. frozen ``u`` propagates with effective distance 0;
  - Contract2 (CLUSTER2): the edge became ``(c_u, v)`` of weight
    ``d_u + w(u, v) − 2·R_CL``, and iterating contraction subtracts another
    ``2·R_CL`` per elapsed iteration, i.e. frozen ``u`` propagates with
    effective distance ``d_u − 2·R_CL · (current_iter − freeze_iter)``.

Separately from the stage-local ``d_u`` (which Contract2 rescales), the
state tracks ``dist_acc``: an upper bound on the *true* weighted distance
from ``u`` to its center in the original graph, accumulated across stages.
``dist_acc`` defines the clustering radius and the quotient-graph weights.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ClusterState"]

#: Sentinel for "no center assigned".
NO_CENTER = -1


class ClusterState:
    """Mutable per-node state shared by CLUSTER and CLUSTER2.

    Attributes
    ----------
    center:
        int64[n]; ``center[u]`` is the cluster center of ``u`` or ``-1``.
    dist:
        float64[n]; stage-local distance upper bound ``d_u`` (``inf`` when
        unassigned).  Compared against Δ by the growing step.
    dist_acc:
        float64[n]; accumulated upper bound on ``dist(center[u], u)`` in
        the original graph.
    frozen:
        bool[n]; covered in an earlier stage (Contract applied).
    frozen_iter:
        int64[n]; iteration index at which the node froze (CLUSTER2's
        rescaling needs it; unused by CLUSTER).
    """

    __slots__ = ("center", "dist", "dist_acc", "frozen", "frozen_iter")

    def __init__(self, num_nodes: int):
        self.center = np.full(num_nodes, NO_CENTER, dtype=np.int64)
        self.dist = np.full(num_nodes, np.inf, dtype=np.float64)
        self.dist_acc = np.full(num_nodes, np.inf, dtype=np.float64)
        self.frozen = np.zeros(num_nodes, dtype=bool)
        self.frozen_iter = np.zeros(num_nodes, dtype=np.int64)

    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        return len(self.center)

    def assigned_mask(self) -> np.ndarray:
        """Nodes with a defined center (frozen or current-stage)."""
        return self.center != NO_CENTER

    def uncovered_mask(self) -> np.ndarray:
        """Nodes not yet permanently covered (i.e. not frozen)."""
        return ~self.frozen

    def num_uncovered(self) -> int:
        return int(np.count_nonzero(~self.frozen))

    # ------------------------------------------------------------------ #

    def start_stage(self, new_centers: np.ndarray) -> None:
        """Reset non-frozen nodes and install ``new_centers``.

        Mirrors Algorithm 1's per-stage initialization: nodes in ``X`` get
        ``(u, 0)``, every other (non-frozen) node gets ``(nil, ∞)``.
        Frozen nodes keep their assignment — they are the contracted
        representatives of earlier clusters.
        """
        thaw = ~self.frozen
        self.center[thaw] = NO_CENTER
        self.dist[thaw] = np.inf
        self.dist_acc[thaw] = np.inf
        new_centers = np.asarray(new_centers, dtype=np.int64)
        if np.any(self.frozen[new_centers]):
            raise ValueError("cannot select a frozen node as a new center")
        self.center[new_centers] = new_centers
        self.dist[new_centers] = 0.0
        self.dist_acc[new_centers] = 0.0

    def freeze_assigned(self, iteration: int = 0) -> np.ndarray:
        """Contract: permanently cover every currently assigned node.

        Returns the array of newly frozen node ids.  ``iteration`` is
        recorded for CLUSTER2's rescaling arithmetic.
        """
        newly = np.flatnonzero(self.assigned_mask() & ~self.frozen)
        self.frozen[newly] = True
        self.frozen_iter[newly] = iteration
        return newly

    def effective_dist(self, iteration: int = 0, rescale: float = 0.0) -> np.ndarray:
        """Per-node distance used as the propagation source value.

        * non-frozen assigned nodes: their stage-local ``dist``;
        * frozen nodes under Contract semantics (``rescale == 0``): 0;
        * frozen nodes under Contract2 semantics: ``dist − rescale ·
          (iteration − frozen_iter)``;
        * unassigned nodes: ``inf`` (they never propagate).
        """
        eff = self.dist.copy()
        if rescale == 0.0:
            eff[self.frozen] = 0.0
        else:
            f = self.frozen
            eff[f] = self.dist[f] - rescale * (iteration - self.frozen_iter[f])
        eff[~self.assigned_mask()] = np.inf
        return eff

    def radius(self) -> float:
        """Max accumulated distance to a center over assigned nodes (0 if none)."""
        assigned = self.assigned_mask()
        if not assigned.any():
            return 0.0
        return float(self.dist_acc[assigned].max())
