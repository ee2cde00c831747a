"""Parameters of the MR(M_T, M_L) computational model.

The model (Pietracaprina et al., "Space-round tradeoffs for MapReduce
computations") is parameterized by the total memory ``M_T`` available to the
computation and the local memory ``M_L`` available to each reducer.  A
"practical" algorithm in the big-data regime uses ``M_T`` linear in the
input and ``M_L`` polynomially sublinear (``M_L = Θ(n^ε)``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["MRSpec"]


@dataclass(frozen=True)
class MRSpec:
    """Memory parameters of an MR(M_T, M_L) instance.

    Attributes
    ----------
    total_memory:
        ``M_T`` — aggregate memory in words across the platform.
    local_memory:
        ``M_L`` — memory words available to a single reducer.
    num_workers:
        Number of physical machines simulated.  Only affects the
        critical-path time model of the executor (a round's simulated time
        is the maximum work assigned to one worker), never correctness.
    """

    total_memory: int
    local_memory: int
    num_workers: int = 1

    def __post_init__(self):
        if self.local_memory <= 0:
            raise ConfigurationError("local_memory (M_L) must be positive")
        if self.total_memory < self.local_memory:
            raise ConfigurationError("total_memory (M_T) must be >= local_memory (M_L)")
        if self.num_workers <= 0:
            raise ConfigurationError("num_workers must be positive")

    @classmethod
    def for_input_size(
        cls, n: int, *, epsilon: float = 0.5, num_workers: int = 1, slack: float = 4.0
    ) -> "MRSpec":
        """Spec with ``M_L = Θ(n^ε)`` and linear total memory.

        ``slack`` multiplies both budgets so that constant-factor overheads
        of the simulated reducers (headers, duplicated keys) do not trip the
        limit checker on tiny inputs.
        """
        if not 0 < epsilon <= 1:
            raise ConfigurationError("epsilon must lie in (0, 1]")
        n = max(int(n), 2)
        ml = max(int(slack * n**epsilon), 2)
        mt = max(int(slack * n), ml)
        return cls(total_memory=mt, local_memory=ml, num_workers=num_workers)
