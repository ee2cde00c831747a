"""Platform-independent performance counters.

The paper's experimental comparison (Table 2, Figures 2-3) reports, besides
wall-clock time, two implementation-independent metrics:

* **rounds** — MapReduce rounds executed;
* **work** — "the sum of node updates and messages generated".

:class:`Counters` accumulates both, plus finer-grained statistics that the
ablation benchmarks use (growing steps, edge relaxations attempted, and the
largest single-round message volume, which bounds shuffle pressure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["Counters", "PHASES"]

#: Canonical wall-clock phase names of one growing-step round, in
#: pipeline order: candidate generation, grouping/exchange, the
#: per-target merge, and the state update.
PHASES = ("emit", "shuffle", "reduce", "apply")


@dataclass
class Counters:
    """Mutable accumulator of rounds/messages/updates.

    Attributes
    ----------
    rounds:
        MapReduce rounds.  For the vectorized executors each Δ-growing step
        or Δ-stepping phase counts as one round, matching §4.1's
        observation that a growing step takes O(1) rounds.
    messages:
        Relaxation requests sent across edges (one per light edge scanned
        out of an active node).
    updates:
        Node-state improvements actually applied.
    relaxations:
        Candidate relaxations that passed the weight/threshold filters
        (messages that reached the reduce side).
    growing_steps:
        Δ-growing steps (CL-DIAM) or bucket phases (Δ-stepping).
    peak_round_messages:
        Maximum messages generated in a single round; proxies the maximum
        shuffle volume and therefore M_T pressure.
    """

    rounds: int = 0
    messages: int = 0
    updates: int = 0
    relaxations: int = 0
    growing_steps: int = 0
    peak_round_messages: int = 0
    extra: Dict[str, int] = field(default_factory=dict)
    #: Accumulated wall-clock seconds per pipeline phase (see
    #: :data:`PHASES`).  Deliberately *not* part of :meth:`snapshot`:
    #: snapshots are compared bit-for-bit across backends and kernel
    #: modes, and wall-clock never is.  Read via :meth:`timing_snapshot`.
    timings: Dict[str, float] = field(default_factory=dict)
    #: Resolved execution environment of the run — kernel tier
    #: (``py``/``native``), native availability — stamped by the
    #: runner.  Like :attr:`timings`, excluded from
    #: :meth:`snapshot`: the tier must never perturb the comparable
    #: counters, only annotate them.  Read via :meth:`impl_snapshot`.
    impl: Dict[str, object] = field(default_factory=dict)

    @property
    def work(self) -> int:
        """The paper's work metric: node updates + messages generated."""
        return self.messages + self.updates

    def record_round(self, messages: int, updates: int, relaxations: int = 0) -> None:
        """Account one round's traffic in a single call."""
        self.rounds += 1
        self.messages += int(messages)
        self.updates += int(updates)
        self.relaxations += int(relaxations)
        self.peak_round_messages = max(self.peak_round_messages, int(messages))

    def add_time(self, phase: str, seconds: float) -> None:
        """Accumulate wall-clock seconds into one pipeline phase."""
        self.timings[phase] = self.timings.get(phase, 0.0) + float(seconds)

    def timing_snapshot(self) -> Dict[str, float]:
        """Per-phase wall-clock seconds, canonical phases first.

        Phases from :data:`PHASES` appear in pipeline order (0.0 when
        never recorded, so reports have a stable shape); any extra
        phases a backend recorded follow alphabetically.
        """
        out = {phase: round(self.timings.get(phase, 0.0), 6) for phase in PHASES}
        for key in sorted(self.timings):
            if key not in out:
                out[key] = round(self.timings[key], 6)
        return out

    def impl_snapshot(self) -> Dict[str, object]:
        """Resolved kernel-tier metadata (empty until a runner stamps it)."""
        return dict(self.impl)

    def merge(self, other: "Counters") -> "Counters":
        """Accumulate ``other`` into ``self`` (returns ``self`` for chaining)."""
        self.rounds += other.rounds
        self.messages += other.messages
        self.updates += other.updates
        self.relaxations += other.relaxations
        self.growing_steps += other.growing_steps
        self.peak_round_messages = max(
            self.peak_round_messages, other.peak_round_messages
        )
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0) + value
        for key, value in other.timings.items():
            self.timings[key] = self.timings.get(key, 0.0) + value
        if other.impl:
            self.impl.update(other.impl)
        return self

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict view (for reports and JSON serialization)."""
        return {
            "rounds": self.rounds,
            "messages": self.messages,
            "updates": self.updates,
            "relaxations": self.relaxations,
            "growing_steps": self.growing_steps,
            "peak_round_messages": self.peak_round_messages,
            "work": self.work,
            **self.extra,
        }

    _KNOWN_FIELDS = (
        "rounds",
        "messages",
        "updates",
        "relaxations",
        "growing_steps",
        "peak_round_messages",
    )

    @classmethod
    def restore_into(cls, counters: "Counters", snapshot: Dict[str, int]) -> None:
        """Overwrite ``counters``'s comparable fields from a :meth:`snapshot`.

        The checkpoint/recovery inverse of :meth:`snapshot`: a resumed
        or replayed run continues accumulating from exactly the counts
        the snapshot recorded, so the final counters are bit-identical
        to an uninterrupted run.  ``work`` is derived and dropped; every
        other unknown key goes back to ``extra``.  :attr:`timings` and
        :attr:`impl` are untouched — wall-clock and environment are
        never bit-compared.
        """
        for name in cls._KNOWN_FIELDS:
            setattr(counters, name, int(snapshot.get(name, 0)))
        counters.extra = {
            key: value
            for key, value in snapshot.items()
            if key not in cls._KNOWN_FIELDS and key != "work"
        }
