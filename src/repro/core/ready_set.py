"""The ready set: tracks ready QIDs and serves QWAIT selections.

Hardware implementation (Fig. 6): a ready-bit vector, a mask-bit vector
(QWAIT-ENABLE / QWAIT-DISABLE), and a PPA that computes the one-hot
select. Selection latency is constant (12.25 ns from the paper's RTL).

Software implementation (Sections III-B / V-E): the iterator walks the
QID table in memory applying the service policy, so selection cost
scales with the number of ready QIDs — the Fig. 13 experiment.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.core.policies import ServicePolicy
from repro.mem.costmodel import READY_SET_SELECT_NS

# Software iterator: cycles per ready QID examined (load flag, compare,
# pointer bump, and the occasional cache miss on the list itself), plus
# a fixed entry/exit cost.
SOFTWARE_ITER_CYCLES_PER_QID = 6
SOFTWARE_ITER_BASE_CYCLES = 30


class ReadySet(abc.ABC):
    """Common interface of both ready-set implementations."""

    def __init__(self, capacity: int, policy: ServicePolicy):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if policy.width < capacity:
            raise ValueError("policy narrower than the ready set")
        self.capacity = capacity
        self.policy = policy
        self.ready_mask = 0
        self.enabled_mask = (1 << capacity) - 1
        self.activations = 0
        self.selections = 0

    def _check_qid(self, qid: int) -> None:
        if not 0 <= qid < self.capacity:
            raise ValueError(f"qid {qid} out of range 0..{self.capacity - 1}")

    def activate(self, qid: int) -> None:
        """Set a QID's ready bit (monitoring-set match or RECONSIDER)."""
        self._check_qid(qid)
        self.ready_mask |= 1 << qid
        self.activations += 1

    def deactivate(self, qid: int) -> None:
        """Clear a QID's ready bit without selecting it."""
        self._check_qid(qid)
        self.ready_mask &= ~(1 << qid)

    def is_ready(self, qid: int) -> bool:
        self._check_qid(qid)
        return bool(self.ready_mask & (1 << qid))

    def enable(self, qid: int) -> None:
        """QWAIT-ENABLE: allow the queue to be selected again."""
        self._check_qid(qid)
        self.enabled_mask |= 1 << qid

    def disable(self, qid: int) -> None:
        """QWAIT-DISABLE: inhibit selection (e.g. for rate limiting)."""
        self._check_qid(qid)
        self.enabled_mask &= ~(1 << qid)

    def is_enabled(self, qid: int) -> bool:
        self._check_qid(qid)
        return bool(self.enabled_mask & (1 << qid))

    @property
    def ready_count(self) -> int:
        """Number of ready (not necessarily enabled) QIDs."""
        return self.ready_mask.bit_count()

    def select_and_take(self) -> Optional[int]:
        """Return the next QID per the policy, consuming its ready bit."""
        qid = self.policy.take(self.ready_mask & self.enabled_mask)
        if qid is None:
            return None
        self.ready_mask &= ~(1 << qid)
        self.selections += 1
        return qid

    @abc.abstractmethod
    def selection_cycles(self, clock) -> float:
        """Cycle cost of one QWAIT selection on this implementation."""


class HardwareReadySet(ReadySet):
    """PPA-based hardware ready set: constant selection latency."""

    def selection_cycles(self, clock) -> float:
        return clock.ns_to_cycles(READY_SET_SELECT_NS)


class SoftwareReadySet(ReadySet):
    """Software iterator: selection cost grows with the ready count.

    The iterator must walk the in-memory ready list to apply the service
    policy, so fully-balanced traffic (everything ready) pays ~4 cycles
    per monitored QID per QWAIT — which Fig. 13 shows halving throughput.
    """

    def selection_cycles(self, clock) -> float:
        examined = max(1, self.ready_count)
        return SOFTWARE_ITER_BASE_CYCLES + SOFTWARE_ITER_CYCLES_PER_QID * examined
