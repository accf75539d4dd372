"""Service policies for the ready set (paper, Sections III-A and IV-B).

A policy owns the *current priority* state and decides which ready QID
QWAIT returns next:

- **round-robin** — the selected QID gets lowest priority next round;
- **weighted round-robin** — a selected queue keeps priority for
  ``weight`` consecutive services (or until it runs dry);
- **strict priority** — lowest-numbered QID always wins (the paper
  notes this starves low-priority queues and is rarely used).
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Sequence

from repro.core.ppa import first_ready_at_or_after


class ServicePolicy(abc.ABC):
    """Chooses the next QID from a ready mask, maintaining priority state."""

    def __init__(self, width: int):
        if width <= 0:
            raise ValueError("policy width must be positive")
        self.width = width

    @abc.abstractmethod
    def take(self, ready_mask: int) -> Optional[int]:
        """Select (and account) the next QID, or None if nothing ready."""

    def reset(self) -> None:
        """Restore initial priority state."""


class RoundRobinPolicy(ServicePolicy):
    """Fig. 6's rotate-on-select round robin."""

    def __init__(self, width: int):
        super().__init__(width)
        self._priority = 1  # one-hot, bit 0 initially

    def take(self, ready_mask: int) -> Optional[int]:
        select = first_ready_at_or_after(ready_mask, self._priority)
        if select == 0:
            return None
        qid = select.bit_length() - 1
        # Rotate: highest priority moves to the bit after the selected one.
        self._priority = 1 << ((qid + 1) % self.width)
        return qid

    def reset(self) -> None:
        self._priority = 1


class WeightedRoundRobinPolicy(ServicePolicy):
    """Round robin where queue ``q`` may be served ``weight[q]`` times in a
    row while it stays ready (Section IV-B's counter mechanism)."""

    def __init__(self, width: int, weights: Optional[Dict[int, int]] = None, default_weight: int = 1):
        super().__init__(width)
        if default_weight < 1:
            raise ValueError("weights must be at least 1")
        self.default_weight = default_weight
        self.weights: Dict[int, int] = {}
        for qid, weight in (weights or {}).items():
            self.set_weight(qid, weight)
        self._priority = 1
        self._current: Optional[int] = None
        self._counter = 0

    def set_weight(self, qid: int, weight: int) -> None:
        """Configure one queue's consecutive-service budget."""
        if not 0 <= qid < self.width:
            raise ValueError(f"qid {qid} out of range")
        if weight < 1:
            raise ValueError("weights must be at least 1")
        self.weights[qid] = weight

    def weight_of(self, qid: int) -> int:
        return self.weights.get(qid, self.default_weight)

    def take(self, ready_mask: int) -> Optional[int]:
        current = self._current
        if (
            current is not None
            and self._counter > 0
            and ready_mask & (1 << current)
        ):
            # Current queue still holds priority and still has work.
            self._counter -= 1
            return current
        select = first_ready_at_or_after(ready_mask, self._priority)
        if select == 0:
            # Nothing ready: drop the hold so service restarts cleanly.
            self._current = None
            self._counter = 0
            return None
        qid = select.bit_length() - 1
        self._current = qid
        self._counter = self.weight_of(qid) - 1
        self._priority = 1 << ((qid + 1) % self.width)
        return qid

    def reset(self) -> None:
        self._priority = 1
        self._current = None
        self._counter = 0


class StrictPriorityPolicy(ServicePolicy):
    """Fixed priority "10...0": lower-numbered QIDs always win."""

    def take(self, ready_mask: int) -> Optional[int]:
        select = first_ready_at_or_after(ready_mask, 1)
        if select == 0:
            return None
        return select.bit_length() - 1


def policy_by_name(name: str, width: int, weights: Optional[Dict[int, int]] = None) -> ServicePolicy:
    """Instantiate a policy: "rr", "wrr", or "strict"."""
    key = name.lower()
    if key in ("rr", "round-robin"):
        return RoundRobinPolicy(width)
    if key in ("wrr", "weighted-round-robin"):
        return WeightedRoundRobinPolicy(width, weights)
    if key in ("strict", "strict-priority"):
        return StrictPriorityPolicy(width)
    raise ValueError(f"unknown service policy {name!r}")
