"""MWAIT/UMWAIT-style data plane: halt-then-scan.

The paper (Section III-A) positions MWAIT variants as the closest
existing primitive to QWAIT: they can halt execution until *some*
monitored memory changes — fixing work disproportionality — "however,
they cannot indicate in which queue the work item is located, requiring
the code to iterate across many (likely empty) queues, hurting latency
and throughput."

This baseline models exactly that design point: the core arms a monitor
over the doorbell range and halts when every queue is empty (no useless
spinning, no spin energy), but on wake-up it must scan from its iterator
position like the spinning plane. It is work-proportional but not
queue-scalable — the gap between it and HyperPlane isolates the value of
the *ready set* (returning the QID), while the gap between it and
spinning isolates the value of halting alone.
"""

from __future__ import annotations

from typing import List

from repro.sdp.spinning import SpinningCore
from repro.sdp.system import DataPlaneSystem

# UMWAIT-class wake-up latency: the monitor fires on the coherence
# invalidation and the core resumes from a shallow (C0.2-like) state.
MWAIT_WAKEUP_CYCLES = 300  # ~100 ns at 3 GHz
# Arming the monitor (UMONITOR + state setup) before halting.
MWAIT_ARM_CYCLES = 60


class MwaitCore(SpinningCore):
    """A halt-then-scan data-plane core (UMWAIT over the doorbell range).

    It scans and serves exactly as :class:`SpinningCore` does; only the
    idle branch differs. Arm the monitor, halt until the cluster's
    arrival pulse, pay the wake-up, then scan again.
    """

    __slots__ = ()

    def _idle(self) -> None:
        """Nothing ready anywhere: arm the monitor, then halt.

        This is the difference from the spinning plane: idle time costs
        no instructions.
        """
        self._sim.schedule(MWAIT_ARM_CYCLES / self._freq, self._halt)

    def _halt(self) -> None:
        """Armed: halt until the cluster's next arrival pulse."""
        self.activity.busy_cycles += MWAIT_ARM_CYCLES
        self._idle_start = self._sim._now
        self.cluster._arrival_event.add_callback(self._monitor_fired)

    def _monitor_fired(self, _value) -> None:
        """The monitor fired: account the halt and pay the wake-up."""
        activity = self.activity
        activity.halted_cycles += (self._sim._now - self._idle_start) * self._freq
        activity.wakeups += 1
        self._sim.schedule(MWAIT_WAKEUP_CYCLES / self._freq, self._woken)

    def _woken(self) -> None:
        """Awake: scan again from the stale iterator position.

        The monitor said "something changed", not *where*.
        """
        self.activity.busy_cycles += MWAIT_WAKEUP_CYCLES
        self._turn()


def build_mwait_cores(system: DataPlaneSystem) -> List[MwaitCore]:
    """Start one :class:`MwaitCore` per configured data-plane core."""
    return [
        MwaitCore(system, core_id, cluster)
        for cluster in system.clusters
        for core_id in cluster.plan.core_ids
    ]
