"""The reference cores: the generator-driven spinning and MWAIT loops.

This module preserves the generator-based ``SpinningCore`` and
``MwaitCore`` of :mod:`repro.sdp` verbatim, as they stood before the
callback core (:class:`repro.sdp.spinning.SpinningCore`) became the only
scan-and-serve core in the package. Each is one simulator process that
yields once per scan, once per service, and once per idle wait (MWAIT:
arm, halt, wake-up). The only edits: the ready-queue scan
(``Cluster.next_ready``) and the arrival-pulse accessor
(``Cluster.arrival_event``) moved here with the cores, so the loops call
this module's :func:`next_ready` and :func:`arrival_event`.

It exists to be the differential oracle the callback core is checked
against (``tests/test_core_fastpath.py``), and to run the spinning
servers of the reference rack (:mod:`tests.oracles.rack`). Do not
optimise it: the callback core is only trustworthy because this copy did
not move.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.sdp.config import INSTRUCTIONS_PER_POLL, USEFUL_TASK_IPC
from repro.sdp.locality import POST_TASK_COLD_POLLS
from repro.sdp.mwait import MWAIT_ARM_CYCLES, MWAIT_WAKEUP_CYCLES
from repro.sdp.spinning import DEQUEUE_PATH_INSTRUCTIONS
from repro.sdp.system import Cluster, DataPlaneSystem
from repro.sim.events import Event


def arrival_event(cluster: Cluster) -> Event:
    """The event idle cores wait on for the next arrival pulse."""
    return cluster._arrival_event


def next_ready(cluster: Cluster, pos: int) -> Optional[Tuple[int, int]]:
    """The next ready local queue at or after ``pos``, circularly.

    Returns ``(local_index, empty_polls_skipped)`` or ``None`` when
    no queue in the cluster is ready.
    """
    mask = cluster.ready_mask
    if not mask:
        return None
    ahead = mask >> pos
    if ahead:
        offset = (ahead & -ahead).bit_length() - 1
        return pos + offset, offset
    behind = mask & ((1 << pos) - 1)
    index = (behind & -behind).bit_length() - 1
    return index, cluster.n - pos + index


class ReferenceSpinningCore:
    """One spin-polling data-plane core bound to a cluster."""

    def __init__(self, system: DataPlaneSystem, core_id: int, cluster: Cluster):
        self.system = system
        self.core_id = core_id
        self.cluster = cluster
        self.activity = system.metrics.activities[core_id]
        rank = cluster.plan.core_ids.index(core_id)
        # Stagger start positions so cluster cores do not scan in lockstep.
        self.pos = (rank * cluster.n) // max(1, cluster.num_cores)
        self._cold_polls = 0
        self.process = system.sim.spawn(self._run(), name=f"spin-core-{core_id}")

    # -- cost helpers --------------------------------------------------------

    def _scan_cycles(self, empty_polls: int) -> float:
        """Cycles to skip ``empty_polls`` empty heads and read the ready one.

        The first few polls after a task may find their lines evicted by
        the task's data (L1 pollution) — they cost at least an LLC hit.
        """
        cluster = self.cluster
        cost_model = self.system.cost_model
        base = empty_polls * cluster.empty_poll_cost
        if self._cold_polls and cluster.empty_poll_cost < cost_model.llc_hit:
            cold = min(empty_polls, self._cold_polls)
            base += cold * (cost_model.llc_hit - cluster.empty_poll_cost)
            self._cold_polls -= cold
        return base + cluster.ready_poll_cost

    # -- the core loop -------------------------------------------------------

    def _run(self):
        sim = self.system.sim
        clock = self.system.clock
        cluster = self.cluster
        cost_model = self.system.cost_model
        activity = self.activity
        shared = cluster.num_cores > 1
        while True:
            found = next_ready(cluster, self.pos)
            if found is None:
                # Nothing ready anywhere: spin until the next arrival
                # pulse, fast-forwarding the iterator.
                event = arrival_event(cluster)
                idle_start = sim.now
                yield event
                idle_cycles = clock.seconds_to_cycles(sim.now - idle_start)
                # With no traffic at all, the polled lines stay resident:
                # idle spinning runs at the cheap (high-IPC) poll cost.
                polls = idle_cycles / cluster.idle_poll_cost
                activity.busy_cycles += idle_cycles
                activity.useless_instructions += polls * INSTRUCTIONS_PER_POLL
                self.pos = (self.pos + int(polls)) % cluster.n
                continue
            local_index, empty_polls = found
            scan = self._scan_cycles(empty_polls)
            yield clock.cycles_to_seconds(scan)
            activity.busy_cycles += scan
            activity.useless_instructions += (empty_polls + 1) * INSTRUCTIONS_PER_POLL
            queue = cluster.queues[local_index]
            if queue.is_empty():
                # Another cluster core drained it during our scan.
                cluster.refresh_ready(local_index)
                self.pos = (local_index + 1) % cluster.n
                continue
            sync = 0.0
            if shared:
                # Shared dequeue: spinlock plus queue-head line ping-pong.
                sync = cluster.lock.acquire_cost(self.core_id, cluster.num_cores)
                sync += cost_model.remote_transfer
            item = queue.dequeue(sim.now)
            cluster.refresh_ready(local_index)
            self.system.notify_dequeue(queue.qid)
            service_cycles = (
                clock.seconds_to_cycles(item.service_time)
                + self.system.task_data_stall
            )
            overhead = cost_model.dequeue + cost_model.doorbell_update + sync
            yield clock.cycles_to_seconds(service_cycles + overhead)
            self.system.complete(item)
            activity.busy_cycles += service_cycles + overhead
            activity.useful_instructions += (
                service_cycles * USEFUL_TASK_IPC + DEQUEUE_PATH_INSTRUCTIONS
            )
            activity.tasks += 1
            self._cold_polls = POST_TASK_COLD_POLLS
            self.pos = (local_index + 1) % cluster.n


class ReferenceMwaitCore:
    """A halt-then-scan data-plane core (UMWAIT over the doorbell range)."""

    def __init__(self, system: DataPlaneSystem, core_id: int, cluster: Cluster):
        self.system = system
        self.core_id = core_id
        self.cluster = cluster
        self.activity = system.metrics.activities[core_id]
        rank = cluster.plan.core_ids.index(core_id)
        self.pos = (rank * cluster.n) // max(1, cluster.num_cores)
        self._cold_polls = 0
        self.process = system.sim.spawn(self._run(), name=f"mwait-core-{core_id}")

    def _scan_cycles(self, empty_polls: int) -> float:
        cluster = self.cluster
        cost_model = self.system.cost_model
        base = empty_polls * cluster.empty_poll_cost
        if self._cold_polls and cluster.empty_poll_cost < cost_model.llc_hit:
            cold = min(empty_polls, self._cold_polls)
            base += cold * (cost_model.llc_hit - cluster.empty_poll_cost)
            self._cold_polls -= cold
        return base + cluster.ready_poll_cost

    def _run(self):
        sim = self.system.sim
        clock = self.system.clock
        cluster = self.cluster
        cost_model = self.system.cost_model
        activity = self.activity
        shared = cluster.num_cores > 1
        while True:
            found = next_ready(cluster, self.pos)
            if found is None:
                # Arm the monitor and halt — this is the difference from
                # the spinning plane: idle time costs no instructions.
                arm = MWAIT_ARM_CYCLES
                yield clock.cycles_to_seconds(arm)
                activity.busy_cycles += arm
                event = arrival_event(cluster)
                halt_start = sim.now
                yield event
                activity.halted_cycles += clock.seconds_to_cycles(sim.now - halt_start)
                activity.wakeups += 1
                wake = MWAIT_WAKEUP_CYCLES
                yield clock.cycles_to_seconds(wake)
                activity.busy_cycles += wake
                # The monitor said "something changed", not *where*: the
                # scan still starts from the stale iterator position.
                continue
            local_index, empty_polls = found
            scan = self._scan_cycles(empty_polls)
            yield clock.cycles_to_seconds(scan)
            activity.busy_cycles += scan
            activity.useless_instructions += (empty_polls + 1) * INSTRUCTIONS_PER_POLL
            queue = cluster.queues[local_index]
            if queue.is_empty():
                cluster.refresh_ready(local_index)
                self.pos = (local_index + 1) % cluster.n
                continue
            sync = 0.0
            if shared:
                sync = cluster.lock.acquire_cost(self.core_id, cluster.num_cores)
                sync += cost_model.remote_transfer
            item = queue.dequeue(sim.now)
            cluster.refresh_ready(local_index)
            self.system.notify_dequeue(queue.qid)
            service_cycles = (
                clock.seconds_to_cycles(item.service_time) + self.system.task_data_stall
            )
            overhead = cost_model.dequeue + cost_model.doorbell_update + sync
            yield clock.cycles_to_seconds(service_cycles + overhead)
            self.system.complete(item)
            activity.busy_cycles += service_cycles + overhead
            activity.useful_instructions += (
                service_cycles * USEFUL_TASK_IPC + DEQUEUE_PATH_INSTRUCTIONS
            )
            activity.tasks += 1
            self._cold_polls = POST_TASK_COLD_POLLS
            self.pos = (local_index + 1) % cluster.n


def _build(core_cls, system: DataPlaneSystem) -> list:
    return [
        core_cls(system, core_id, cluster)
        for cluster in system.clusters
        for core_id in cluster.plan.core_ids
    ]


def build_reference_spinning_cores(system: DataPlaneSystem) -> List[ReferenceSpinningCore]:
    """Spawn one generator spinning core per configured data-plane core."""
    return _build(ReferenceSpinningCore, system)


def build_reference_mwait_cores(system: DataPlaneSystem) -> List[ReferenceMwaitCore]:
    """Spawn one generator MWAIT core per configured data-plane core."""
    return _build(ReferenceMwaitCore, system)
