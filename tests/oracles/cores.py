"""The reference cores: the generator-driven spinning, MWAIT and HyperPlane loops.

This module preserves the generator-based ``SpinningCore`` and
``MwaitCore`` of :mod:`repro.sdp` verbatim, as they stood before the
callback core (:class:`repro.sdp.spinning.SpinningCore`) became the only
scan-and-serve core in the package. Each is one simulator process that
yields once per scan, once per service, and once per idle wait (MWAIT:
arm, halt, wake-up). The only edits: the ready-queue scan
(``Cluster.next_ready``) and the arrival-pulse accessor
(``Cluster.arrival_event``) moved here with the cores, so the loops call
this module's :func:`next_ready` and :func:`arrival_event`.

It also preserves the generator ``HyperPlaneCore`` and
``build_hyperplane`` of :mod:`repro.core.dataplane` verbatim, as
:class:`ReferenceHyperPlaneCore` and :func:`build_reference_hyperplane`,
as they stood before the callback core
(:class:`repro.core.dataplane.HyperPlaneCore`) replaced them. The loop
yields five times per batch-1 request: QWAIT, VERIFY, dequeue,
RECONSIDER and service. The only edit is the names.

It exists to be the differential oracle the callback cores are checked
against (``tests/test_core_fastpath.py``), and to run the servers of the
reference rack (:mod:`tests.oracles.rack`). Do not optimise it: the
callback cores are only trustworthy because this copy did not move.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.accelerator import HyperPlaneAccelerator
from repro.core.dataplane import C1_RESIDENCY_MIN_SECONDS, STEAL_PENALTY_CYCLES
from repro.sdp.config import (
    INSTRUCTIONS_PER_POLL,
    QWAIT_PATH_INSTRUCTIONS,
    USEFUL_TASK_IPC,
)
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


class ReferenceHyperPlaneCore:
    """One QWAIT-driven data-plane core bound to a cluster."""

    def __init__(
        self,
        system: DataPlaneSystem,
        accelerator: HyperPlaneAccelerator,
        core_id: int,
        cluster: Cluster,
        batch_size: int = 1,
        in_order: bool = False,
        work_stealing: bool = False,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.system = system
        self.accelerator = accelerator
        self.core_id = core_id
        self.cluster = cluster
        self.batch_size = batch_size
        self.in_order = in_order
        self.work_stealing = work_stealing
        self.activity = system.metrics.activities[core_id]
        self.spurious_filtered = 0
        self.steals = 0
        self.servicing: Optional[int] = None
        self.process = system.sim.spawn(self._run(), name=f"hp-core-{core_id}")

    def _run(self):
        sim = self.system.sim
        clock = self.system.clock
        cost_model = self.system.cost_model
        config = self.system.config
        accelerator = self.accelerator
        ready_set = accelerator.ready_set_of(self.cluster)
        activity = self.activity
        while True:
            # ---- QWAIT ------------------------------------------------------
            wake_penalty = 0.0
            steal_penalty = 0.0

            def select():
                nonlocal steal_penalty
                found = ready_set.select_and_take()
                if found is None and self.work_stealing:
                    found = accelerator.qwait_steal(self.cluster)
                    if found is not None:
                        self.steals += 1
                        steal_penalty = STEAL_PENALTY_CYCLES
                return found

            qid = select()
            while qid is None:
                event = accelerator.halt(self.cluster, self.core_id)
                halt_start = sim.now
                yield event
                halted = clock.seconds_to_cycles(sim.now - halt_start)
                activity.halted_cycles += halted
                activity.wakeups += 1
                if config.power_optimized and (
                    sim.now - halt_start >= C1_RESIDENCY_MIN_SECONDS
                ):
                    activity.c1_cycles += halted
                    wake_penalty = float(cost_model.c1_wakeup)
                qid = select()
            # The ready bit is consumed from here until RECONSIDER runs:
            # the queue is "held" by this core for invariant purposes.
            self.servicing = qid
            qwait_cycles = (
                cost_model.qwait
                + ready_set.selection_cycles(clock)
                + wake_penalty
                + steal_penalty
            )
            yield clock.cycles_to_seconds(qwait_cycles)
            activity.busy_cycles += qwait_cycles
            activity.useful_instructions += QWAIT_PATH_INSTRUCTIONS

            # ---- QWAIT-VERIFY (atomic: empty-test + re-arm) -------------------
            yield clock.cycles_to_seconds(cost_model.qwait_verify)
            activity.busy_cycles += cost_model.qwait_verify
            if not accelerator.qwait_verify(qid):
                self.spurious_filtered += 1
                self.system.metrics.spurious_wakeups += 1
                self.servicing = None
                continue

            # ---- dequeue (single item or a batch) ------------------------------
            queue = self.system.queues[qid]
            take = min(self.batch_size, len(queue))
            items = [queue.dequeue(sim.now) for _ in range(take)]
            for _ in items:
                self.system.notify_dequeue(qid)
            dequeue_cycles = cost_model.dequeue * len(items)
            yield clock.cycles_to_seconds(dequeue_cycles)
            activity.busy_cycles += dequeue_cycles

            if self.in_order:
                # Flow-stateful mode: finish processing before the queue
                # may be handed to another core (lines 18/19 swapped).
                yield from self._process(items)
                yield from self._reconsider(qid)
            else:
                yield from self._reconsider(qid)
                yield from self._process(items)

    def _reconsider(self, qid: int):
        clock = self.system.clock
        cost_model = self.system.cost_model
        yield clock.cycles_to_seconds(cost_model.qwait_reconsider)
        self.activity.busy_cycles += cost_model.qwait_reconsider
        self.accelerator.qwait_reconsider(qid)
        self.servicing = None

    def _process(self, items):
        clock = self.system.clock
        cost_model = self.system.cost_model
        activity = self.activity
        for item in items:
            service_cycles = (
                clock.seconds_to_cycles(item.service_time)
                + self.system.task_data_stall
            )
            tail = service_cycles + cost_model.doorbell_update
            yield clock.cycles_to_seconds(tail)
            self.system.complete(item)
            activity.busy_cycles += tail
            activity.useful_instructions += (
                service_cycles * USEFUL_TASK_IPC + DEQUEUE_PATH_INSTRUCTIONS
            )
            activity.tasks += 1


def build_reference_hyperplane(
    system: DataPlaneSystem,
    policy: str = "rr",
    weights=None,
    software_ready_set: bool = False,
    batch_size: int = 1,
    in_order: bool = False,
    work_stealing: bool = False,
) -> tuple:
    """Attach an accelerator and spawn one HyperPlane core per config'd core.

    Returns ``(accelerator, cores)``.
    """
    accelerator = HyperPlaneAccelerator(
        system,
        policy=policy,
        weights=weights,
        software_ready_set=software_ready_set,
    )
    accelerator.work_stealing_enabled = work_stealing
    cores: List[ReferenceHyperPlaneCore] = []
    for cluster in system.clusters:
        for core_id in cluster.plan.core_ids:
            cores.append(
                ReferenceHyperPlaneCore(
                    system,
                    accelerator,
                    core_id,
                    cluster,
                    batch_size=batch_size,
                    in_order=in_order,
                    work_stealing=work_stealing,
                )
            )
    return accelerator, cores
