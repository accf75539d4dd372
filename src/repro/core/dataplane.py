"""The HyperPlane data-plane core: Algorithm 1.

Each core loops: QWAIT (halt if nothing ready), QWAIT-VERIFY (filter
spurious wake-ups), dequeue, QWAIT-RECONSIDER (re-arm or re-activate),
process, notify the tenant. Cycle costs come from the cost model; the
power-optimised mode adds the C1 wake-up penalty to QWAIT returns that
interrupted a sufficiently long halt.

Three optional behaviours from the paper are supported:

- **batching** (Section III-B: "the dequeue operation can retrieve a
  batch of items provided it correspondingly decrements the doorbell
  counter") — ``batch_size > 1`` drains up to that many items per QWAIT;
- **in-order mode** (Section III-B: for flow-stateful applications,
  "lines 18 and 19 should be swapped") — ``in_order=True`` finishes
  processing before RECONSIDER, forbidding intra-queue concurrency;
- **work stealing** (Section III-B, deferred future work for NUMA) —
  ``work_stealing=True`` lets a core whose local ready set is empty pull
  a QID from a remote cluster's ready set at an inter-socket penalty.
"""

from __future__ import annotations

from heapq import heappush
from typing import List, Optional

from repro.core.accelerator import HyperPlaneAccelerator
from repro.core.ready_set import HardwareReadySet
from repro.sdp.config import QWAIT_PATH_INSTRUCTIONS, USEFUL_TASK_IPC
from repro.sdp.spinning import DEQUEUE_PATH_INSTRUCTIONS  # same path as spinning's
from repro.sdp.system import Cluster, DataPlaneSystem

# A halt shorter than this does not reach C1 (entry takes time), so it
# pays no wake-up penalty in the power-optimised mode.
C1_RESIDENCY_MIN_SECONDS = 1.0e-6

# Extra cycles to fetch a QID from a remote socket's ready set
# (inter-socket hop, ~100 ns at 3 GHz).
STEAL_PENALTY_CYCLES = 300


class HyperPlaneCore:
    """One QWAIT-driven data-plane core bound to a cluster.

    The core is a chain of plain callbacks, not a simulator process. A
    batch-1 request is five steps, each ending after a cycle cost: QWAIT
    (select, or halt until woken), VERIFY (verify, dequeue, run the
    dequeue hooks), the dequeue's return, RECONSIDER, and the service
    end. The schedule and float arithmetic are the generator loop's,
    kept in ``tests/oracles/cores.py`` and pinned bit for bit by
    ``tests/test_core_fastpath.py``.

    A step is skipped, its successor pushed at the time the chained
    additions give, only if it would be the next event dispatched (all
    other pending events are later) within the run bound, so nothing
    else runs in the skipped span (``docs/performance.md``, "Core fast
    path"). Rule A skips the QWAIT and dequeue returns, which change
    only this core's ``CoreActivity``. Rule B, on a single-core cluster
    without stealing or in-order mode, runs RECONSIDER at the dequeue
    instant. The dequeue itself never moves.
    """

    __slots__ = (
        "system",
        "accelerator",
        "core_id",
        "cluster",
        "batch_size",
        "in_order",
        "work_stealing",
        "activity",
        "spurious_filtered",
        "steals",
        "servicing",
        "_sim",
        "_heap",
        "_freq",
        "_ready_set",
        "_qwait_base",
        "_verify_cycles",
        "_verify_s",
        "_dequeue_cycles",
        "_reconsider_cycles",
        "_reconsider_s",
        "_stall",
        "_doorbell_update",
        "_queues",
        "_hooks",
        "_solo",
        "_wake_penalty",
        "_halt_start",
    )

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
        # The QID this core holds between its QWAIT and its RECONSIDER.
        self.servicing: Optional[int] = None
        # Per-request constants, hoisted once: costs are fixed at build
        # time, and the hook list is appended to in place, never replaced.
        sim = system.sim
        self._sim = sim
        self._heap = sim._heap
        freq = system.clock.frequency_hz
        self._freq = freq
        cost_model = system.cost_model
        ready_set = accelerator.ready_set_of(cluster)
        self._ready_set = ready_set
        # A hardware ready set selects in constant time; a software one
        # is costed by its ready count at each select (None: ask it).
        self._qwait_base = (
            cost_model.qwait + ready_set.selection_cycles(system.clock)
            if isinstance(ready_set, HardwareReadySet)
            else None
        )
        self._verify_cycles = cost_model.qwait_verify
        self._verify_s = cost_model.qwait_verify / freq
        self._dequeue_cycles = cost_model.dequeue
        self._reconsider_cycles = cost_model.qwait_reconsider
        self._reconsider_s = cost_model.qwait_reconsider / freq
        self._stall = system.task_data_stall
        self._doorbell_update = cost_model.doorbell_update
        self._queues = system.queues
        self._hooks = system.on_dequeue_hooks
        self._solo = cluster.num_cores == 1 and not in_order
        self._wake_penalty = 0.0
        self._halt_start = 0.0
        # The first QWAIT takes the slot the generator core's spawn took.
        sim.schedule(0.0, self._qwait)

    def _push(self, when: float, callback, *args) -> None:
        """Schedule a step at ``when`` (never before now)."""
        sim = self._sim
        heappush(self._heap, (when, sim._sequence, callback, args))
        sim._sequence += 1

    # A step at time t may be skipped when ``t <= sim._until`` and every
    # pending event is later than t (``not heap or heap[0][0] > t``):
    # then it would be the next event dispatched, within this run. The
    # check is inlined where a step is chosen; it runs twice per request.

    # -- QWAIT ---------------------------------------------------------------

    def _qwait(self, _value=None) -> None:
        """QWAIT: take the next ready QID per the policy, or halt."""
        qid = self._ready_set.select_and_take()
        steal = 0.0
        if qid is None:
            if self.work_stealing:
                qid = self.accelerator.qwait_steal(self.cluster)
            if qid is None:
                event = self.accelerator.halt(self.cluster, self.core_id)
                self._halt_start = self._sim._now
                event.add_callback(self._woken)
                return
            self.steals += 1
            steal = STEAL_PENALTY_CYCLES
        # The ready bit is consumed from here until RECONSIDER runs:
        # the queue is "held" by this core for invariant purposes.
        self.servicing = qid
        base = self._qwait_base
        if base is None:
            system = self.system
            base = system.cost_model.qwait + self._ready_set.selection_cycles(
                system.clock
            )
        qwait_cycles = base + self._wake_penalty + steal
        self._wake_penalty = 0.0
        sim = self._sim
        t1 = sim._now + qwait_cycles / self._freq
        heap = self._heap
        if t1 <= sim._until and (not heap or heap[0][0] > t1):
            # Rule A: skip the QWAIT return.
            activity = self.activity
            activity.busy_cycles += qwait_cycles
            activity.useful_instructions += QWAIT_PATH_INSTRUCTIONS
            heappush(heap, (t1 + self._verify_s, sim._sequence, self._verify, ()))
        else:
            heappush(heap, (t1, sim._sequence, self._qwait_return, (qwait_cycles,)))
        sim._sequence += 1

    def _woken(self, _qid) -> None:
        """A doorbell activation woke this halted core: account the halt."""
        now = self._sim._now
        halted = (now - self._halt_start) * self._freq
        activity = self.activity
        activity.halted_cycles += halted
        activity.wakeups += 1
        system = self.system
        if (
            system.config.power_optimized
            and now - self._halt_start >= C1_RESIDENCY_MIN_SECONDS
        ):
            activity.c1_cycles += halted
            self._wake_penalty = float(system.cost_model.c1_wakeup)
        self._qwait()

    def _qwait_return(self, qwait_cycles: float) -> None:
        """QWAIT returned; VERIFY follows."""
        activity = self.activity
        activity.busy_cycles += qwait_cycles
        activity.useful_instructions += QWAIT_PATH_INSTRUCTIONS
        self._push(self._sim._now + self._verify_s, self._verify)

    # -- QWAIT-VERIFY, dequeue, QWAIT-RECONSIDER -------------------------------

    def _verify(self) -> None:
        """QWAIT-VERIFY, then dequeue (a single item or a batch)."""
        activity = self.activity
        activity.busy_cycles += self._verify_cycles
        qid = self.servicing
        accelerator = self.accelerator
        if not accelerator.qwait_verify(qid):
            self.spurious_filtered += 1
            self.system.metrics.spurious_wakeups += 1
            self.servicing = None
            self._qwait()
            return
        sim = self._sim
        now = sim._now
        queue = self._queues[qid]
        if self.batch_size == 1:
            items = [queue.dequeue(now)]
        else:
            take = min(self.batch_size, len(queue))
            items = [queue.dequeue(now) for _ in range(take)]
        hooks = self._hooks
        if hooks:
            for _ in items:
                for hook in hooks:
                    hook(qid)
        dequeue_cycles = self._dequeue_cycles * len(items)
        t3 = now + dequeue_cycles / self._freq
        heap = self._heap
        if self._solo and not accelerator.work_stealing_enabled:
            t4 = t3 + self._reconsider_s
            if t4 <= sim._until and (not heap or heap[0][0] > t4):
                # Rule B: skip the dequeue return, RECONSIDER now, and
                # start the first item's service at t4.
                activity.busy_cycles += dequeue_cycles
                activity.busy_cycles += self._reconsider_cycles
                accelerator.qwait_reconsider(qid)
                self.servicing = None
                self._serve(items, 0, t4)
                return
        if t3 <= sim._until and (not heap or heap[0][0] > t3):
            # Rule A: skip the dequeue return.
            self._dequeue_return(items, dequeue_cycles, t3)
        else:
            self._push(t3, self._dequeue_return, items, dequeue_cycles)

    def _dequeue_return(
        self, items: list, dequeue_cycles: float, now: Optional[float] = None
    ) -> None:
        """The dequeue returned (at ``now`` when skipped): RECONSIDER next,
        or process first in in-order mode."""
        self.activity.busy_cycles += dequeue_cycles
        if now is None:
            now = self._sim._now
        if self.in_order:
            # Flow-stateful mode: finish processing before the queue
            # may be handed to another core (lines 18/19 swapped).
            self._serve(items, 0, now)
        else:
            self._push(now + self._reconsider_s, self._reconsider, items)

    def _reconsider(self, items: list) -> None:
        """QWAIT-RECONSIDER: re-arm (empty) or re-activate the queue."""
        self.activity.busy_cycles += self._reconsider_cycles
        self.accelerator.qwait_reconsider(self.servicing)
        self.servicing = None
        if self.in_order:
            self._qwait()
        else:
            self._serve(items, 0, self._sim._now)

    # -- process -----------------------------------------------------------------

    def _serve(self, items: list, index: int, start: float) -> None:
        """Start serving ``items[index]`` at ``start``."""
        freq = self._freq
        service_cycles = items[index].service_time * freq + self._stall
        tail = service_cycles + self._doorbell_update
        sim = self._sim
        args = (items, index, service_cycles, tail)
        heappush(self._heap, (start + tail / freq, sim._sequence, self._served, args))
        sim._sequence += 1

    def _served(
        self, items: list, index: int, service_cycles: float, tail: float
    ) -> None:
        """The item finished: complete it, then serve the next or QWAIT."""
        self.system.complete(items[index])
        activity = self.activity
        activity.busy_cycles += tail
        activity.useful_instructions += (
            service_cycles * USEFUL_TASK_IPC + DEQUEUE_PATH_INSTRUCTIONS
        )
        activity.tasks += 1
        index += 1
        if index < len(items):
            self._serve(items, index, self._sim._now)
        elif self.in_order:
            self._push(self._sim._now + self._reconsider_s, self._reconsider, items)
        else:
            self._qwait()


def build_hyperplane(
    system: DataPlaneSystem,
    policy: str = "rr",
    weights=None,
    software_ready_set: bool = False,
    batch_size: int = 1,
    in_order: bool = False,
    work_stealing: bool = False,
) -> tuple:
    """Attach an accelerator and start one HyperPlane core per config'd core.

    Returns ``(accelerator, cores)``.
    """
    accelerator = HyperPlaneAccelerator(
        system,
        policy=policy,
        weights=weights,
        software_ready_set=software_ready_set,
    )
    accelerator.work_stealing_enabled = work_stealing
    cores: List[HyperPlaneCore] = []
    for cluster in system.clusters:
        for core_id in cluster.plan.core_ids:
            cores.append(
                HyperPlaneCore(
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
