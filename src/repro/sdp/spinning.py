"""The spin-polling data plane (the paper's baseline).

Each data-plane core iterates over its cluster's queue heads at full
tilt. The simulation is event-driven, not per-poll: scans over empty
queues are costed analytically from the ready mask and the derived
empty-poll cost, and idle spinning between arrivals is fast-forwarded
(the iterator position advances by elapsed/poll-cost, modulo the queue
count). Observable behaviour — which queue is found when, at what cycle
cost, with what instruction mix — matches a per-poll simulation.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Deque

from repro.sdp.config import INSTRUCTIONS_PER_POLL, USEFUL_TASK_IPC
from repro.sdp.locality import POST_TASK_COLD_POLLS
from repro.sdp.system import Cluster, DataPlaneSystem

# Instructions on the dequeue + completion path (ring update, doorbell
# decrement, tenant doorbell write).
DEQUEUE_PATH_INSTRUCTIONS = 60


class SpinningCore:
    """One spin-polling data-plane core bound to a cluster.

    The core is a chain of plain callbacks, not a simulator process.
    Every task is a turn at T0 (find work and cost the scan), T1 (scan
    done: dequeue and start service) and T2 (service done). An idle core
    parks on the cluster's arrival pulse; :meth:`_idle` is that branch,
    and :class:`~repro.sdp.mwait.MwaitCore` overrides only it. The
    schedule, cost arithmetic and accounting are those of the generator
    loop this core replaced, kept in ``tests/oracles/cores.py`` and
    pinned bit for bit by ``tests/test_core_fastpath.py``.

    When provably unobservable, a turn collapses T1 into T0 so a task
    costs one heap event instead of two. That needs a fleet-attached
    :class:`~repro.sdp.system.FastpathContext` and a single-core
    cluster, and nothing may see the intermediate state: no dequeue
    hooks (obs/trace/closed-loop refill), no fault boundary before T2 (a
    crash between T0 and T2 must find the item still queued so the
    reference path redispatches it), T2 within the current run's bound
    (end-of-run queue state must match), and queue occupancy + in-flight
    deliveries within capacity (an enqueue racing the early dequeue must
    see the same full/not-full verdict). A standalone system cannot
    bound its producers' in-flight work, so its turns never collapse.
    """

    __slots__ = (
        "system",
        "core_id",
        "cluster",
        "activity",
        "pos",
        "_cold_polls",
        "_idle_start",
        "_sim",
        "_freq",
        "_overhead",
        "_stall",
        "_queues",
        "_n",
        "_empty_cost",
        "_idle_cost",
        "_ready_cost",
        "_llc_hit",
        "_lock",
        "_fp",
        "_hooks",
        "_deliveries",
        "_parked",
        "_local_of",
        "_heap",
    )

    def __init__(self, system: DataPlaneSystem, core_id: int, cluster: Cluster):
        self.system = system
        self.core_id = core_id
        self.cluster = cluster
        self.activity = system.metrics.activities[core_id]
        rank = cluster.plan.core_ids.index(core_id)
        # Stagger start positions so cluster cores do not scan in lockstep.
        self.pos = (rank * cluster.n) // max(1, cluster.num_cores)
        self._cold_polls = 0
        self._idle_start = 0.0
        # Per-turn constants, hoisted once. All are immutable for the
        # lifetime of the system (costs are set at build time, before
        # cores exist); the hook list and fastpath context are cached by
        # identity — both are appended to / mutated in place, never
        # replaced.
        sim = system.sim
        self._sim = sim
        self._freq = system.clock.frequency_hz
        cost_model = system.cost_model
        self._overhead = cost_model.dequeue + cost_model.doorbell_update
        self._llc_hit = cost_model.llc_hit
        self._stall = system.task_data_stall
        self._queues = cluster.queues
        self._n = cluster.n
        self._empty_cost = cluster.empty_poll_cost
        self._idle_cost = cluster.idle_poll_cost
        self._ready_cost = cluster.ready_poll_cost
        shared = cluster.num_cores > 1
        # A cluster's cores share each queue head behind one lock.
        self._lock = cluster.lock if shared else None
        # Collapsed turns and delivery pull: single-core fleet servers only.
        self._fp = None if shared else system.fastpath
        self._hooks = system.on_dequeue_hooks
        # Delivery-pull state: the rack sweep appends (delivery_time,
        # prebuilt WorkItem) pairs here instead of scheduling one enqueue
        # event per request; the core pulls everything due at each turn.
        self._deliveries: Deque[tuple] = deque()
        self._parked = False
        self._local_of = cluster.local_of
        # Direct heap access for the collapsed-turn T2 event: T2 > now
        # always holds (scan and service are positive), so schedule_at's
        # past-time guard can be skipped on this call site.
        self._heap = sim._heap
        # The first turn takes the slot the generator core's spawn took,
        # so the two schedules match event for event.
        sim.schedule(0.0, self._turn)

    def _turn(self, _value=None) -> None:
        """T0: find the next ready queue, or go idle.

        The scan, its cold-poll surcharge and the clock conversions are
        inlined here with the generator core's arithmetic (and operation
        order, so results match it bit for bit); this is the single
        hottest callback in a run.
        """
        cluster = self.cluster
        sim = self._sim
        deliveries = self._deliveries
        if deliveries and deliveries[0][0] <= sim._now:
            # Pull every due delivery into its ring. The producer-side
            # effects of TaskQueue.enqueue + the doorbell write hook are
            # inlined: ring append, queue stats, doorbell count, ready
            # bit. No arrival pulse is needed — this core (the cluster's
            # only one) is awake, so the reference's waiter check is
            # vacuously false. Pull order is sweep dispatch order and
            # per-core delivery times are non-decreasing (one link, FIFO
            # serialisation), so ring FIFO order matches the reference.
            now = sim._now
            local_of = self._local_of
            queues = self._queues
            bits = 0
            count = 0
            while deliveries and deliveries[0][0] <= now:
                item = deliveries.popleft()[1]
                local = local_of[item.qid]
                queue = queues[local]
                ring = queue._items
                ring.append(item)
                stats = queue.stats
                stats.enqueued += 1
                depth = len(ring)
                if depth > stats.max_depth:
                    stats.max_depth = depth
                queue.doorbell._count += 1
                bits |= 1 << local
                count += 1
            cluster.ready_mask |= bits
            self._fp.pending_deliveries -= count
        mask = cluster.ready_mask
        if not mask:
            self._idle()
            return
        # The next ready queue at or after pos, circularly.
        pos = self.pos
        ahead = mask >> pos
        if ahead:
            empty_polls = (ahead & -ahead).bit_length() - 1
            local_index = pos + empty_polls
        else:
            behind = mask & ((1 << pos) - 1)
            local_index = (behind & -behind).bit_length() - 1
            empty_polls = self._n - pos + local_index
        # Scan cost: the first polls after a task may find their lines
        # evicted by the task's data (L1 pollution) and cost at least an
        # LLC hit.
        empty_cost = self._empty_cost
        base = empty_polls * empty_cost
        cold = self._cold_polls
        if cold and empty_cost < self._llc_hit:
            spent = empty_polls if empty_polls < cold else cold
            base += spent * (self._llc_hit - empty_cost)
            self._cold_polls = cold - spent
        scan = base + self._ready_cost
        freq = self._freq
        t1 = sim._now + scan / freq
        fastpath = self._fp
        if fastpath is not None and not self._hooks:
            queue = self._queues[local_index]
            items = queue._items
            if items:
                service_cycles = items[0].service_time * freq + self._stall
                overhead = self._overhead
                t2 = t1 + (service_cycles + overhead) / freq
                if (
                    t2 <= sim._until
                    and len(items) + fastpath.pending_deliveries <= queue.capacity
                    and (
                        not fastpath._fault_times
                        or fastpath.next_boundary_after(sim._now) >= t2
                    )
                ):
                    # Collapsed turn: dequeue now (timestamped T1), one
                    # event at T2. The scan accounting lands here instead
                    # of T1 — equivalent, since only end-of-run totals
                    # are observable on this gate-clear path.
                    # TaskQueue.dequeue inlined: consumer_decrement's
                    # underflow guard cannot trip (the ring is non-empty,
                    # so the doorbell count is at least 1).
                    queue.doorbell._count -= 1
                    item = items.popleft()
                    item.dequeue_time = t1
                    queue.stats.dequeued += 1
                    if not items:
                        # refresh_ready: the bit was set (we found it in
                        # the mask); only the now-empty case changes it.
                        cluster.ready_mask = mask & ~(1 << local_index)
                    activity = self.activity
                    activity.busy_cycles += scan
                    activity.useless_instructions += (
                        (empty_polls + 1) * INSTRUCTIONS_PER_POLL
                    )
                    heappush(
                        self._heap,
                        (
                            t2,
                            sim._sequence,
                            self._finish,
                            (item, local_index, service_cycles, overhead),
                        ),
                    )
                    sim._sequence += 1
                    return
        sim.schedule_at(t1, self._after_scan, local_index, empty_polls, scan)

    def _idle(self) -> None:
        """Nothing ready anywhere: spin until the next arrival pulse."""
        sim = self._sim
        self._idle_start = sim._now
        self._parked = True
        self.cluster._arrival_event.add_callback(self._wake)
        deliveries = self._deliveries
        if deliveries:
            # Nothing ready and no producers will ring the doorbell
            # for pulled traffic: self-schedule the wake-up at the
            # head delivery instant (same timestamp the reference's
            # arrival pulse would fire at).
            sim.schedule_at(deliveries[0][0], self._pull_wake)

    def _wake(self, _value) -> None:
        """Arrival pulse: account the idle spin, fast-forward, re-scan."""
        if not self._parked:
            # A stale pulse (the pull wake-up beat it to the same
            # instant, or vice versa): the accounting below would add an
            # exactly-zero idle span, so skipping is bit-neutral.
            return
        self._parked = False
        idle_cycles = (self._sim._now - self._idle_start) * self._freq
        # With no traffic at all, the polled lines stay resident: idle
        # spinning runs at the cheap (high-IPC) poll cost.
        polls = idle_cycles / self._idle_cost
        activity = self.activity
        activity.busy_cycles += idle_cycles
        activity.useless_instructions += polls * INSTRUCTIONS_PER_POLL
        self.pos = (self.pos + int(polls)) % self._n
        self._turn()

    def _pull_wake(self, _value=None) -> None:
        """Self-scheduled wake at the head pulled-delivery instant.

        Equivalent to the arrival pulse: same wake timestamp, same idle
        accounting. Removes this core's parked callback so a later real
        doorbell ring sees the same waiter state the reference would.
        """
        if not self._parked:
            return
        callbacks = self.cluster._arrival_event._callbacks
        if callbacks:
            try:
                callbacks.remove(self._wake)
            except ValueError:
                pass
        self._wake(None)

    def _after_scan(self, local_index: int, empty_polls: int, scan: float) -> None:
        """T1 (exact path): the scan completed; dequeue and start service."""
        activity = self.activity
        activity.busy_cycles += scan
        activity.useless_instructions += (empty_polls + 1) * INSTRUCTIONS_PER_POLL
        cluster = self.cluster
        queue = self._queues[local_index]
        if queue.is_empty():
            # Another cluster core drained it during our scan.
            cluster.refresh_ready(local_index)
            self.pos = (local_index + 1) % self._n
            self._turn()
            return
        overhead = self._overhead
        lock = self._lock
        if lock is not None:
            # Shared dequeue: spinlock plus queue-head line ping-pong.
            overhead += (
                lock.acquire_cost(self.core_id, cluster.num_cores)
                + self.system.cost_model.remote_transfer
            )
        sim = self._sim
        item = queue.dequeue(sim.now)
        cluster.refresh_ready(local_index)
        self.system.notify_dequeue(queue.qid)
        freq = self._freq
        service_cycles = item.service_time * freq + self._stall
        sim.schedule(
            (service_cycles + overhead) / freq,
            self._finish,
            item,
            local_index,
            service_cycles,
            overhead,
        )

    def _finish(
        self, item, local_index: int, service_cycles: float, overhead: float
    ) -> None:
        """T2: the task completed; account it and take the next turn."""
        self.system.complete(item)
        activity = self.activity
        activity.busy_cycles += service_cycles + overhead
        activity.useful_instructions += (
            service_cycles * USEFUL_TASK_IPC + DEQUEUE_PATH_INSTRUCTIONS
        )
        activity.tasks += 1
        self._cold_polls = POST_TASK_COLD_POLLS
        self.pos = (local_index + 1) % self._n
        self._turn()


def build_spinning_cores(system: DataPlaneSystem) -> list:
    """Start one :class:`SpinningCore` per configured data-plane core."""
    return [
        SpinningCore(system, core_id, cluster)
        for cluster in system.clusters
        for core_id in cluster.plan.core_ids
    ]
