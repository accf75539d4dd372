"""Tenant-side delivery: steps (2c)-(3) of the paper's Fig. 2.

The main simulations measure latency at data-plane completion (step 2b);
this module models the rest of the receive path: the SDP writes/copies
the processed item to the tenant-side queue (2c — skipped for in-place
processing), rings the tenant doorbell (2d), and the tenant core —
which monitors only its own one-or-few queues, so per the paper it can
use an MWAIT-style wait — wakes, dequeues, and consumes the item (3).

Attach with :func:`attach_tenant_side`; end-to-end (device-to-tenant)
latency lands in ``TenantSide.tenant_latency``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.queueing.doorbell import Doorbell
from repro.queueing.taskqueue import TaskQueue, WorkItem
from repro.sdp.metrics import LatencyRecorder
from repro.sdp.system import DataPlaneSystem
from repro.sim.events import Event

# MWAIT-style wake-up on the tenant core (same class as the data-plane
# MWAIT baseline's monitor).
TENANT_WAKEUP_CYCLES = 300
# Tenant-side consumption of one item (application hand-off).
TENANT_PROCESS_CYCLES = 200
# Copying a work item into the tenant queue when not processed in place
# (~1.5 KB at cache-line granularity through the LLC).
COPY_CYCLES = 1200


class Tenant:
    """One tenant: a queue pair endpoint plus a consuming (virtual) core."""

    def __init__(self, system: DataPlaneSystem, tenant_id: int, base_address: int):
        self.system = system
        self.tenant_id = tenant_id
        self.doorbell = Doorbell(tenant_id, base_address)
        self.queue = TaskQueue(tenant_id, self.doorbell, capacity=65536)
        self.delivered = 0
        self.wakeups = 0
        self._waiter: Optional[Event] = None
        self.latency = LatencyRecorder()
        self.process = system.sim.spawn(self._run(), name=f"tenant-{tenant_id}")

    def enqueue(self, item: WorkItem) -> None:
        """SDP-side: place the item and ring the tenant doorbell (2d)."""
        # Re-key the item for the tenant queue; keep its original arrival
        # time so end-to-end latency is device arrival -> tenant hand-off.
        delivered = WorkItem(
            item_id=item.item_id,
            qid=self.tenant_id,
            arrival_time=item.arrival_time,
            service_time=0.0,
            payload=item,
        )
        self.queue.enqueue(delivered)
        if self._waiter is not None:
            waiter, self._waiter = self._waiter, None
            self.system.sim.schedule(0.0, waiter.trigger, None)

    def _run(self):
        sim = self.system.sim
        clock = self.system.clock
        while True:
            if self.queue.is_empty():
                # One queue to watch: MWAIT on its doorbell (Section II-A).
                if self._waiter is not None:
                    raise RuntimeError("tenant core already waiting")
                event = Event(f"tenant-{self.tenant_id}.mwait")
                self._waiter = event
                yield event
                yield clock.cycles_to_seconds(TENANT_WAKEUP_CYCLES)
                self.wakeups += 1
                continue
            item = self.queue.dequeue(sim.now)
            yield clock.cycles_to_seconds(TENANT_PROCESS_CYCLES)
            self.delivered += 1
            self.latency.record(sim.now, sim.now - item.arrival_time)


class TenantSide:
    """Routes data-plane completions to tenants and aggregates metrics."""

    def __init__(self, system: DataPlaneSystem, num_tenants: int, in_place: bool):
        if num_tenants <= 0:
            raise ValueError("need at least one tenant")
        self.system = system
        self.in_place = in_place
        base = 0x7000_0000
        self.tenants: List[Tenant] = [
            Tenant(system, tid, base + tid * 64) for tid in range(num_tenants)
        ]
        # Device queues map to tenants round-robin (each tenant owns a
        # slice of the device-side queue pairs).
        self._tenant_of_qid: Dict[int, Tenant] = {
            qid: self.tenants[qid % num_tenants]
            for qid in range(system.config.num_queues)
        }
        system.completion_hooks.append(self._on_complete)

    def _on_complete(self, item: WorkItem) -> None:
        tenant = self._tenant_of_qid[item.qid]
        if self.in_place:
            tenant.enqueue(item)
        else:
            # Step (2c): the copy into the tenant address space finishes
            # COPY_CYCLES later; only then does the doorbell ring.
            delay = self.system.clock.cycles_to_seconds(COPY_CYCLES)
            self.system.sim.schedule(delay, tenant.enqueue, item)

    @property
    def tenant_latency(self) -> LatencyRecorder:
        """Merged device-to-tenant latency across tenants."""
        merged = LatencyRecorder()
        for tenant in self.tenants:
            merged._samples.extend(tenant.latency._samples)
        return merged

    @property
    def delivered(self) -> int:
        return sum(t.delivered for t in self.tenants)


def attach_tenant_side(
    system: DataPlaneSystem, num_tenants: int = 4, in_place: bool = True
) -> TenantSide:
    """Model the full Fig. 2 receive path on an existing system.

    Call *before* running the simulation. ``in_place=False`` adds the
    (2c) copy stage; in-place transport hands the buffer over directly.
    """
    return TenantSide(system, num_tenants, in_place)
