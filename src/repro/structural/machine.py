"""The structural machine: cores, memory hierarchy, queues, producers.

Core id convention: producers occupy ids ``[0, num_producers)``,
consumers (data-plane cores) the ids after them. Every memory operation
a process performs goes through the shared :class:`MemoryHierarchy`, so
latencies, invalidations, and coherence transactions are all real model
state, not charged constants.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.mem.address import AddressAllocator, CACHE_LINE_BYTES, DoorbellRegion
from repro.mem.hierarchy import MemConfig, MemoryHierarchy
from repro.queueing.doorbell import Doorbell
from repro.queueing.taskqueue import TaskQueue, WorkItem
from repro.sdp.metrics import CoreActivity, LatencyRecorder, RunMetrics
from repro.sim.clock import Clock
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.rng import RandomStreams
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.shapes import TrafficShape, shape_by_name


class StructuralMachine:
    """A small CMP running producers + a data plane, execution-driven.

    Parameters
    ----------
    num_queues, num_producers, num_consumers:
        System shape; keep small (tens of queues) — this mode simulates
        every memory access.
    mean_service_seconds:
        Per-item processing time (deterministic here; the structural
        mode studies protocol behaviour, not service variance).
    false_sharing:
        Co-locate each queue's ring-head word on its doorbell's cache
        line. Producer ring writes then hit armed doorbell lines and
        produce genuine spurious wake-ups for QWAIT-VERIFY to filter.
    """

    def __init__(
        self,
        num_queues: int,
        num_producers: int = 1,
        num_consumers: int = 1,
        mean_service_seconds: float = 1.4e-6,
        shape: str | TrafficShape = "FB",
        seed: int = 0,
        false_sharing: bool = False,
        clock: Optional[Clock] = None,
        mem_config: Optional[MemConfig] = None,
    ):
        if num_queues <= 0 or num_producers <= 0 or num_consumers <= 0:
            raise ValueError("need at least one queue, producer, and consumer")
        self.sim = Simulator()
        self.clock = clock or Clock()
        self.streams = RandomStreams(seed)
        self.num_queues = num_queues
        self.num_producers = num_producers
        self.num_consumers = num_consumers
        self.mean_service_seconds = mean_service_seconds
        self.false_sharing = false_sharing
        self.shape = shape_by_name(shape) if isinstance(shape, str) else shape

        total_cores = num_producers + num_consumers
        if mem_config is None:
            mem_config = MemConfig(num_cores=total_cores)
        elif mem_config.num_cores < total_cores:
            raise ValueError("mem_config has fewer cores than the machine")
        self.hierarchy = MemoryHierarchy(mem_config)
        self.doorbell_region = DoorbellRegion(size_bytes=max(1 << 16, num_queues * 64))
        self.allocator = AddressAllocator(doorbell_region=self.doorbell_region)

        self.doorbells: List[Doorbell] = []
        self.queues: List[TaskQueue] = []
        self.ring_meta_addr: Dict[int, int] = {}
        self.slot_base_addr: Dict[int, int] = {}
        for qid in range(num_queues):
            db_addr = self.doorbell_region.allocate()
            doorbell = Doorbell(qid, db_addr)
            self.doorbells.append(doorbell)
            self.queues.append(TaskQueue(qid, doorbell, capacity=4096))
            if false_sharing:
                # Ring head shares the doorbell's line (offset +8).
                self.ring_meta_addr[qid] = db_addr + 8
            else:
                self.ring_meta_addr[qid] = self.allocator.allocate(8)
            self.slot_base_addr[qid] = self.allocator.allocate(64 * CACHE_LINE_BYTES)
        # Doorbell addresses indexed by qid, for batched polling scans.
        self.doorbell_addrs: List[int] = [db.address for db in self.doorbells]

        self.metrics = RunMetrics(
            latency=LatencyRecorder(),
            activities=[CoreActivity() for _ in range(total_cores)],
        )
        self._arrival_event = Event("structural.arrival")
        self._next_item_id = 0
        self.producer_processes = []
        # Observation subscribers, run in registration order: dequeue
        # hooks get (qid, measured dequeue memory cycles) at the dequeue
        # instant, completion hooks the recorded item.
        self.dequeue_hooks: List[Callable[[int, int], None]] = []
        self.completion_hooks: List[Callable[[WorkItem], None]] = []

        # Tracing: self-trace iff an enabled tracer is ambient; the
        # probe only subscribes to hooks (never schedules), so traced
        # runs stay bit-identical.
        from repro.obs.trace import get_active_tracer

        if get_active_tracer() is not None:
            from repro.obs.trace_probes import maybe_trace_structural_machine

            maybe_trace_structural_machine(self)

    # -- core id helpers -----------------------------------------------------------

    def producer_core(self, index: int) -> int:
        return index

    def consumer_core(self, index: int) -> int:
        return self.num_producers + index

    # -- arrival signalling ------------------------------------------------------------

    @property
    def arrival_event(self) -> Event:
        """Pulsed after every enqueue (consumers block on this when the
        notification mechanism itself has nothing to wait on)."""
        return self._arrival_event

    def _pulse(self) -> None:
        if self._arrival_event.waiter_count:
            stale = self._arrival_event
            self._arrival_event = Event("structural.arrival")
            self.sim.schedule(0.0, stale.trigger, None)

    # -- producers ----------------------------------------------------------------------

    def start_producers(self, total_rate: float, max_items: Optional[int] = None):
        """Spawn Poisson producers writing through the memory system."""
        per_producer = total_rate / self.num_producers
        for index in range(self.num_producers):
            rng = self.streams.stream(f"producer-{index}")
            arrivals = PoissonArrivals(per_producer, rng)
            draw_queue = self.shape.sampler(self.num_queues, rng)
            process = self.sim.spawn(
                self._produce(index, arrivals, draw_queue, max_items),
                name=f"structural-producer-{index}",
            )
            self.producer_processes.append(process)
        return self.producer_processes

    def _produce(self, index: int, arrivals, draw_queue, max_items: Optional[int]):
        core = self.producer_core(index)
        produced = 0
        while max_items is None or produced < max_items:
            yield arrivals.next_interarrival()
            qid = draw_queue()
            queue = self.queues[qid]
            slot = self.slot_base_addr[qid] + (len(queue) % 64) * CACHE_LINE_BYTES
            # 1. write the item payload into the ring slot;
            latency = self.hierarchy.write(core, slot).latency
            yield self.clock.cycles_to_seconds(latency)
            # 2. bump the ring head (may share the doorbell's line);
            latency = self.hierarchy.write(core, self.ring_meta_addr[qid]).latency
            yield self.clock.cycles_to_seconds(latency)
            # 3. ring the doorbell. The queue-state update must be atomic
            # with the GetM: the doorbell's new value becomes visible with
            # the write transaction, so a core woken by the snoop must see
            # the item. (Updating state after the latency yield would
            # strand items: VERIFY would re-arm on a still-empty queue and
            # the increment would never re-trigger the disarmed entry.)
            item = WorkItem(
                item_id=self._next_item_id,
                qid=qid,
                arrival_time=self.sim.now,
                service_time=self.mean_service_seconds,
            )
            self._next_item_id += 1
            queue.enqueue(item)
            produced += 1
            latency = self.hierarchy.write(core, queue.doorbell.address).latency
            self._pulse()
            yield self.clock.cycles_to_seconds(latency)

    # -- consumer-side memory helpers ------------------------------------------------------

    def read_doorbell(self, core: int, qid: int) -> int:
        """Cycles for ``core`` to read the queue's doorbell word."""
        return self.hierarchy.read(core, self.doorbells[qid].address).latency

    def read_doorbell_stream(self, core: int, addrs, cycle_budget=None) -> List[int]:
        """Cycles for ``core`` to read each doorbell address in ``addrs``.

        Equivalent to :meth:`read_doorbell` once per address (same
        hierarchy state and latencies), batched into a single
        :meth:`MemoryHierarchy.access_stream` call; ``cycle_budget``
        passes through (the stream may stop early, never reading more
        than the budget plus one access' worth of cycles).
        """
        return [
            result.latency
            for result in self.hierarchy.access_stream(core, addrs, cycle_budget=cycle_budget)
        ]

    def doorbells_steady(self, core: int) -> bool:
        """Whether every doorbell read by ``core`` would be a steady-state
        L1-MRU hit (see :meth:`MemoryHierarchy.all_steady_reads`)."""
        return self.hierarchy.all_steady_reads(core, self.doorbell_addrs)

    def charge_steady_doorbell_reads(self, core: int, count: int) -> None:
        """Fold in ``count`` doorbell reads proven steady by
        :meth:`doorbells_steady` (state-identical to issuing them)."""
        self.hierarchy.commit_steady_reads(core, count)

    def dequeue_memory_cycles(self, core: int, qid: int) -> int:
        """Cycles for the dequeue's memory traffic: doorbell decrement
        (write), ring head update, and the item slot read. Called once
        per dequeue; runs the dequeue hooks."""
        doorbell_addr = self.doorbells[qid].address
        total = self.hierarchy.write(core, doorbell_addr).latency
        total += self.hierarchy.write(core, self.ring_meta_addr[qid]).latency
        slot = self.slot_base_addr[qid]
        total += self.hierarchy.read(core, slot).latency
        for hook in self.dequeue_hooks:
            hook(qid, total)
        return total

    def complete(self, item: WorkItem) -> None:
        item.completion_time = self.sim.now
        self.metrics.completed += 1
        self.metrics.latency.record(self.sim.now, item.latency)
        for hook in self.completion_hooks:
            hook(item)

    def run(self, duration: float, target_completions: Optional[int] = None) -> RunMetrics:
        """Simulate; see :meth:`repro.sdp.system.DataPlaneSystem.run`."""
        deadline = self.sim.now + duration
        chunk = 2e-4
        while self.sim.now < deadline and self.sim.pending:
            self.sim.run(until=min(deadline, self.sim.now + chunk))
            if (
                target_completions is not None
                and self.metrics.latency.count >= target_completions
            ):
                break
        self.metrics.measure_end = self.sim.now
        self.hierarchy.check_invariants()
        for queue in self.queues:
            queue.check_invariants()
        return self.metrics
