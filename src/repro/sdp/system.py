"""The shared data-plane runtime: queues, clusters, producers, metrics.

:class:`DataPlaneSystem` builds one simulated system from an
:class:`~repro.sdp.config.SDPConfig`; the spinning baseline
(:mod:`repro.sdp.spinning`) and HyperPlane (:mod:`repro.core`) both run
on top of it, differing only in how cores learn about ready queues.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.mem.address import DoorbellRegion
from repro.obs.runtime import get_active_registry
from repro.obs.trace import get_active_tracer
from repro.queueing.doorbell import Doorbell
from repro.queueing.locks import SpinLock
from repro.queueing.taskqueue import TaskQueue, WorkItem
from repro.sdp.config import SDPConfig
from repro.sdp.locality import LocalityModel
from repro.sdp.metrics import CoreActivity, LatencyRecorder, RunMetrics
from repro.sdp.organizations import ClusterPlan, plan_clusters
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.rng import RandomStreams
from repro.traffic.arrivals import PoissonArrivals, load_to_rate
from repro.traffic.generator import ClosedLoopRefill, OpenLoopGenerator
from repro.traffic.shapes import shape_by_name
from repro.workloads.service import ServiceTimeModel


class FastpathContext:
    """Shared state the rack layers hand to the spinning cores.

    The fleet layers (:class:`repro.cluster.rack.Rack`, the dist worker)
    attach one of these per server system so a single-core
    :class:`repro.sdp.spinning.SpinningCore` can prove its collapsed
    dequeue->complete turn is unobservable:

    * ``pending_deliveries`` — requests already steered across the link
      but not yet enqueued. Bounds the queue occupancy the reference
      path could reach mid-turn (capacity/rejection equivalence).
    * fault boundaries — absolute times at which the fault controller
      mutates this server (crash/restart/slow/degrade apply *and*
      revert). A collapsed turn must not span one: the reference path
      would observe the still-queued item (crash backlog redispatch).
    """

    __slots__ = ("pending_deliveries", "_fault_times", "_fault_index")

    def __init__(self):
        self.pending_deliveries = 0
        self._fault_times: List[float] = []
        self._fault_index = 0

    def set_fault_times(self, times: List[float]) -> None:
        """Install the sorted absolute fault apply/revert times."""
        self._fault_times = times
        self._fault_index = 0

    def next_boundary_after(self, now: float) -> float:
        """The first fault boundary strictly after ``now`` (else ``inf``).

        Boundaries at exactly ``now`` have already fired (controller
        events are scheduled at run setup, so they sort before core
        turns at equal time); the cursor only ever advances — callers
        query with non-decreasing ``now``.
        """
        times = self._fault_times
        index = self._fault_index
        limit = len(times)
        while index < limit and times[index] <= now:
            index += 1
        self._fault_index = index
        return times[index] if index < limit else float("inf")


class Cluster:
    """A set of cores jointly serving a set of queues.

    Tracks a *ready mask* (bit per local queue = non-empty) so scans can
    be costed analytically instead of polling queue objects one by one,
    and an arrival pulse that idle cores wait on (the simulation-level
    stand-in for "the core notices new work on its next poll").
    """

    def __init__(self, sim: Simulator, plan: ClusterPlan, queues: List[TaskQueue], lock: SpinLock):
        self.sim = sim
        self.plan = plan
        self.queue_ids = list(plan.queue_ids)
        self.n = len(self.queue_ids)
        if self.n == 0:
            raise ValueError(f"cluster {plan.cluster_id} has no queues")
        self.local_of: Dict[int, int] = {qid: i for i, qid in enumerate(self.queue_ids)}
        self.queues = [queues[qid] for qid in self.queue_ids]
        self.lock = lock
        self.ready_mask = 0
        self._arrival_event = Event(f"cluster{plan.cluster_id}.arrival")
        # Filled in by the locality model at system build time.
        self.empty_poll_cost = 0.0
        self.idle_poll_cost = 0.0
        self.ready_poll_cost = 0.0

    @property
    def num_cores(self) -> int:
        return len(self.plan.core_ids)

    def notify_ready(self, qid: int) -> None:
        """Mark a queue non-empty and pulse waiting cores."""
        self.ready_mask |= 1 << self.local_of[qid]
        # waiter_count, read directly: one doorbell ring per enqueue
        # lands here.
        stale = self._arrival_event
        if stale._callbacks:
            self._arrival_event = Event(f"cluster{self.plan.cluster_id}.arrival")
            # Decouple from the producer's call stack.
            self.sim.schedule(0.0, stale.trigger, qid)

    def refresh_ready(self, local_index: int) -> None:
        """Re-derive one queue's ready bit from its actual occupancy."""
        if self.queues[local_index].is_empty():
            self.ready_mask &= ~(1 << local_index)
        else:
            self.ready_mask |= 1 << local_index


class DataPlaneSystem:
    """One simulated data plane: the substrate both designs share.

    Pass ``sim`` to place several systems on one shared timeline (the
    cluster layer composes a rack of servers this way); by default each
    system owns a private simulator.
    """

    def __init__(self, config: SDPConfig, sim: Optional[Simulator] = None):
        self.config = config
        self.sim = Simulator() if sim is None else sim
        self.clock = config.clock
        self.streams = RandomStreams(config.seed)
        self.shape = shape_by_name(config.shape)
        self.cost_model = config.cost_model
        self.locality = LocalityModel(config.cost_model)

        self.doorbell_region = DoorbellRegion(
            size_bytes=max(1 << 20, config.num_queues * 64)
        )
        self.doorbells = [
            Doorbell(qid, self.doorbell_region.allocate())
            for qid in range(config.num_queues)
        ]
        self.queues = [
            TaskQueue(qid, self.doorbells[qid], config.queue_capacity)
            for qid in range(config.num_queues)
        ]

        self.service_model = ServiceTimeModel(
            config.workload, self.streams.stream("service"), scv=config.service_scv
        )

        hot_ids = self.shape.hot_queue_ids(config.num_queues)
        plans = plan_clusters(
            config.num_queues,
            config.num_cores,
            config.cluster_cores,
            hot_queue_ids=hot_ids,
            imbalance=config.imbalance,
        )
        cm = config.cost_model
        self.clusters: List[Cluster] = []
        self.cluster_of_queue: Dict[int, Cluster] = {}
        for plan in plans:
            lock = SpinLock(
                uncontended_cycles=cm.lock_uncontended,
                transfer_cycles=cm.remote_transfer,
            )
            cluster = Cluster(self.sim, plan, self.queues, lock)
            cluster.empty_poll_cost = self.locality.empty_poll_cost(
                cluster.n, config.num_queues
            )
            cluster.idle_poll_cost = self.locality.empty_poll_cost(
                cluster.n, config.num_queues, idle=True
            )
            # A ready queue head was just written by a producer core: the
            # consumer's read is a dirty remote transfer.
            cluster.ready_poll_cost = cm.remote_transfer + cm.poll_loop_overhead
            self.clusters.append(cluster)
            for qid in plan.queue_ids:
                self.cluster_of_queue[qid] = cluster

        self.task_data_stall = self.locality.task_data_stall_cycles(config.num_queues)

        # Set (pre-core-build) by the fleet layers that track in-flight
        # deliveries and fault boundaries; None for standalone systems,
        # whose spinning cores therefore never collapse a turn.
        self.fastpath: Optional["FastpathContext"] = None

        # Doorbell plumbing: ready-mask upkeep + any extra subscribers
        # (HyperPlane's monitoring set registers here).
        self.doorbell_write_hooks: List[Callable[[Doorbell], None]] = []
        for doorbell in self.doorbells:
            doorbell.add_write_hook(self._on_doorbell_write)

        self.on_dequeue_hooks: List[Callable[[int], None]] = []
        # Completion subscribers, run in registration order after the
        # item is recorded: span probes, fleet accounting, the tenant
        # and transmit sides, functional payloads. While they run,
        # ``last_latency`` is the completing item's latency: the float
        # the recorder stored, so a hook that stores it again shares it.
        self.completion_hooks: List[Callable[[WorkItem], None]] = []
        self.last_latency = 0.0
        self.metrics = RunMetrics(
            latency=LatencyRecorder(),
            activities=[CoreActivity() for _ in range(config.num_cores)],
        )
        self.generators: List[OpenLoopGenerator] = []
        self.refill: Optional[ClosedLoopRefill] = None

        # Observability: self-instrument iff an enabled registry is
        # ambient (repro.obs.runtime). With none active — the default —
        # this is a single None check and no hook is installed.
        self._obs = get_active_registry()
        self._obs_events_reported = 0
        if self._obs is not None:
            from repro.obs.probes import instrument_system

            instrument_system(self._obs, self)

        # Tracing: self-trace iff an enabled tracer is ambient
        # (repro.obs.trace). Same contract as metrics — with none
        # active this is one None check and no hook is installed.
        self._trace_probe = None
        if get_active_tracer() is not None:
            from repro.obs.trace_probes import maybe_trace_system

            self._trace_probe = maybe_trace_system(self)

    # -- plumbing -----------------------------------------------------------

    def _on_doorbell_write(self, doorbell: Doorbell) -> None:
        qid = doorbell.qid
        self.cluster_of_queue[qid].notify_ready(qid)
        hooks = self.doorbell_write_hooks
        if hooks:
            for hook in hooks:
                hook(doorbell)

    def notify_dequeue(self, qid: int) -> None:
        """Called by cores after each dequeue (drives closed-loop refill)."""
        hooks = self.on_dequeue_hooks
        if hooks:
            for hook in hooks:
                hook(qid)

    def complete(self, item: WorkItem) -> None:
        """Record a finished work item, then run the completion hooks."""
        now = self.sim._now
        item.completion_time = now
        metrics = self.metrics
        metrics.completed += 1
        # LatencyRecorder.record inlined: it runs once per completion on
        # every path, standalone and rack alike.
        latency = now - item.arrival_time
        if latency < 0:
            raise ValueError("negative latency")
        recorder = metrics.latency
        if now >= recorder.warmup_time:
            recorder._samples.append(latency)
        self.last_latency = latency
        hooks = self.completion_hooks
        if hooks:
            for hook in hooks:
                hook(item)

    # -- traffic ------------------------------------------------------------

    def attach_open_loop(
        self,
        load: Optional[float] = None,
        rate: Optional[float] = None,
        max_items: Optional[int] = None,
    ) -> OpenLoopGenerator:
        """Attach a Poisson producer at a utilisation or absolute rate."""
        if (load is None) == (rate is None):
            raise ValueError("specify exactly one of load / rate")
        if rate is None:
            rate = load_to_rate(
                load, self.config.workload.mean_service_seconds, self.config.num_cores
            )
        generator = OpenLoopGenerator(
            sim=self.sim,
            queues=self.queues,
            shape=self.shape,
            arrivals=PoissonArrivals(rate, self.streams.stream("arrivals")),
            service_sampler=self.service_model,
            rng=self.streams.stream("destinations"),
            max_items=max_items,
        )
        self.generators.append(generator)
        return generator

    def attach_closed_loop(self, depth: int = 4) -> ClosedLoopRefill:
        """Keep hot queues saturated for peak-throughput measurement."""
        if self.refill is not None:
            raise RuntimeError("closed loop already attached")
        self.refill = ClosedLoopRefill(
            sim=self.sim,
            queues=self.queues,
            shape=self.shape,
            service_sampler=self.service_model,
            depth=depth,
        )
        self.on_dequeue_hooks.append(self.refill.notify_dequeue)
        return self.refill

    # -- running ------------------------------------------------------------

    def run(
        self,
        duration: float,
        warmup: float = 0.0,
        target_completions: Optional[int] = None,
        chunk: float = 2e-3,
    ) -> RunMetrics:
        """Simulate for ``duration`` seconds (after ``warmup``).

        Stops early once ``target_completions`` post-warm-up samples are
        collected. Returns the populated metrics.
        """
        if warmup < 0 or duration <= 0:
            raise ValueError("need positive duration, non-negative warmup")
        self.metrics.latency.warmup_time = self.sim.now + warmup
        self.metrics.measure_start = self.sim.now + warmup
        deadline = self.sim.now + warmup + duration
        while self.sim.now < deadline and self.sim.pending:
            self.sim.run(until=min(deadline, self.sim.now + chunk))
            if (
                target_completions is not None
                and self.metrics.latency.count >= target_completions
            ):
                break
        self.metrics.measure_end = self.sim.now
        self.metrics.generated = sum(g.generated for g in self.generators)
        if self.refill is not None:
            self.metrics.generated += self.refill.generated
        self.metrics.dropped = sum(g.dropped for g in self.generators)
        if self._obs is not None:
            delta = self.sim.events_dispatched - self._obs_events_reported
            self._obs_events_reported = self.sim.events_dispatched
            self._obs.counter(
                "sim.events_total", help="events retired across all runs"
            ).inc(delta)
        return self.metrics

    def check_invariants(self) -> None:
        """Doorbell/ring agreement on every queue."""
        for queue in self.queues:
            queue.check_invariants()
