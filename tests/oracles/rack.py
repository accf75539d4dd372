"""The reference rack: the original per-request cluster hot path.

This module preserves the pre-fast-path :class:`~repro.cluster.rack.Rack`
request path verbatim — one generator-driven traffic process, one heap
event per arrival, a fresh ``derive_seed`` hash per enqueue, per-server
rebuilt cumulative-weight tables — exactly as it stood before the
batched delivery sweep landed. The bookkeeping substrate the hot path
optimised in place is frozen here too: the loop-form P² estimator, the
original ``ClusterMetrics`` / ``LatencyRecorder`` recording chain, the
unslotted ``WorkItem`` / ``TaskQueue``, and the original
``DataPlaneSystem`` notify/complete plumbing, all copied verbatim from
the pre-fast-path tree, and spinning and HyperPlane servers run the
generator cores of :mod:`tests.oracles.cores`, not the package's
callback cores. The
oracle therefore shares *no* hot-path code with the fast rack beyond
the simulator core and the workload/memory models — a
micro-optimisation that changes any observable bit shows up as a
differential failure, not as a change both legs silently agree on.
The oracle runs unobserved: it attaches no metrics or span probes,
whatever registry or tracer is ambient.

It exists for one purpose: to be the differential-fuzz oracle the fast
rack is checked against (mirroring :mod:`tests.oracles.mem`).
``tests/test_cluster_fastpath.py`` runs both racks over the
{notification} x {balancer} x {fault} x {fleet size} matrix (plus
multi-core spinning servers) and asserts
identical :class:`~repro.cluster.metrics.ClusterMetrics` fingerprints,
per-server counters, and RNG stream states.

Nothing outside the tests (and the ``cluster_spin16`` /
``cluster_grid_row`` gates in ``benchmarks/perf/gates.py``, which report
their measured speedup against this oracle) should import this module;
it is deliberately unoptimised and must stay that way — every
micro-change to the fast path is only trustworthy because this copy did
not move.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.cluster.balancer import AllServersDownError, LoadBalancer
from repro.cluster.config import (
    STREAM_ARRIVALS,
    STREAM_BALANCER,
    STREAM_FAULTS,
    STREAM_FLOWS,
    ClusterConfig,
)
from repro.cluster.controller import ClusterController
from repro.cluster.faults import fault_schedule
from repro.cluster.link import Link
from repro.cluster.rack import TWO_POW_64, flow_weights
from repro.mem.address import DoorbellRegion
from repro.queueing.doorbell import Doorbell
from repro.queueing.locks import SpinLock
from repro.queueing.taskqueue import QueueFullError, WorkItem
from repro.mem.costmodel import empty_poll_cost_curve, interpolate_poll_cost
from repro.mem.hierarchy import MemConfig
from repro.sdp.config import SDPConfig
from repro.sdp.locality import _CURVE_POINTS, LocalityModel
from repro.sdp.metrics import MICROSECOND, CoreActivity, LatencyRecorder, RunMetrics
from repro.sdp.organizations import plan_clusters
from repro.sdp.system import Cluster, DataPlaneSystem, FastpathContext
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.rng import RandomStreams, derive_seed
from repro.traffic.arrivals import PoissonArrivals, load_to_rate
from repro.traffic.generator import ClosedLoopRefill, OpenLoopGenerator
from repro.traffic.shapes import shape_by_name
from repro.workloads.service import ServiceTimeModel
from tests.oracles.cores import (
    build_reference_hyperplane,
    build_reference_spinning_cores,
)


# ---------------------------------------------------------------------------
# Frozen pre-fast-path substrate (verbatim copies; do not "optimise").
# ---------------------------------------------------------------------------


class ReferenceP2Quantile:
    """The original loop-form P² estimator (pre-unroll copy)."""

    def __init__(self, quantile: float):
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.quantile = quantile
        self._initial: List[float] = []
        # Marker heights (q), positions (n), and desired positions (n').
        self._heights: List[float] = []
        self._positions: List[int] = []
        self._desired: List[float] = []
        self._increments: List[float] = []
        self.count = 0

    def add(self, value: float) -> None:
        """Feed one observation."""
        self.count += 1
        if self._heights:
            self._update(value)
            return
        self._initial.append(value)
        if len(self._initial) == 5:
            self._initial.sort()
            p = self.quantile
            self._heights = list(self._initial)
            self._positions = [1, 2, 3, 4, 5]
            self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
            self._increments = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]

    def _update(self, value: float) -> None:
        heights = self._heights
        positions = self._positions
        # Find the cell and clamp extremes.
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = next(i for i in range(4) if heights[i] <= value < heights[i + 1])
        for i in range(cell + 1, 5):
            positions[i] += 1
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Adjust the three middle markers.
        for i in range(1, 4):
            delta = self._desired[i] - positions[i]
            if (delta >= 1 and positions[i + 1] - positions[i] > 1) or (
                delta <= -1 and positions[i - 1] - positions[i] < -1
            ):
                direction = 1 if delta >= 1 else -1
                candidate = self._parabolic(i, direction)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, direction)
                positions[i] += direction

    def _parabolic(self, i: int, direction: int) -> float:
        q, n = self._heights, self._positions
        return q[i] + direction / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + direction)
            * (q[i + 1] - q[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - direction)
            * (q[i] - q[i - 1])
            / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, direction: int) -> float:
        q, n = self._heights, self._positions
        return q[i] + direction * (q[i + direction] - q[i]) / (
            n[i + direction] - n[i]
        )

    @property
    def value(self) -> float:
        """The current quantile estimate."""
        if self._heights:
            return self._heights[2]
        if not self._initial:
            return 0.0
        ordered = sorted(self._initial)
        index = min(len(ordered) - 1, int(self.quantile * len(ordered)))
        return ordered[index]


class ReferenceLatencyRecorder:
    """The original unslotted exact latency recorder."""

    def __init__(self, warmup_time: float = 0.0):
        self.warmup_time = warmup_time
        self._samples: List[float] = []

    def record(self, now: float, latency: float) -> None:
        """Record one completion at simulated time ``now``."""
        if latency < 0:
            raise ValueError("negative latency")
        if now >= self.warmup_time:
            self._samples.append(latency)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        """Mean latency in seconds (0 if no samples)."""
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def percentile(self, p: float) -> float:
        """The p-th percentile latency in seconds (p in (0, 100))."""
        if not 0.0 < p < 100.0:
            raise ValueError("percentile must be in (0, 100)")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = p / 100.0 * (len(ordered) - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            return ordered[low]
        weight = rank - low
        return ordered[low] * (1 - weight) + ordered[high] * weight

    @property
    def mean_us(self) -> float:
        return self.mean / MICROSECOND


class ReferenceClusterMetrics:
    """The original client-observed rack metrics (per-call record path)."""

    def __init__(self, num_servers: int, warmup_time: float = 0.0):
        if num_servers <= 0:
            raise ValueError("need at least one server")
        self.num_servers = num_servers
        self.warmup_time = warmup_time
        self.latency = ReferenceLatencyRecorder(warmup_time=warmup_time)
        self._p50 = ReferenceP2Quantile(0.50)
        self._p99 = ReferenceP2Quantile(0.99)
        self._p999 = ReferenceP2Quantile(0.999)
        self.per_server_completed: List[int] = [0] * num_servers
        self.dispatched = 0
        self.lost = 0
        self.redispatched = 0
        self.rejected = 0
        self.measure_start = 0.0
        self.measure_end = 0.0

    def record(self, now: float, latency: float, server: int) -> None:
        """One client-visible completion at simulated time ``now``."""
        if now < self.warmup_time:
            return
        self.latency.record(now, latency)
        self._p50.add(latency)
        self._p99.add(latency)
        self._p999.add(latency)
        self.per_server_completed[server] += 1

    @property
    def count(self) -> int:
        return self.latency.count

    @property
    def p50_us(self) -> float:
        return self._p50.value / MICROSECOND

    @property
    def p99_us(self) -> float:
        return self._p99.value / MICROSECOND

    @property
    def p999_us(self) -> float:
        return self._p999.value / MICROSECOND

    @property
    def duration(self) -> float:
        return max(0.0, self.measure_end - self.measure_start)

    @property
    def throughput_mtps(self) -> float:
        if self.duration == 0:
            return 0.0
        return self.count / self.duration / 1e6

    @property
    def hottest_share(self) -> float:
        if self.count == 0:
            return 0.0
        return max(self.per_server_completed) / self.count

    def summary(self) -> Dict[str, float]:
        """A flat dict for experiment tables."""
        return {
            "throughput_mtps": self.throughput_mtps,
            "avg_latency_us": self.latency.mean_us,
            "p50_latency_us": self.p50_us,
            "p99_latency_us": self.p99_us,
            "p999_latency_us": self.p999_us,
            "completed": float(self.count),
            "lost": float(self.lost),
            "redispatched": float(self.redispatched),
            "rejected": float(self.rejected),
            "hottest_share": self.hottest_share,
        }

    def fingerprint(self) -> Tuple:
        """Exact values for determinism assertions (no rounding)."""
        return (
            self.count,
            self.latency.mean,
            self._p99.value,
            self._p999.value,
            self.lost,
            self.redispatched,
            tuple(self.per_server_completed),
        )


@dataclass
class ReferenceWorkItem:
    """The original (dict-backed) work item."""

    item_id: int
    qid: int
    arrival_time: float
    service_time: float
    payload: Any = None
    dequeue_time: Optional[float] = None
    completion_time: Optional[float] = None

    @property
    def latency(self) -> float:
        if self.completion_time is None:
            raise ValueError("work item not completed yet")
        return self.completion_time - self.arrival_time

    @property
    def wait(self) -> float:
        if self.dequeue_time is None:
            raise ValueError("work item not dequeued yet")
        return self.dequeue_time - self.arrival_time


@dataclass
class ReferenceQueueStats:
    """Counters for one queue (original unslotted form)."""

    enqueued: int = 0
    dequeued: int = 0
    dropped: int = 0
    max_depth: int = 0


class ReferenceTaskQueue:
    """The original bounded FIFO (pre-``__slots__``, per-call ``max``)."""

    def __init__(self, qid: int, doorbell: Doorbell, capacity: int = 4096):
        if doorbell.qid != qid:
            raise ValueError("doorbell/queue qid mismatch")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.qid = qid
        self.doorbell = doorbell
        self.capacity = capacity
        self._items: Deque[ReferenceWorkItem] = deque()
        self.stats = ReferenceQueueStats()

    def __len__(self) -> int:
        return len(self._items)

    def is_empty(self) -> bool:
        return not self._items

    def enqueue(self, item: ReferenceWorkItem, drop_on_full: bool = True) -> bool:
        """Producer-side enqueue; rings the doorbell. Returns success."""
        if item.qid != self.qid:
            raise ValueError(f"item for queue {item.qid} enqueued on queue {self.qid}")
        if len(self._items) >= self.capacity:
            if drop_on_full:
                self.stats.dropped += 1
                return False
            raise QueueFullError(f"queue {self.qid} full")
        self._items.append(item)
        self.stats.enqueued += 1
        self.stats.max_depth = max(self.stats.max_depth, len(self._items))
        self.doorbell.producer_increment()
        return True

    def dequeue(self, now: float) -> ReferenceWorkItem:
        """Consumer-side dequeue; decrements the doorbell first."""
        if not self._items:
            raise IndexError(f"dequeue from empty queue {self.qid}")
        self.doorbell.consumer_decrement()
        item = self._items.popleft()
        item.dequeue_time = now
        self.stats.dequeued += 1
        return item

    def peek_arrival_time(self) -> Optional[float]:
        return self._items[0].arrival_time if self._items else None

    def pending_items(self) -> Tuple[ReferenceWorkItem, ...]:
        return tuple(self._items)

    def check_invariants(self) -> None:
        if self.doorbell.count != len(self._items):
            raise AssertionError(
                f"queue {self.qid}: doorbell={self.doorbell.count} "
                f"ring={len(self._items)}"
            )


class ReferenceLocalityModel(LocalityModel):
    """Locality model with the original per-instance curve cache.

    Before the fast path, every server's :class:`LocalityModel` derived
    its own poll-cost curves from the structural memory hierarchy — two
    walks per server, not two per fleet. The oracle keeps that verbatim
    so the baseline pays the pre-fast-path build cost (the derived curve
    values are identical either way; only where they are cached differs).
    """

    def empty_poll_cost(
        self,
        polled_queues: int,
        total_queues: Optional[int] = None,
        idle: bool = False,
    ) -> float:
        if polled_queues <= 0:
            raise ValueError("polled_queues must be positive")
        total = total_queues if total_queues is not None else polled_queues
        resident = 1.0 if idle else round(self.llc_resident_fraction(total), 2)
        key = (resident, idle)
        curve = self._curves.get(key)
        if curve is None:
            config = MemConfig(num_cores=1) if idle else self.mem_config
            curve = empty_poll_cost_curve(
                _CURVE_POINTS,
                config,
                llc_doorbell_resident_fraction=resident,
            )
            self._curves[key] = curve
        per_line = interpolate_poll_cost(curve, self.lines_per_poll * polled_queues)
        return self.lines_per_poll * per_line + self.cost_model.poll_loop_overhead


class ReferenceCluster(Cluster):
    """Cluster with the original event-property ``notify_ready``."""

    def notify_ready(self, qid: int) -> None:
        bit = 1 << self.local_of[qid]
        self.ready_mask |= bit
        if self._arrival_event.waiter_count:
            stale = self._arrival_event
            self._arrival_event = Event(f"cluster{self.plan.cluster_id}.arrival")
            # Decouple from the producer's call stack.
            self.sim.schedule(0.0, stale.trigger, qid)


class ReferenceDataPlaneSystem(DataPlaneSystem):
    """Data-plane system on the frozen queues with original plumbing."""

    def __init__(self, config: SDPConfig, sim: Optional[Simulator] = None):
        # A frozen copy of DataPlaneSystem.__init__ that builds the
        # reference queue, cluster and locality classes (and attaches
        # no obs probes).
        self.config = config
        self.sim = Simulator() if sim is None else sim
        self.clock = config.clock
        self.streams = RandomStreams(config.seed)
        self.shape = shape_by_name(config.shape)
        self.cost_model = config.cost_model
        self.locality = ReferenceLocalityModel(config.cost_model)

        self.doorbell_region = DoorbellRegion(
            size_bytes=max(1 << 20, config.num_queues * 64)
        )
        self.doorbells = [
            Doorbell(qid, self.doorbell_region.allocate())
            for qid in range(config.num_queues)
        ]
        self.queues = [
            ReferenceTaskQueue(qid, self.doorbells[qid], config.queue_capacity)
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
            cluster = ReferenceCluster(self.sim, plan, self.queues, lock)
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
        # which keeps the generator-based cores.
        self.fastpath: Optional["FastpathContext"] = None

        # Doorbell plumbing: ready-mask upkeep + any extra subscribers
        # (HyperPlane's monitoring set registers here).
        self.doorbell_write_hooks: List[Callable[[Doorbell], None]] = []
        for doorbell in self.doorbells:
            doorbell.add_write_hook(self._on_doorbell_write)

        self.on_dequeue_hooks: List[Callable[[int], None]] = []
        self.metrics = RunMetrics(
            latency=LatencyRecorder(),
            activities=[CoreActivity() for _ in range(config.num_cores)],
        )
        self.generators: List[OpenLoopGenerator] = []
        self.refill: Optional[ClosedLoopRefill] = None

    def _on_doorbell_write(self, doorbell: Doorbell) -> None:
        self.cluster_of_queue[doorbell.qid].notify_ready(doorbell.qid)
        for hook in self.doorbell_write_hooks:
            hook(doorbell)

    def notify_dequeue(self, qid: int) -> None:
        """Called by cores after each dequeue (drives closed-loop refill)."""
        for hook in self.on_dequeue_hooks:
            hook(qid)

    def complete(self, item: ReferenceWorkItem) -> None:
        """Record a finished work item."""
        item.completion_time = self.sim.now
        self.metrics.completed += 1
        self.metrics.latency.record(self.sim.now, item.latency)


class ReferenceClusterServer:
    """One rack slot: an unmodified data-plane system plus fleet state."""

    def __init__(self, rack: "ReferenceRack", index: int):
        config = rack.config.server_config(index)
        self.rack = rack
        self.index = index
        self.config = config
        self.system = ReferenceDataPlaneSystem(config, sim=rack.sim)
        if rack.config.notification == "spinning":
            self.accelerator = None
            self.cores = build_reference_spinning_cores(self.system)
        else:
            self.accelerator, self.cores = build_reference_hyperplane(self.system)
        self.link = Link(
            rack.config.link_gbps,
            rack.config.link_propagation_s,
            name=f"server{index}.link",
        )
        self.up = True
        self.epoch = 0
        self.slow_factor = 1.0
        self.dispatched = 0
        self.completed_ok = 0
        self.lost = 0
        # Flow -> queue stickiness: a per-flow uniform draw mapped through
        # the shape's queue weights, so fleet traffic respects the same
        # hot/cold structure single-server runs use.
        self._cumulative_weights = list(
            accumulate(self.system.shape.weights(config.num_queues))
        )
        self._original_complete = self.system.complete
        self.system.complete = self._complete

    def queue_for_flow(self, flow: int) -> int:
        """The (deterministic, sticky) local queue a flow maps to."""
        u = derive_seed(self.config.seed, f"flow-queue:{flow}") / TWO_POW_64
        qid = bisect_right(
            self._cumulative_weights, u * self._cumulative_weights[-1]
        )
        return min(qid, self.config.num_queues - 1)

    def enqueue(self, flow: int, arrival_time: float, base_service: float) -> None:
        """Deliver one request (called at the link-arrival instant)."""
        if not self.up:
            # The server died while the request was on the wire: the
            # client detects the failure and retries elsewhere.
            self.rack.redispatch(flow, arrival_time, base_service)
            return
        item = ReferenceWorkItem(
            item_id=self.rack.next_item_id(),
            qid=self.queue_for_flow(flow),
            arrival_time=arrival_time,
            service_time=base_service * self.slow_factor,
            payload=(flow, self.epoch, base_service),
        )
        if not self.system.queues[item.qid].enqueue(item):
            self.rack.metrics.rejected += 1
            self.rack.balancer.complete(self.index)

    def _complete(self, item: WorkItem) -> None:
        self._original_complete(item)
        payload = item.payload
        if not (isinstance(payload, tuple) and len(payload) == 3):
            return
        _flow, epoch, _base_service = payload
        self.rack.balancer.complete(self.index)
        if self.up and epoch == self.epoch:
            self.rack.metrics.record(self.system.sim.now, item.latency, self.index)
            self.completed_ok += 1
        else:
            # Completed while down, or a stale pre-crash item drained
            # after restart: the client never saw this response.
            self.lost += 1
            self.rack.metrics.lost += 1


class ReferenceRack:
    """N servers, a balancer, links, faults — one deterministic run."""

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.sim = Simulator()
        self.streams = RandomStreams(config.seed)
        self.metrics = ReferenceClusterMetrics(config.num_servers)
        self.balancer = LoadBalancer(
            config.balancer,
            config.num_servers,
            rng=self.streams.stream(STREAM_BALANCER),
            seed=derive_seed(config.seed, "cluster.ring"),
        )
        self.servers = [
            ReferenceClusterServer(self, index)
            for index in range(config.num_servers)
        ]
        self.controller: Optional[ClusterController] = None
        self._cumulative_flow_weights = list(
            accumulate(flow_weights(config.num_flows, config.flow_skew))
        )
        self._flow_rng = self.streams.stream(STREAM_FLOWS)
        self._arrivals: Optional[PoissonArrivals] = None
        self._max_items: Optional[int] = None
        self._item_ids = 0
        self.generated = 0

    # -- plumbing ------------------------------------------------------------

    def next_item_id(self) -> int:
        self._item_ids += 1
        return self._item_ids

    def _draw_flow(self) -> int:
        total = self._cumulative_flow_weights[-1]
        index = bisect_right(
            self._cumulative_flow_weights, self._flow_rng.random() * total
        )
        return min(index, self.config.num_flows - 1)

    # -- traffic -------------------------------------------------------------

    def attach_open_loop(
        self,
        load: Optional[float] = None,
        rate: Optional[float] = None,
        max_items: Optional[int] = None,
    ) -> None:
        """Attach the fleet-level Poisson client population."""
        if (load is None) == (rate is None):
            raise ValueError("specify exactly one of load / rate")
        if self._arrivals is not None:
            raise RuntimeError("open loop already attached")
        if rate is None:
            mean = self.servers[0].config.workload.mean_service_seconds
            fleet_cores = self.config.num_servers * self.config.cores_per_server
            rate = load_to_rate(load, mean, fleet_cores)
        self._arrivals = PoissonArrivals(rate, self.streams.stream(STREAM_ARRIVALS))
        self._max_items = max_items
        self.sim.spawn(self._traffic(), name="cluster-traffic")

    def _traffic(self):
        while self._max_items is None or self.generated < self._max_items:
            yield self._arrivals.next_interarrival()
            self.generated += 1
            self.metrics.dispatched += 1
            self.dispatch(self._draw_flow(), self.sim.now)

    def dispatch(
        self,
        flow: int,
        arrival_time: float,
        base_service: Optional[float] = None,
    ) -> int:
        """Steer one request through the balancer and its server's link."""
        server_id = self.balancer.dispatch(flow)
        server = self.servers[server_id]
        if base_service is None:
            # Drawn from the *target server's* service stream, keeping
            # per-server statistics independent and the run replayable.
            base_service = server.system.service_model()
        delay = server.link.transfer_delay(self.sim.now, self.config.request_bytes)
        self.sim.schedule(delay, server.enqueue, flow, arrival_time, base_service)
        server.dispatched += 1
        return server_id

    def redispatch(self, flow: int, arrival_time: float, base_service: float) -> None:
        """Retry a failed request after the failover detection delay."""
        self.metrics.redispatched += 1
        self.sim.schedule(
            self.config.failover_delay_s,
            self._redispatch_now,
            flow,
            arrival_time,
            base_service,
        )

    def _redispatch_now(self, flow: int, arrival_time: float, base_service: float) -> None:
        try:
            self.dispatch(flow, arrival_time, base_service)
        except AllServersDownError:
            self.metrics.lost += 1

    # -- failure handling ----------------------------------------------------

    def crash_server(self, index: int) -> None:
        """Kill a server: re-steer its flows, re-dispatch its backlog."""
        server = self.servers[index]
        if not server.up:
            return
        server.up = False
        server.epoch += 1
        self.balancer.mark_down(index)
        for queue in server.system.queues:
            for item in queue.pending_items():
                payload = item.payload
                if not (isinstance(payload, tuple) and len(payload) == 3):
                    continue
                flow, _epoch, base_service = payload
                self.redispatch(flow, item.arrival_time, base_service)

    def restart_server(self, index: int) -> None:
        """Bring a crashed server back into the balancer pool."""
        server = self.servers[index]
        if server.up:
            return
        server.up = True
        self.balancer.mark_up(index)

    # -- running -------------------------------------------------------------

    def run(
        self,
        duration: float,
        warmup: float = 0.0,
        target_completions: Optional[int] = None,
        chunk: float = 2e-3,
    ):
        """Simulate the rack for ``duration`` seconds after ``warmup``."""
        if warmup < 0 or duration <= 0:
            raise ValueError("need positive duration, non-negative warmup")
        start = self.sim.now
        boundary = start + warmup
        self.metrics.warmup_time = boundary
        self.metrics.latency.warmup_time = boundary
        self.metrics.measure_start = boundary
        for server in self.servers:
            server.system.metrics.latency.warmup_time = boundary
            server.system.metrics.measure_start = boundary
        total = warmup + duration
        if self.controller is None:
            events = fault_schedule(
                self.config.fault_profile,
                self.config.num_servers,
                total,
                self.streams.stream(STREAM_FAULTS),
            )
            self.controller = ClusterController(self, events)
            self.controller.start()
        deadline = start + total
        while self.sim.now < deadline and self.sim.pending:
            self.sim.run(until=min(deadline, self.sim.now + chunk))
            if (
                target_completions is not None
                and self.metrics.count >= target_completions
            ):
                break
        self.metrics.measure_end = self.sim.now
        for server in self.servers:
            server.system.metrics.measure_end = self.sim.now
        return self.metrics

    def check_invariants(self) -> None:
        """Queue/doorbell agreement and HyperPlane wake-up soundness."""
        for server in self.servers:
            server.system.check_invariants()
            if server.accelerator is not None:
                server.accelerator.check_no_lost_wakeups(
                    being_serviced={
                        core.servicing
                        for core in server.cores
                        if core.servicing is not None
                    }
                )


def run_reference_cluster(
    config: ClusterConfig,
    load: Optional[float] = None,
    rate: Optional[float] = None,
    duration: float = 0.02,
    warmup: float = 0.005,
    target_completions: Optional[int] = None,
) -> ReferenceRack:
    """Build, run, and verify one reference rack (the oracle entry point)."""
    rack = ReferenceRack(config)
    rack.attach_open_loop(load=load, rate=rate)
    rack.run(duration=duration, warmup=warmup, target_completions=target_completions)
    rack.check_invariants()
    return rack
