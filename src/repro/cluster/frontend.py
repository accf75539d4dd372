"""The fleet front end both rack runtimes share.

:class:`ClientPopulation` draws the open-loop clients: Poisson arrivals
over Zipf-weighted flows. :class:`FrontEnd` is what they talk to: the
balancer, crash membership, failover re-dispatch, the loss of a request
that finds every server down, and the client-visible
:class:`~repro.cluster.metrics.ClusterMetrics`. It hands each steered
request to a sink: :class:`~repro.cluster.rack.Rack` runs it on its
shared timeline and crosses the server's link; the dist coordinator
runs it on a simulator of its own and batches the request for the
owning worker.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Callable, List, Optional

from repro.cluster.balancer import AllServersDownError, LoadBalancer
from repro.cluster.config import (
    STREAM_ARRIVALS,
    STREAM_BALANCER,
    STREAM_FAULTS,
    STREAM_FLOWS,
    ClusterConfig,
)
from repro.cluster.faults import FaultEvent, fault_schedule
from repro.cluster.metrics import ClusterMetrics
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams, derive_seed
from repro.traffic.arrivals import load_to_rate


def flow_weights(num_flows: int, skew: float) -> List[float]:
    """Zipf-like per-flow traffic weights: weight_i = (i+1) ** -skew.

    ``skew=0`` is uniform; larger values concentrate traffic on the
    lowest-numbered flows, which is how fleet-level imbalance is
    injected (hashing a skewed population concentrates load).
    """
    if num_flows <= 0:
        raise ValueError("need at least one flow")
    if skew < 0:
        raise ValueError("skew must be non-negative")
    return [(i + 1) ** -skew for i in range(num_flows)]


def offered_rate(config: ClusterConfig, load=None, rate=None) -> float:
    """The aggregate arrival rate of exactly one of ``load`` (a share of
    the fleet's ideal capacity) or ``rate`` (requests/second)."""
    if (load is None) == (rate is None):
        raise ValueError("specify exactly one of load / rate")
    if rate is not None:
        return rate
    mean = config.server_config(0).workload.mean_service_seconds
    return load_to_rate(load, mean, config.num_servers * config.cores_per_server)


class ClientPopulation:
    """Interarrival gaps (``expovariate`` on ``cluster.arrivals``) and
    Zipf-weighted flow picks (``cluster.flows``), from the caller's
    streams. The rack's batched sweep inlines both expressions on
    ``arrival_rng``, ``flow_rng`` and ``cumulative``."""

    __slots__ = ("rate", "num_flows", "cumulative", "arrival_rng", "flow_rng")

    def __init__(self, rate: float, num_flows: int, flow_skew: float, streams: RandomStreams):
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        self.rate = rate
        self.num_flows = num_flows
        self.cumulative = list(accumulate(flow_weights(num_flows, flow_skew)))
        self.arrival_rng = streams.stream(STREAM_ARRIVALS)
        self.flow_rng = streams.stream(STREAM_FLOWS)

    def next_interarrival(self) -> float:
        return self.arrival_rng.expovariate(self.rate)

    def draw_flow(self) -> int:
        cumulative = self.cumulative
        index = bisect_right(cumulative, self.flow_rng.random() * cumulative[-1])
        return min(index, self.num_flows - 1)


class FrontEnd:
    """Balancer, crash membership, failover and client metrics.

    ``dispatch`` steers one request, hands ``(server, flow, time,
    arrival_time, base_service)`` to ``sink``, then runs
    ``dispatch_hooks`` with ``(flow, arrival_time, server)``. A
    :class:`~repro.cluster.controller.ClusterController` drives
    ``crash_server``/``restart_server``; a retired server stays down.
    """

    def __init__(self, config: ClusterConfig, sim: Simulator, streams: RandomStreams,
                 sink: Callable[[int, int, float, float, Optional[float]], None]):
        self.config = config
        self.sim = sim
        self.streams = streams
        self.sink = sink
        self.balancer = LoadBalancer(
            config.balancer,
            config.num_servers,
            rng=streams.stream(STREAM_BALANCER),
            seed=derive_seed(config.seed, "cluster.ring"),
        )
        self.metrics = ClusterMetrics(config.num_servers)
        self.dispatch_hooks: List[Callable[[int, float, int], None]] = []
        self.retired: set = set()

    def faults(self, run_seconds: float) -> List[FaultEvent]:
        """The config's fault schedule over a run of ``run_seconds``."""
        config = self.config
        return fault_schedule(
            config.fault_profile, config.num_servers, run_seconds,
            self.streams.stream(STREAM_FAULTS),
        )

    def measure_from(self, boundary: float) -> None:
        """Record client completions from simulated time ``boundary`` on."""
        metrics = self.metrics
        metrics.warmup_time = metrics.latency.warmup_time = boundary
        metrics.measure_start = boundary

    def dispatch(self, flow: int, time: float, arrival_time: float, base_service=None) -> int:
        server = self.balancer.dispatch(flow)
        self.sink(server, flow, time, arrival_time, base_service)
        hooks = self.dispatch_hooks
        if hooks:
            for hook in hooks:
                hook(flow, arrival_time, server)
        return server

    def arrive(self, flow: int, time: float, base_service=None) -> None:
        """A fresh client request; lost if every server is down."""
        self.metrics.dispatched += 1
        try:
            self.dispatch(flow, time, time, base_service)
        except AllServersDownError:
            self.metrics.lost += 1

    def redispatch(self, flow: int, arrival_time: float, base_service, due: float) -> None:
        """Retry a failed request at ``due``, keeping its arrival time so
        the recorded latency includes the failover penalty."""
        self.metrics.redispatched += 1
        self.sim.schedule_at(due, self._redispatch_now, flow, arrival_time, base_service)

    def _redispatch_now(self, flow: int, arrival_time: float, base_service) -> None:
        try:
            self.dispatch(flow, self.sim.now, arrival_time, base_service)
        except AllServersDownError:
            self.metrics.lost += 1

    def crash_server(self, index: int) -> None:
        """Stop steering to a server (its backlog is the caller's)."""
        if self.balancer.live[index]:
            self.balancer.mark_down(index)

    def restart_server(self, index: int) -> None:
        if index not in self.retired:
            self.balancer.mark_up(index)

    def retire(self, index: int) -> None:
        """Take a server out of steering for the rest of the run."""
        self.retired.add(index)
        self.crash_server(index)
