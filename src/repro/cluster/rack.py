"""The rack: N data-plane servers behind a balancer, one shared timeline.

:class:`Rack` composes existing single-server substrates — each
:class:`ClusterServer` wraps an unmodified
:class:`~repro.sdp.system.DataPlaneSystem` running spinning or
HyperPlane cores — and adds the fleet layer on top: the client
population and the fleet front end of :mod:`repro.cluster.frontend`
(balancer, crash membership, failover re-dispatch, client-visible
:class:`~repro.cluster.metrics.ClusterMetrics`), per-server access
:class:`~repro.cluster.link.Link` delays, and the fault
:class:`~repro.cluster.controller.ClusterController`. The dist
coordinator drives the same front end on a simulator of its own.

Request lifecycle: a cluster arrival draws a flow, the balancer steers
it to a live server (sticky per flow), the request crosses the server's
link, lands in the queue the flow hashes to, and is served by that
server's own notification mechanism. Latency is measured balancer-to-
completion, so it includes link and failover delay. On a crash, the
victim's queued backlog is re-dispatched to the survivors after a
detection delay; completions a dead or stale server produces are counted
as lost, never as client successes.

Hot path
--------
The request path here is the *fast* rack: flow stickiness is memoised
through the interned tables in :mod:`repro.cluster.tables`, and — when
the run shape allows it — traffic is generated in batched delivery
sweeps, one callback per fault/chunk window instead of one heap event
per arrival. Every draw (interarrival, flow pick, balancer steering,
service demand) happens in the same order, from the same stream, with
the same floating-point expressions as the per-request path, so
:class:`ClusterMetrics`, per-server stats, and RNG stream positions are
bit-identical. The pre-fast-path request path is preserved verbatim in
``tests/oracles/rack.py`` as the differential-fuzz oracle
(``tests/test_cluster_fastpath.py``).

The batched sweep runs only when nothing can observe the difference:
duration-bounded runs (no ``target_completions`` / ``max_items`` early
exit), deterministic steering (rss / round-robin — p2c draws from the
balancer stream per request and stays per-arrival), no crash faults
(crash re-steering depends on in-window delivery state), and no dispatch
or delivery hook (a sweep bypasses the front end's
:meth:`~repro.cluster.frontend.FrontEnd.dispatch` and
:meth:`ClusterServer.enqueue`, where those hooks run; the span probe
subscribes to both). Windows split at every fault apply/revert boundary
so straggler/degrade magnitude changes land between sweeps, exactly
where the per-request path would see them. Inject a crash as a
:class:`~repro.cluster.faults.FaultEvent` on ``rack.controller`` (the
run then goes per-arrival) or call :meth:`Rack.crash_server` between
runs; called from inside a swept run it raises. A run that goes
per-arrival after a swept one first returns the sweep's pulled
deliveries to the event path.

Observers subscribe through hook lists, run in registration order:
``Rack.dispatch_hooks`` get ``(flow, arrival_time, server_id)`` after
each steering decision, ``Rack.delivery_hooks`` get ``(flow,
arrival_time, rejected)`` after each link arrival, and each server
system's ``completion_hooks`` get the finished item (the rack's own
fleet accounting subscribes there when it builds the server).
"""

from __future__ import annotations

from bisect import bisect_right
from math import log
from typing import Callable, List, Optional

from repro.cluster.balancer import LOAD_OBLIVIOUS_POLICIES
from repro.cluster.config import ClusterConfig
from repro.cluster.controller import ClusterController
from repro.cluster.frontend import ClientPopulation, FrontEnd, flow_weights, offered_rate
from repro.cluster.link import Link
from repro.cluster.tables import TWO_POW_64, cumulative_weight_table
from repro.core.dataplane import build_hyperplane
from repro.obs.runtime import get_active_registry
from repro.queueing.taskqueue import WorkItem
from repro.sdp.spinning import SpinningCore, build_spinning_cores
from repro.sdp.system import DataPlaneSystem, FastpathContext
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

__all__ = [
    "CHECK_CHUNK_S",
    "TWO_POW_64",
    "flow_weights",
    "ClusterServer",
    "Rack",
    "run_cluster",
]

# Simulated seconds between a run's target-completion checks, and the
# length of a batched delivery sweep window. The dist coordinator's
# windows divide it, so both runtimes stop measuring at the same
# instants.
CHECK_CHUNK_S = 2e-3


class ClusterServer:
    """One rack slot: an unmodified data-plane system plus fleet state.

    ``rack`` is the owner: a :class:`Rack`, or a dist worker host, whose
    server subclass replaces only delivery and completion reporting
    (:class:`repro.dist.worker.WorkerServer`). The constructor reads
    ``rack.config`` and ``rack.sim``.
    """

    __slots__ = (
        "rack",
        "index",
        "config",
        "system",
        "fastpath",
        "accelerator",
        "cores",
        "link",
        "up",
        "epoch",
        "slow_factor",
        "dispatched",
        "completed_ok",
        "lost",
        "pull_cores",
        "_weight_table",
        "_flow_queue_map",
        "_queues",
    )

    def __init__(self, rack: "Rack", index: int):
        config = rack.config.server_config(index)
        self.rack = rack
        self.index = index
        self.config = config
        self.system = DataPlaneSystem(config, sim=rack.sim)
        # The delivery-tracking context must exist before the cores are
        # built: single-core spinning clusters read it on every turn.
        self.fastpath = self.system.fastpath = FastpathContext()
        if rack.config.notification == "spinning":
            self.accelerator = None
            self.cores = build_spinning_cores(self.system)
        else:
            self.accelerator, self.cores = build_hyperplane(self.system)
        # Delivery-pull routing: on a spinning server whose clusters are
        # single-core, the sweep can hand prebuilt items straight to the
        # owning core's delivery deque instead of scheduling one enqueue
        # event per request. A pull skips the arrival pulse, which is
        # exact only when the pulling core is its cluster's only core.
        if rack.config.notification == "spinning" and config.cluster_cores == 1:
            self.pull_cores = {
                qid: core
                for core in self.cores
                for qid in core.cluster.queue_ids
            }
        else:
            self.pull_cores = None
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
        # hot/cold structure single-server runs use. The cumulative table
        # is interned (shared across homogeneous servers) and the per-flow
        # mapping memoised per (weights, seed).
        self._weight_table = cumulative_weight_table(
            self.system.shape.weights(config.num_queues)
        )
        self._flow_queue_map = self._weight_table.flow_map(config.seed)
        self._queues = self.system.queues
        self.system.completion_hooks.append(self._on_complete)

    def queue_for_flow(self, flow: int) -> int:
        """The (deterministic, sticky) local queue a flow maps to."""
        qid = self._flow_queue_map.get(flow)
        if qid is None:
            qid = self._flow_queue_map[flow] = self._weight_table.compute(
                self.config.seed, flow
            )
        return qid

    def cross_link(self, time: float, base_service: Optional[float],
                   deliver: Callable[..., None], *lead) -> None:
        """Dispatch one request to this server at ``time`` (now): cross
        its link as it stands at that instant and schedule
        ``deliver(*lead, base_service)`` on arrival. Both runtimes'
        dispatch sinks call it; only the delivery callback differs."""
        if base_service is None:
            # Drawn from the server's own service stream, keeping
            # per-server statistics independent and the run replayable.
            base_service = self.system.service_model()
        rack = self.rack
        delay = self.link.transfer_delay(time, rack.config.request_bytes)
        self.fastpath.pending_deliveries += 1
        rack.sim.schedule(delay, deliver, *lead, base_service)
        self.dispatched += 1

    def enqueue(self, flow: int, arrival_time: float, base_service: float) -> None:
        """Deliver one request (called at the link-arrival instant), then
        run the rack's delivery hooks."""
        fastpath = self.fastpath
        if fastpath.pending_deliveries:
            fastpath.pending_deliveries -= 1
        rack = self.rack
        rejected = False
        if not self.up:
            # The server died while the request was on the wire: the
            # client detects the failure and retries elsewhere.
            rack.redispatch(flow, arrival_time, base_service)
        else:
            flow_map = self._flow_queue_map
            qid = flow_map.get(flow)
            if qid is None:
                qid = flow_map[flow] = self._weight_table.compute(
                    self.config.seed, flow
                )
            rack._item_ids += 1
            item = WorkItem(
                rack._item_ids,
                qid,
                arrival_time,
                base_service * self.slow_factor,
                (flow, self.epoch, base_service),
            )
            if not self._queues[qid].enqueue(item):
                rejected = True
                rack.metrics.rejected += 1
                rack.balancer.complete(self.index)
        hooks = rack.delivery_hooks
        if hooks:
            for hook in hooks:
                hook(flow, arrival_time, rejected)

    def _deliver_item(self, item: WorkItem) -> None:
        """Event-path delivery of a sweep-prebuilt item (pull fallback)."""
        fastpath = self.fastpath
        if fastpath.pending_deliveries:
            fastpath.pending_deliveries -= 1
        if not self.up:
            payload = item.payload
            self.rack.redispatch(payload[0], item.arrival_time, payload[2])
            return
        if not self._queues[item.qid].enqueue(item):
            rack = self.rack
            rack.metrics.rejected += 1
            rack.balancer.complete(self.index)

    def _on_complete(self, item: WorkItem) -> None:
        # Fleet accounting — LoadBalancer.complete, ClusterMetrics.record
        # and its three P2Quantile feeds — inlined into one completion
        # hook: it runs once per client-visible completion and is the
        # rack's second-hottest path after the core turn.
        payload = item.payload
        if not (isinstance(payload, tuple) and len(payload) == 3):
            return
        rack = self.rack
        now = item.completion_time
        # The float DataPlaneSystem.complete just built and stored.
        latency = self.system.last_latency
        index = self.index
        # LoadBalancer.complete: clamped decrement so stale completions
        # after a crash cannot go negative.
        outstanding = rack.balancer.outstanding
        if outstanding[index] > 0:
            outstanding[index] -= 1
        if self.up and payload[1] == self.epoch:
            cm = rack.metrics
            if now >= cm.warmup_time:
                recorder = cm.latency
                if now >= recorder.warmup_time:
                    recorder._samples.append(latency)
                p = cm._p50
                if p._heights:
                    p.count += 1
                    p._update(latency)
                else:
                    p.add(latency)
                p = cm._p99
                if p._heights:
                    p.count += 1
                    p._update(latency)
                else:
                    p.add(latency)
                p = cm._p999
                if p._heights:
                    p.count += 1
                    p._update(latency)
                else:
                    p.add(latency)
                cm.per_server_completed[index] += 1
            self.completed_ok += 1
        else:
            # Completed while down, or a stale pre-crash item drained
            # after restart: the client never saw this response.
            self.lost += 1
            rack.metrics.lost += 1

    def fail(self) -> List[WorkItem]:
        """Mark the server down, bump its epoch, and return its queued
        fleet items, whose clients retry elsewhere.

        The items stay in the rings: the cores still serve them, and
        each such completion counts as lost.
        """
        self.up = False
        self.epoch += 1
        return [
            item
            for queue in self.system.queues
            for item in queue.pending_items()
            if isinstance(item.payload, tuple) and len(item.payload) == 3
        ]

    def check_invariants(self) -> None:
        """Queue/doorbell agreement and HyperPlane wake-up soundness."""
        self.system.check_invariants()
        if self.accelerator is not None:
            self.accelerator.check_no_lost_wakeups(
                being_serviced={
                    core.servicing
                    for core in self.cores
                    if core.servicing is not None
                }
            )


class Rack:
    """N servers, a balancer, links, faults — one deterministic run."""

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.sim = Simulator()
        self.streams = RandomStreams(config.seed)
        # The fleet front end on the shared timeline; its sink crosses
        # the chosen server's link.
        self.front_end = FrontEnd(config, self.sim, self.streams, self._cross_link)
        self.balancer = self.front_end.balancer
        self.metrics = self.front_end.metrics
        self.dispatch_hooks = self.front_end.dispatch_hooks
        self.delivery_hooks: List[Callable[[int, float, bool], None]] = []
        self.servers = [
            ClusterServer(self, index) for index in range(config.num_servers)
        ]
        self.controller: Optional[ClusterController] = None
        self._clients: Optional[ClientPopulation] = None
        self._max_items: Optional[int] = None
        self._item_ids = 0
        self.generated = 0
        # Batched-sweep state: the boundary plan for the current run (or
        # None on the per-arrival path), the next undelivered arrival time
        # carried across windows/runs, and the absolute fault boundaries.
        self._chunk_plan: Optional[List[float]] = None
        self._plan_index = 0
        self._next_arrival: Optional[float] = None
        self._tick_started = False
        self._fault_base: Optional[float] = None
        self._fault_times: List[float] = []

        # Observability: the per-server systems self-instrumented above
        # (shared sdp.* aggregates on the rack timeline); add the fleet
        # rollups only this layer can see.
        self._obs = get_active_registry()
        self._obs_events_reported = 0
        if self._obs is not None:
            from repro.obs.probes import instrument_rack

            instrument_rack(self._obs, self)

        # Tracing: the per-server systems self-traced above (same
        # ambient tracer); add the fleet spans (rpc roots, link
        # transfers) and parent the server-side request spans.
        from repro.obs.trace import get_active_tracer

        if get_active_tracer() is not None:
            from repro.obs.trace_probes import maybe_trace_rack

            maybe_trace_rack(self)

    # -- traffic -------------------------------------------------------------

    def attach_open_loop(
        self,
        load: Optional[float] = None,
        rate: Optional[float] = None,
        max_items: Optional[int] = None,
    ) -> None:
        """Attach the fleet-level Poisson client population.

        ``load`` is the utilisation of the fleet's *ideal* capacity
        (``num_servers * cores_per_server / mean_service``); ``rate`` is
        an absolute aggregate arrival rate in requests/second.
        """
        rate = offered_rate(self.config, load, rate)
        if self._clients is not None:
            raise RuntimeError("open loop already attached")
        config = self.config
        self._clients = ClientPopulation(rate, config.num_flows, config.flow_skew, self.streams)
        self._max_items = max_items
        # Same heap slot the reference's spawned traffic process occupies:
        # one zero-delay bootstrap event. run() decides per-arrival vs.
        # batched-sweep mode before the engine dispatches it.
        self.sim.schedule(0.0, self._traffic_start)

    def _traffic_start(self, _value=None) -> None:
        if self._max_items is not None and self.generated >= self._max_items:
            return
        delay = self._clients.next_interarrival()
        if self._chunk_plan is not None:
            self._next_arrival = self.sim.now + delay
            self._sweep_window()
        else:
            self._tick_started = True
            self.sim.schedule(delay, self._traffic_tick)

    def _traffic_tick(self, _value=None) -> None:
        """Per-arrival traffic: one event per request (reference order),
        its flow drawn at the arrival instant."""
        self.generated += 1
        self.front_end.arrive(self._clients.draw_flow(), self.sim.now)
        if self._max_items is None or self.generated < self._max_items:
            self.sim.schedule(self._clients.next_interarrival(), self._traffic_tick)

    def _sweep_window(self, _value=None) -> None:
        """Batched traffic: deliver every arrival in the current window.

        Draw order per arrival is identical to the per-arrival path —
        flow pick (flows stream), steering, service demand (target
        server's stream), next interarrival (arrivals stream) — and the
        link/latency arithmetic reuses the exact floating-point
        expressions of :meth:`ClusterServer.cross_link` /
        ``Link.transfer_delay``, so delivery timestamps match bit for
        bit.
        """
        plan = self._chunk_plan
        index = self._plan_index
        bound = plan[index]
        final = index + 1 == len(plan)
        t = self._next_arrival
        sim = self.sim
        if t is not None and (t < bound or (final and t == bound)):
            config = self.config
            nbytes = config.request_bytes
            nservers = config.num_servers
            nflows = config.num_flows
            balancer = self.balancer
            policy = balancer.policy
            outstanding = balancer.outstanding
            servers = self.servers
            clients = self._clients
            flow_random = clients.flow_rng.random
            cum = clients.cumulative
            total = cum[-1]
            # Interarrival draw inlined: ClientPopulation.next_interarrival
            # is Random.expovariate(rate), which is -log(1-random())/rate
            # — same expression, same stream, two frames fewer per draw.
            arr_random = clients.arrival_rng.random
            arr_rate = clients.rate
            schedule_at = sim.schedule_at
            links = [server.link for server in servers]
            busy = [link.busy_until for link in links]
            serialization = [link.serialization_delay(nbytes) for link in links]
            propagation = [link.propagation_s * link.degrade for link in links]
            service = [server.system.service_model for server in servers]
            # Service draw inlined for the exponential (scv == 1) case:
            # ServiceTimeModel.sample is rng.expovariate(1/mean), i.e.
            # -log(1-random())/lambd with lambd hoisted (same float every
            # call). Other SCVs keep the model call.
            svc_random: List[Optional[object]] = []
            svc_lambd: List[float] = []
            for model in service:
                if model.scv == 1.0:
                    svc_random.append(model._rng.random)
                    svc_lambd.append(1.0 / model._mean)
                else:
                    svc_random.append(None)
                    svc_lambd.append(0.0)
            deliver = [server.enqueue for server in servers]
            contexts = [server.fastpath for server in servers]
            dispatched = [0] * nservers
            swept = 0
            # Delivery pull: prebuild the WorkItem at dispatch time and
            # append it to the owning fast core's deque — no enqueue
            # event, no doorbell hook chain. Legal only when nothing can
            # change what the enqueue would build or observe mid-flight:
            # no fault boundaries this run (slow_factor/epoch frozen), no
            # extra doorbell write subscribers, and a per-server budget
            # proving no ring can reach capacity (so the reference could
            # not reject either). item ids are assigned in sweep order =
            # global dispatch order, exactly as the reference assigns
            # them.
            fault_free = not self._fault_times
            item_ids = self._item_ids
            pulls: List[Optional[dict]] = []
            budgets = []
            for server in servers:
                cores = server.pull_cores
                if (
                    fault_free
                    and cores is not None
                    and not server.system.doorbell_write_hooks
                ):
                    pulls.append(cores)
                    budgets.append(
                        server.config.queue_capacity
                        - server.fastpath.pending_deliveries
                        - max(len(q._items) for q in server.system.queues)
                        - 1
                    )
                else:
                    pulls.append(None)
                    budgets.append(0)
            flow_maps = [server._flow_queue_map for server in servers]
            weight_tables = [server._weight_table for server in servers]
            seeds = [server.config.seed for server in servers]
            slows = [server.slow_factor for server in servers]
            epochs = [server.epoch for server in servers]
            wake_cores: List[SpinningCore] = []
            # No core turn or delivery event can interleave with this
            # loop (it is one event callback), so the per-arrival
            # pending_deliveries bumps accumulate in a local list and
            # land on the contexts in one store per server — flushed
            # early only where _flush_pull needs the true count.
            pending = [0] * nservers
            is_rss = policy == "rss"
            if is_rss:
                assignment = balancer.assignment
                live = balancer.live
                ring = balancer.ring
                ring_key = ring.key
                ring_lookup = ring.lookup
                balancer_seed = balancer.seed
            while t < bound or (final and t == bound):
                flow = bisect_right(cum, flow_random() * total)
                if flow >= nflows:
                    flow = nflows - 1
                if is_rss:
                    server_id = assignment.get(flow)
                    if server_id is None or not live[server_id]:
                        placed = ring_lookup(ring_key(flow, balancer_seed), live)
                        if server_id is not None:
                            balancer.resteers += 1
                        assignment[flow] = placed
                        server_id = placed
                else:  # round-robin over an all-live fleet
                    server_id = balancer._rotation % nservers
                    balancer._rotation += 1
                outstanding[server_id] += 1
                draw = svc_random[server_id]
                if draw is not None:
                    base_service = -log(1.0 - draw()) / svc_lambd[server_id]
                else:
                    base_service = service[server_id]()
                busy_until = busy[server_id]
                start = t if t > busy_until else busy_until
                tx = serialization[server_id]
                busy[server_id] = start + tx
                delay = (start - t) + tx + propagation[server_id]
                pending[server_id] += 1
                pull = pulls[server_id]
                if pull is not None:
                    if budgets[server_id] > 0:
                        budgets[server_id] -= 1
                        fmap = flow_maps[server_id]
                        qid = fmap.get(flow)
                        if qid is None:
                            qid = fmap[flow] = weight_tables[server_id].compute(
                                seeds[server_id], flow
                            )
                        item_ids += 1
                        core = pull[qid]
                        core_dq = core._deliveries
                        if not core_dq and core._parked:
                            wake_cores.append(core)
                        core_dq.append(
                            (
                                t + delay,
                                WorkItem(
                                    item_ids,
                                    qid,
                                    t,
                                    base_service * slows[server_id],
                                    (flow, epochs[server_id], base_service),
                                ),
                            )
                        )
                    else:
                        # Budget exhausted: a ring could fill. Hand the
                        # backlog and the rest of this server's window to
                        # the event path, whose rejections are exact.
                        # Flush the locally-batched pending count first —
                        # _flush_pull decrements the real counter.
                        pulls[server_id] = None
                        if pending[server_id]:
                            contexts[server_id].pending_deliveries += pending[
                                server_id
                            ]
                            pending[server_id] = 0
                        self._flush_pull(servers[server_id])
                        schedule_at(
                            t + delay, deliver[server_id], flow, t, base_service
                        )
                else:
                    schedule_at(t + delay, deliver[server_id], flow, t, base_service)
                dispatched[server_id] += 1
                swept += 1
                t = t + -log(1.0 - arr_random()) / arr_rate
            self._item_ids = item_ids
            self._next_arrival = t
            for server_id in range(nservers):
                if pending[server_id]:
                    contexts[server_id].pending_deliveries += pending[server_id]
            for core in wake_cores:
                if core._parked and core._deliveries:
                    schedule_at(core._deliveries[0][0], core._pull_wake)
            for server_id in range(nservers):
                count = dispatched[server_id]
                if count:
                    link = links[server_id]
                    link.busy_until = busy[server_id]
                    link.bytes_sent += count * nbytes
                    link.requests += count
                    servers[server_id].dispatched += count
            self.generated += swept
            self.metrics.dispatched += swept
        if final:
            return
        self._plan_index = index + 1
        sim.schedule_at(bound, self._sweep_window)

    def _flush_pull(self, server: ClusterServer) -> None:
        """Return a server's pulled backlog to the event delivery path.

        Due deliveries are enqueued immediately — the owning core has not
        turned since their delivery instants (otherwise it would have
        pulled them), so no dequeue happened in between and the ring
        state, verdicts, and stats match what the reference produced at
        those instants. Future deliveries become ordinary heap events.
        """
        now = self.sim.now
        fastpath = server.fastpath
        queues = server.system.queues
        schedule_at = self.sim.schedule_at
        deliver = server._deliver_item
        for core in dict.fromkeys(server.pull_cores.values()):
            deliveries = core._deliveries
            while deliveries:
                when, item = deliveries.popleft()
                if when <= now:
                    if fastpath.pending_deliveries:
                        fastpath.pending_deliveries -= 1
                    if not queues[item.qid].enqueue(item):
                        self.metrics.rejected += 1
                        self.balancer.complete(server.index)
                else:
                    schedule_at(when, deliver, item)

    def _plan_traffic(self, start: float, deadline: float,
                      target_completions: Optional[int]) -> None:
        """Choose the traffic mode for this run and build the window plan.

        The batched sweep pre-draws a whole window, so anything that can
        cut a run short mid-window (completion targets, ``max_items``) or
        observe per-arrival structure (dispatch and delivery hooks,
        balancer-stream or load-dependent steering, crash re-steering)
        forces the per-arrival path. Once per-arrival traffic has
        started, later runs stay per-arrival — the pending tick event
        cannot be retracted.
        """
        chunked = (
            self._clients is not None
            and target_completions is None
            and self._max_items is None
            and not self.dispatch_hooks
            and not self.delivery_hooks
            and not self._tick_started
            and self.balancer.policy in LOAD_OBLIVIOUS_POLICIES
            and all(event.kind != "crash" for event in self.controller.events)
            and all(server.up for server in self.servers)
        )
        if not chunked:
            self._chunk_plan = None
            if self._next_arrival is not None:
                # A previous run swept; hand the carried arrival to the
                # per-arrival chain (flow not yet drawn, as required),
                # and return pulled deliveries to the event path so the
                # per-arrival enqueues cannot overtake them.
                for server in self.servers:
                    if server.pull_cores is not None:
                        self._flush_pull(server)
                self.sim.schedule_at(self._next_arrival, self._traffic_tick)
                self._next_arrival = None
                self._tick_started = True
            return
        bounds = []
        bound = start
        while True:
            bound = bound + CHECK_CHUNK_S
            if bound >= deadline:
                break
            bounds.append(bound)
        for fault_time in self._fault_times:
            if start < fault_time < deadline:
                bounds.append(fault_time)
        bounds.append(deadline)
        bounds.sort()
        plan: List[float] = []
        for bound in bounds:
            if not plan or bound != plan[-1]:
                plan.append(bound)
        self._chunk_plan = plan
        self._plan_index = 0
        if self._next_arrival is not None:
            # Traffic already bootstrapped in a previous swept run:
            # restart the window chain for the new plan.
            self.sim.schedule(0.0, self._sweep_window)

    def _cross_link(self, server_id: int, flow: int, time: float, arrival_time: float,
                    base_service: Optional[float]) -> None:
        """The front end's sink: cross the chosen server's link at
        ``time`` (now) and schedule the delivery."""
        server = self.servers[server_id]
        server.cross_link(time, base_service, server.enqueue, flow, arrival_time)

    def redispatch(self, flow: int, arrival_time: float, base_service: float) -> None:
        """Retry a failed request after the failover detection delay
        (through the front end, which keeps its arrival time)."""
        due = self.sim.now + self.config.failover_delay_s
        self.front_end.redispatch(flow, arrival_time, base_service, due)

    # -- failure handling ----------------------------------------------------

    def crash_server(self, index: int) -> None:
        """Kill a server: re-steer its flows, re-dispatch its backlog.

        Call it between runs, or let the controller call it. A batched
        sweep has already steered and pre-drawn its whole window, so a
        crash from an arbitrary callback inside a swept run raises
        instead of silently diverging: inject it as a crash
        :class:`~repro.cluster.faults.FaultEvent` on ``rack.controller``,
        which keeps that run on the per-arrival path.
        """
        if self._chunk_plan is not None:
            raise RuntimeError(
                f"crash_server({index}) called inside a swept run: schedule "
                "a crash FaultEvent on rack.controller instead"
            )
        server = self.servers[index]
        if not server.up:
            return
        if server.pull_cores is not None:
            # Pulled deliveries are invisible to the backlog sweep below:
            # re-materialise due ones into the rings (still up — exactly
            # what the reference's enqueues did) and convert future ones
            # to events, whose down-server arrival redispatches exactly.
            self._flush_pull(server)
        backlog = server.fail()
        self.front_end.crash_server(index)
        for item in backlog:
            flow, _epoch, base_service = item.payload
            self.redispatch(flow, item.arrival_time, base_service)

    def restart_server(self, index: int) -> None:
        """Bring a crashed server back into the balancer pool."""
        server = self.servers[index]
        if server.up:
            return
        server.up = True
        self.front_end.restart_server(index)

    # -- running -------------------------------------------------------------

    def run(
        self,
        duration: float,
        warmup: float = 0.0,
        target_completions: Optional[int] = None,
    ):
        """Simulate the rack for ``duration`` seconds after ``warmup``.

        The fault schedule spans the whole run (warmup + duration).
        Returns the populated :class:`ClusterMetrics`.
        """
        if warmup < 0 or duration <= 0:
            raise ValueError("need positive duration, non-negative warmup")
        start = self.sim.now
        boundary = start + warmup
        self.front_end.measure_from(boundary)
        for server in self.servers:
            server.system.metrics.latency.warmup_time = boundary
            server.system.metrics.measure_start = boundary
        total = warmup + duration
        if self.controller is None:
            self.controller = ClusterController(self, self.front_end.faults(total))
            self.controller.start()
        if self._fault_base is None:
            # Controller event times are relative to its start() call;
            # externally attached controllers are assumed started here.
            self._fault_base = start
            times: List[float] = []
            for event in self.controller.events:
                times.append(self._fault_base + event.time)
                times.append(self._fault_base + event.time + event.duration)
            times.sort()
            self._fault_times = times
            for server in self.servers:
                server.fastpath.set_fault_times(times)
        deadline = start + total
        self._plan_traffic(start, deadline, target_completions)
        if (
            target_completions is None
            and self._clients is not None
            and self._max_items is None
        ):
            # Nothing can end the run early: a single engine run replaces
            # the chunked polling loop, and idle gaps (every core
            # spin-waiting, no queued work) fast-forward natively because
            # the heap only holds the next arrival/window/fault event.
            self.sim.run(until=deadline)
        else:
            while self.sim.now < deadline and self.sim.pending:
                self.sim.run(until=min(deadline, self.sim.now + CHECK_CHUNK_S))
                if (
                    target_completions is not None
                    and self.metrics.count >= target_completions
                ):
                    break
        # No swept run is in progress now; crash_server reads this.
        self._chunk_plan = None
        self.metrics.measure_end = self.sim.now
        for server in self.servers:
            server.system.metrics.measure_end = self.sim.now
        if self._obs is not None:
            # Servers share this timeline and never call their own run(),
            # so the rack reports the shared simulator's retired events.
            delta = self.sim.events_dispatched - self._obs_events_reported
            self._obs_events_reported = self.sim.events_dispatched
            self._obs.counter(
                "sim.events_total", help="events retired across all runs"
            ).inc(delta)
        return self.metrics

    def check_invariants(self) -> None:
        """Queue/doorbell agreement and HyperPlane wake-up soundness."""
        for server in self.servers:
            server.check_invariants()


def run_cluster(
    config: ClusterConfig,
    load: Optional[float] = None,
    rate: Optional[float] = None,
    duration: float = 0.02,
    warmup: float = 0.005,
    target_completions: Optional[int] = None,
) -> Rack:
    """Build a rack, attach traffic, run it, and verify invariants.

    Returns the :class:`Rack`; client-visible results are in
    ``rack.metrics``, per-server detail in ``rack.servers[i].system``.
    """
    rack = Rack(config)
    rack.attach_open_loop(load=load, rate=rate)
    rack.run(duration=duration, warmup=warmup, target_completions=target_completions)
    rack.check_invariants()
    return rack
