"""The dist worker: one process hosting a slice of the rack's servers.

``python -m repro.dist.worker --connect ADDR --worker-id I --token T``
connects back to the coordinator, introduces itself with ``hello``, and
then serves the wire protocol (:mod:`repro.dist.wire`) until
``shutdown``. Each ``configure`` builds one episode: a local
:class:`~repro.sim.engine.Simulator` hosting this worker's servers —
each a :class:`~repro.cluster.rack.ClusterServer`, the rack's own
server class, built from the same ``ClusterConfig.server_config(index)``
— and a :class:`~repro.cluster.controller.ClusterController` running
the run's fault schedule (carried once, in ``configure``) for this
worker's servers. A server here simulates exactly as on the
shared-timeline rack; only the reporting of outcomes differs.

Each ``step`` is one exchange: the bound ``until`` to advance to, and
only the windows in which this worker got a dispatch, each with its
opening bound ``start``. Per listed window the worker advances its
clock to ``start``, then schedules one event per dispatch record at the
record's dispatch time, which crosses the target server's link
(:meth:`~repro.cluster.rack.ClusterServer.cross_link`, as the rack's
front-end sink does); after the last window it advances to ``until``.
A window's dispatches thus enter the heap once every event up to the
window's opening bound has run, the point at which one-window lockstep
scheduled them, so every dispatch keeps its sequence number relative
to every other event and ties at equal instants pop as in lockstep.
Only the run bounds differ: a quiet window costs no separate advance.
The clock advances in ``max_events`` slices, emitting ``heartbeat``
frames between slices so the coordinator can tell a slow exchange from
a dead process, and, with telemetry on, stops at each cadence instant
on the way to sample there. The reply is one outcome block for the
exchange: completions, losses (stale-epoch or down-server
completions), full-queue rejections and requests to re-dispatch, for
the coordinator's balancer and failover accounting; a piggybacked
``collect`` request (the run's final exchange) returns the
``collected`` payload inside the same reply.

Replies are cached per ``seq`` (at-most-once): a retried request returns
the cached reply instead of re-executing the step.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import traceback
from typing import Any, Dict, List, Optional

from repro.cluster.controller import ClusterController
from repro.cluster.faults import FaultEvent
from repro.cluster.rack import ClusterServer
from repro.dist.wire import Channel, ChannelClosed
from repro.queueing.taskqueue import WorkItem

# How many events a worker retires between heartbeats while executing a
# step. Small enough for sub-second liveness at any realistic rate,
# large enough that the check never shows up in a profile.
DEFAULT_HEARTBEAT_EVENTS = 250_000


class WorkerServer(ClusterServer):
    """A rack server hosted in this process; ``rack`` is the
    :class:`WorkerHost`.

    It replaces two things of :class:`ClusterServer`: delivery, whose
    item id is the coordinator's request id, and completion reporting,
    which buffers outcomes on the host for the coordinator instead of
    folding them into a shared rack.
    """

    __slots__ = ()

    def deliver(
        self, req_id: int, flow: int, arrival_time: float, base_service: float
    ) -> None:
        """Link arrival of one request (scheduled by its dispatch)."""
        fastpath = self.fastpath
        if fastpath.pending_deliveries:
            fastpath.pending_deliveries -= 1
        if not self.up:
            # Died while the request was on the wire: the coordinator
            # retries it elsewhere after the failover delay.
            self.rack.report_redispatch(req_id, flow, arrival_time, base_service)
            return
        item = WorkItem(
            req_id,
            self.queue_for_flow(flow),
            arrival_time,
            base_service * self.slow_factor,
            (flow, self.epoch, base_service),
        )
        if not self._queues[item.qid].enqueue(item):
            self.rack.report_reject(req_id, self.index)

    def _on_complete(self, item: WorkItem) -> None:
        payload = item.payload
        if not (isinstance(payload, tuple) and len(payload) == 3):
            return
        if self.up and payload[1] == self.epoch:
            self.completed_ok += 1
            self.rack.report_completion(
                item.item_id,
                item.completion_time,
                self.system.last_latency,
                self.index,
            )
        else:
            self.lost += 1
            self.rack.report_loss(item.item_id, self.index)


class WorkerHost:
    """Protocol handler: owns the episode state and the reply cache.

    To its servers and its fault controller it is the rack: it has the
    ``config``, ``sim`` and ``servers`` (by server index) they read, and
    the ``crash_server``/``restart_server`` the controller calls.
    """

    def __init__(self, channel: Channel, worker_id: int):
        self.channel = channel
        self.worker_id = worker_id
        self.sim = None
        self.config = None
        self.servers: Dict[int, WorkerServer] = {}
        self.controller: Optional[ClusterController] = None
        self.registry = None
        self._registry_cm = None
        self.telemetry = None
        self.heartbeat_events = DEFAULT_HEARTBEAT_EVENTS
        self._warmup = 0.0
        self._crash_at: Optional[float] = None
        self._last_seq: Optional[int] = None
        self._last_reply: Optional[Dict[str, Any]] = None
        # Outboxes, drained into each step_ok reply.
        self._completions: List[List[float]] = []
        self._losses: List[List[float]] = []
        self._rejects: List[List[float]] = []
        self._redispatches: List[List[float]] = []

    # -- reporting hooks (called from inside the simulation) -----------------

    def report_completion(
        self, req_id: int, t: float, latency: float, server: int
    ) -> None:
        self._completions.append([req_id, t, latency, server])
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.completions.inc()
            telemetry.latency.observe(latency)

    def report_loss(self, req_id: int, server: int) -> None:
        self._losses.append([req_id, self.sim.now, server])
        if self.telemetry is not None:
            self.telemetry.losses.inc()

    def report_reject(self, req_id: int, server: int) -> None:
        self._rejects.append([req_id, self.sim.now, server])
        if self.telemetry is not None:
            self.telemetry.rejects.inc()

    def report_redispatch(
        self, req_id: int, flow: int, arrival_time: float, base_service: float
    ) -> None:
        self._redispatches.append(
            [req_id, self.sim.now, flow, arrival_time, base_service]
        )
        if self.telemetry is not None:
            self.telemetry.redispatches.inc()

    def _record_fault(self, event: FaultEvent, end: bool) -> None:
        fields = {
            "server": event.server,
            "t": self.sim.now,
            "magnitude": event.magnitude,
        }
        if end:
            fields["end"] = True
        self.telemetry.record_event(f"fault:{event.kind}", **fields)

    # -- the controller's rack interface -------------------------------------

    def crash_server(self, index: int) -> None:
        """Mark a server down and surrender its queued backlog to the
        coordinator, which re-dispatches it after the failover delay."""
        server = self.servers[index]
        if not server.up:
            return
        for item in server.fail():
            flow, _epoch, base_service = item.payload
            self.report_redispatch(
                item.item_id, flow, item.arrival_time, base_service
            )

    def restart_server(self, index: int) -> None:
        self.servers[index].up = True

    # -- handlers ------------------------------------------------------------

    def _handle_configure(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        from repro.cluster.config import ClusterConfig
        from repro.obs import MetricsRegistry
        from repro.obs.runtime import active_registry
        from repro.sim.engine import Simulator

        if self._registry_cm is not None:
            self._registry_cm.__exit__(None, None, None)
            self._registry_cm = None
        self.config = ClusterConfig(**msg["config"])
        self.registry = MetricsRegistry(enabled=bool(msg.get("metrics", False)))
        self._registry_cm = active_registry(self.registry)
        self._registry_cm.__enter__()
        self.sim = Simulator()
        self.heartbeat_events = int(
            msg.get("heartbeat_events", DEFAULT_HEARTBEAT_EVENTS)
        )
        self.servers = {
            int(index): WorkerServer(self, int(index))
            for index in msg["servers"]
        }
        self._warmup = float(msg.get("warmup", 0.0))
        for server in self.servers.values():
            server.system.metrics.latency.warmup_time = self._warmup
            server.system.metrics.measure_start = self._warmup
        telemetry_config = msg.get("telemetry")
        if telemetry_config:
            from repro.obs.live import (
                DEFAULT_TELEMETRY_INTERVAL_S,
                TelemetrySampler,
            )

            # interval_s == 0 builds the null sampler: a bus is attached
            # but every hook hits shared no-op instruments — the
            # 'disabled' leg of the telemetry_overhead bench.
            self.telemetry = TelemetrySampler(
                self.worker_id,
                interval_s=float(
                    telemetry_config.get(
                        "interval_s", DEFAULT_TELEMETRY_INTERVAL_S
                    )
                ),
                queue_depth_fn=self._queue_depth,
                sim_events_fn=lambda: float(self.sim.events_dispatched),
            )
        else:
            self.telemetry = None
        # The run's fault schedule, as Rack.run installs it: every
        # server's collapsed turns stop at every apply/revert instant,
        # and the controller, started before any dispatch is scheduled,
        # fires each fault ahead of run-time events at the same instant
        # (the order FastpathContext.next_boundary_after assumes).
        events = [FaultEvent(**fault) for fault in msg["faults"]]
        times = sorted(
            t for event in events for t in (event.time, event.end_time)
        )
        for server in self.servers.values():
            server.fastpath.set_fault_times(times)
        self.controller = ClusterController(
            self, [event for event in events if event.server in self.servers]
        )
        if self.telemetry is not None:
            self.controller.fault_hooks.append(self._record_fault)
        self.controller.start()
        self._crash_at = msg.get("crash_at")
        if self._crash_at is not None:
            # Fault-injection hook for tests: die mid-step, abruptly,
            # exactly as a kill -9 would look from the coordinator.
            self.sim.schedule_at(float(self._crash_at), self._die)
        self._completions, self._losses = [], []
        self._rejects, self._redispatches = [], []
        return {
            "type": "ready",
            "worker_id": self.worker_id,
            "servers": sorted(self.servers),
        }

    def _die(self) -> None:
        os._exit(17)

    def _queue_depth(self) -> float:
        """Tasks queued across this worker's servers (pull-gauge source)."""
        return float(
            sum(
                len(queue)
                for server in self.servers.values()
                for queue in server.system.queues
            )
        )

    def _dispatch(
        self,
        server: WorkerServer,
        req_id: int,
        flow: int,
        arrival_time: float,
        base_service: Optional[float],
    ) -> None:
        """One dispatch record, at its dispatch time: cross the chosen
        server's link and schedule the delivery, as the rack does."""
        server.cross_link(
            self.sim.now, base_service, server.deliver, req_id, flow, arrival_time
        )
        if self.telemetry is not None:
            self.telemetry.dispatches.inc()

    def _advance(self, until: float) -> None:
        """Run the local clock to ``until`` in ``max_events`` slices,
        heartbeating between slices and sampling telemetry at each
        cadence instant on the way."""
        sim = self.sim
        telemetry = self.telemetry
        while True:
            bound = until
            if telemetry is not None and telemetry.next_sample_t < until:
                bound = telemetry.next_sample_t
            sim.run(until=bound, max_events=self.heartbeat_events)
            if sim.now >= bound and (not sim.pending or sim.peek() > bound):
                if telemetry is not None:
                    telemetry.maybe_sample(bound)
                if bound == until:
                    return
                continue
            heartbeat = {
                "type": "heartbeat", "worker_id": self.worker_id, "t": sim.now,
            }
            if telemetry is not None:
                # Long exchanges stream through heartbeats so the
                # coordinator's view stays fresh mid-step.
                frames = telemetry.drain()
                if frames:
                    heartbeat["telemetry"] = frames
            self.channel.send(heartbeat)

    def _handle_step(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        schedule_at = self.sim.schedule_at
        dispatch = self._dispatch
        servers = self.servers
        for window in msg["windows"]:
            self._advance(window["start"])
            # The coordinator lists records in its steering order (by
            # time, then id); the heap keeps that order among equal
            # times, so service-stream draws and link FIFO state follow
            # the rack's dispatch order.
            for record in window["dispatches"]:
                t = record["t"]
                schedule_at(
                    t,
                    dispatch,
                    servers[record["server"]],
                    record["id"],
                    record["flow"],
                    record.get("arr", t),
                    record.get("svc"),
                )
        self._advance(msg["until"])
        reply = {
            "type": "step_ok",
            "worker_id": self.worker_id,
            "t": self.sim.now,
            "completions": self._completions,
            "losses": self._losses,
            "rejects": self._rejects,
            "redispatches": self._redispatches,
        }
        self._completions, self._losses = [], []
        self._rejects, self._redispatches = [], []
        collect = msg.get("collect")
        if collect is not None:
            # The coordinator knew this exchange ends the run: fold
            # the collect round-trip into it.
            reply["collected"] = self._handle_collect(collect)
        if self.telemetry is not None:
            # _handle_collect flushes into its own payload, so this
            # drain carries only frames sampled during the exchange.
            frames = self.telemetry.drain()
            if frames:
                reply["telemetry"] = frames
        return reply

    def _handle_collect(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        measure_end = float(msg.get("measure_end", self.sim.now))
        invariants = "ok"
        per_server = {}
        for index, server in sorted(self.servers.items()):
            server.system.metrics.measure_end = measure_end
            try:
                server.check_invariants()
            except Exception as exc:  # surfaced, not fatal: partial data
                invariants = f"server {index}: {exc}"
            per_server[str(index)] = {
                "dispatched": server.dispatched,
                "completed_ok": server.completed_ok,
                "lost": server.lost,
                "rejected": sum(
                    queue.stats.dropped for queue in server.system.queues
                ),
                "up": server.up,
                "epoch": server.epoch,
            }
        snapshot = None
        if self.registry is not None and self.registry.enabled:
            # Mirror Rack.run's accounting: the local simulator retired
            # these events on behalf of the fleet.
            self.registry.counter(
                "sim.events_total", help="events retired across all runs"
            ).inc(self.sim.events_dispatched)
            snapshot = self.registry.snapshot()
        reply = {
            "type": "collected",
            "worker_id": self.worker_id,
            "node": {
                "worker_id": self.worker_id,
                "pid": os.getpid(),
                "servers": sorted(self.servers),
                "sim_events": self.sim.events_dispatched,
                "sim_time": self.sim.now,
                "invariants": invariants,
                "per_server": per_server,
            },
            "metrics": snapshot,
        }
        if self.telemetry is not None:
            # End of episode: force one final frame so the coordinator's
            # live view converges on the collected totals.
            frames = self.telemetry.flush(self.sim.now)
            if frames:
                reply["telemetry"] = frames
        return reply

    def handle(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        kind = msg.get("type")
        if kind == "configure":
            return self._handle_configure(msg)
        if kind == "step":
            return self._handle_step(msg)
        if kind == "collect":
            return self._handle_collect(msg)
        if kind == "shutdown":
            return {"type": "bye", "worker_id": self.worker_id}
        raise ValueError(f"worker cannot handle message type {kind!r}")

    def serve(self) -> None:
        """The request loop: recv, dedup by seq, execute, reply."""
        while True:
            msg = self.channel.recv(timeout=None)
            if msg.get("type") == "heartbeat":
                continue
            seq = msg.get("seq")
            if seq is not None and seq == self._last_seq:
                # A retry of the request we already executed: replay the
                # cached reply, never the side effects.
                self.channel.send(self._last_reply)
                continue
            try:
                reply = self.handle(msg)
            except Exception:
                reply = {
                    "type": "error",
                    "seq": seq,
                    "traceback": traceback.format_exc(),
                }
            else:
                reply["seq"] = seq
            self._last_seq, self._last_reply = seq, reply
            self.channel.send(reply)
            if reply["type"] == "bye":
                return


def connect(address: str, transport: str) -> socket.socket:
    if transport == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(address)
    else:
        host, _, port = address.rpartition(":")
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.connect((host, int(port)))
    return sock


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro-dist-worker")
    parser.add_argument("--connect", required=True)
    parser.add_argument("--worker-id", type=int, required=True)
    parser.add_argument("--token", required=True)
    parser.add_argument("--transport", choices=("unix", "tcp"), default="unix")
    args = parser.parse_args(argv)
    channel = Channel(
        connect(args.connect, args.transport), name=f"worker{args.worker_id}"
    )
    channel.send(
        {
            "type": "hello",
            "worker_id": args.worker_id,
            "token": args.token,
            "pid": os.getpid(),
        }
    )
    host = WorkerHost(channel, args.worker_id)
    try:
        host.serve()
    except ChannelClosed:
        # Coordinator went away; nothing left to report to.
        return 1
    finally:
        channel.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
