"""The dist worker: one process hosting a slice of the rack's servers.

``python -m repro.dist.worker --connect ADDR --worker-id I --token T``
connects back to the coordinator, introduces itself with ``hello``, and
then serves the wire protocol (:mod:`repro.dist.wire`) until
``shutdown``. Each ``configure`` builds one episode: a local
:class:`~repro.sim.engine.Simulator` hosting this worker's
:class:`WorkerServer` instances — each an unmodified
:class:`~repro.sdp.system.DataPlaneSystem` built from the very same
``ClusterConfig.server_config(index)`` the shared-timeline rack uses, so
per-server random streams, queue stickiness, and service draws are
identical to :class:`repro.cluster.rack.ClusterServer`'s.

Each ``step`` carries a *batch* of lookahead windows. The worker
executes them strictly in sequence — per window it applies the fault
directives and dispatch records (drawing the service demand from the
target server's own stream, in dispatch-time order, exactly as
``Rack.dispatch`` does), advances the local clock to that window's
bound in ``max_events`` slices (emitting ``heartbeat`` frames between
slices so the coordinator can tell a slow batch from a dead process),
and snapshots the window's outcomes into its own reply block. Scheduling
window N+1's arrivals only after window N has fully run keeps the event
heap's same-timestamp insertion order identical to the one-RPC-per-
window lockstep protocol, which is what preserves bit-exactness under
lookahead. Requests delivered to a down server, stale-epoch
completions, and full-queue rejections are reported back per window in
``step_ok`` for the coordinator's balancer and failover accounting; a
piggybacked ``collect`` request (the run's final batch) returns the
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

from repro.dist.wire import Channel, ChannelClosed

# How many events a worker retires between heartbeats while executing a
# step. Small enough for sub-second liveness at any realistic rate,
# large enough that the check never shows up in a profile.
DEFAULT_HEARTBEAT_EVENTS = 250_000

# Outcome block for a window with nothing to report (sparse replays are
# mostly these). Tuples keep it safely immutable for reuse.
_EMPTY_BLOCK = {
    "completions": (),
    "losses": (),
    "rejects": (),
    "redispatches": (),
}


class WorkerServer:
    """One rack slot hosted in this process (mirror of ``ClusterServer``).

    The simulation substrate is identical — same derived per-server
    config and seed, same notification build, same link model, same
    flow-to-queue stickiness — only the fleet callbacks differ: instead
    of touching a shared rack, completions/losses/rejections/failovers
    are buffered on the :class:`WorkerHost` and shipped to the
    coordinator at the end of the window.
    """

    def __init__(self, host: "WorkerHost", index: int):
        from repro.cluster.link import Link
        from repro.cluster.tables import cumulative_weight_table
        from repro.core.dataplane import build_hyperplane
        from repro.sdp.spinning import build_spinning_cores
        from repro.sdp.system import DataPlaneSystem, FastpathContext

        cluster_config = host.cluster_config
        config = cluster_config.server_config(index)
        self.host = host
        self.index = index
        self.config = config
        self.system = DataPlaneSystem(config, sim=host.sim)
        # Must precede core construction: single-core spinning clusters
        # read it to collapse turns (exactly as on the shared-timeline
        # rack, so schedules and stream draws stay bit-identical across
        # backends).
        self.fastpath = self.system.fastpath = FastpathContext()
        if cluster_config.notification == "spinning":
            self.accelerator = None
            self.cores = build_spinning_cores(self.system)
        else:
            self.accelerator, self.cores = build_hyperplane(self.system)
        self.link = Link(
            cluster_config.link_gbps,
            cluster_config.link_propagation_s,
            name=f"server{index}.link",
        )
        self.up = True
        self.epoch = 0
        self.slow_factor = 1.0
        self.dispatched = 0
        self.completed_ok = 0
        self.lost = 0
        self.rejected = 0
        self._weight_table = cumulative_weight_table(
            self.system.shape.weights(config.num_queues)
        )
        self._flow_queue_map = self._weight_table.flow_map(config.seed)
        self.system.completion_hooks.append(self._on_complete)

    def queue_for_flow(self, flow: int) -> int:
        qid = self._flow_queue_map.get(flow)
        if qid is None:
            qid = self._flow_queue_map[flow] = self._weight_table.compute(
                self.config.seed, flow
            )
        return qid

    def deliver(
        self, req_id: int, flow: int, arrival_time: float, base_service: float
    ) -> None:
        """Link arrival of one request (scheduled by the step handler)."""
        from repro.queueing.taskqueue import WorkItem

        fastpath = self.fastpath
        if fastpath.pending_deliveries:
            fastpath.pending_deliveries -= 1
        if not self.up:
            # Died while the request was on the wire: the coordinator
            # retries it elsewhere after the failover delay.
            self.host.report_redispatch(req_id, flow, arrival_time, base_service)
            return
        self.dispatched += 1
        if self.host.telemetry is not None:
            self.host.telemetry.dispatches.inc()
        item = WorkItem(
            item_id=req_id,
            qid=self.queue_for_flow(flow),
            arrival_time=arrival_time,
            service_time=base_service * self.slow_factor,
            payload=(req_id, flow, self.epoch, base_service),
        )
        if not self.system.queues[item.qid].enqueue(item):
            self.rejected += 1
            self.host.report_reject(req_id, self.index)

    def _on_complete(self, item) -> None:
        payload = item.payload
        if not (isinstance(payload, tuple) and len(payload) == 4):
            return
        req_id, _flow, epoch, _base_service = payload
        if self.up and epoch == self.epoch:
            self.completed_ok += 1
            self.host.report_completion(
                req_id, self.host.sim.now, item.latency, self.index
            )
        else:
            self.lost += 1
            self.host.report_loss(req_id, self.index)

    def crash(self) -> None:
        """Mark down, bump the epoch, surrender the queued backlog."""
        if not self.up:
            return
        self.up = False
        self.epoch += 1
        now = self.host.sim.now
        for queue in self.system.queues:
            for item in queue.pending_items():
                payload = item.payload
                if not (isinstance(payload, tuple) and len(payload) == 4):
                    continue
                req_id, flow, _epoch, base_service = payload
                self.host.report_redispatch(
                    req_id, flow, item.arrival_time, base_service, at=now
                )

    def restart(self) -> None:
        self.up = True


class WorkerHost:
    """Protocol handler: owns the episode state and the reply cache."""

    def __init__(self, channel: Channel, worker_id: int):
        self.channel = channel
        self.worker_id = worker_id
        self.sim = None
        self.cluster_config = None
        self.servers: Dict[int, WorkerServer] = {}
        self.registry = None
        self._registry_cm = None
        self.telemetry = None
        self.heartbeat_events = DEFAULT_HEARTBEAT_EVENTS
        self._warmup = 0.0
        self._crash_at: Optional[float] = None
        self._last_seq: Optional[int] = None
        self._last_reply: Optional[Dict[str, Any]] = None
        # Per-window outboxes, drained into each step_ok reply.
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
        self,
        req_id: int,
        flow: int,
        arrival_time: float,
        base_service: float,
        at: Optional[float] = None,
    ) -> None:
        when = self.sim.now if at is None else at
        self._redispatches.append([req_id, when, flow, arrival_time, base_service])
        if self.telemetry is not None:
            self.telemetry.redispatches.inc()

    # -- handlers ------------------------------------------------------------

    def _handle_configure(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        from repro.cluster.config import ClusterConfig
        from repro.obs import MetricsRegistry
        from repro.obs.runtime import active_registry
        from repro.sim.engine import Simulator

        if self._registry_cm is not None:
            self._registry_cm.__exit__(None, None, None)
            self._registry_cm = None
        self.cluster_config = ClusterConfig(**msg["config"])
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

    def _apply_fault(self, directive: Dict[str, Any]) -> None:
        kind = directive["kind"]
        server = self.servers[int(directive["server"])]
        if kind == "crash":
            server.crash()
        elif kind == "restart":
            server.restart()
        elif kind == "slow":
            server.slow_factor = float(directive["magnitude"])
        elif kind == "link":
            server.link.degrade = float(directive["magnitude"])
        else:
            raise ValueError(f"unknown fault directive kind {kind!r}")
        if self.telemetry is not None:
            fields = {"server": int(directive["server"]), "t": self.sim.now}
            if "magnitude" in directive:
                fields["magnitude"] = directive["magnitude"]
            self.telemetry.record_event(f"fault:{kind}", **fields)

    def _run_window(self, window: Dict[str, Any]) -> Dict[str, Any]:
        """Apply one window's faults and dispatches, run to its bound,
        and return the window's outcome block."""
        sim = self.sim
        until = float(window["until"])
        dispatches = window.get("dispatches")
        faults = window.get("faults")
        if faults:
            times = []
            for directive in faults:
                when = float(directive["time"])
                times.append(when)
                sim.schedule_at(when, self._apply_fault, directive)
            # Fault boundaries gate the fast cores' collapsed turns:
            # conservatively give every server this window's full set.
            times.sort()
            for server in self.servers.values():
                server.fastpath.set_fault_times(times)
        if dispatches:
            # Dispatch-time order per server == the rack's per-server
            # order, so service-stream draws and link FIFO state match
            # exactly.
            records = sorted(dispatches, key=lambda r: (r["t"], r["id"]))
            request_bytes = self.cluster_config.request_bytes
            schedule_at = sim.schedule_at
            servers = self.servers
            for record in records:
                server = servers[record["server"]]
                base_service = record.get("svc")
                if base_service is None:
                    base_service = server.system.service_model()
                t = record["t"]
                delay = server.link.transfer_delay(t, request_bytes)
                server.fastpath.pending_deliveries += 1
                schedule_at(
                    t + delay,
                    server.deliver,
                    record["id"],
                    record["flow"],
                    record.get("arr", t),
                    base_service,
                )
        # Advance to the bound in slices, heartbeating between them.
        telemetry = self.telemetry
        while True:
            sim.run(until=until, max_events=self.heartbeat_events)
            if sim.now >= until and (not sim.pending or sim.peek() > until):
                break
            heartbeat = {
                "type": "heartbeat", "worker_id": self.worker_id, "t": sim.now,
            }
            if telemetry is not None:
                # Long windows stream through heartbeats so the
                # coordinator's view stays fresh mid-step.
                telemetry.maybe_sample(sim.now)
                frames = telemetry.drain()
                if frames:
                    heartbeat["telemetry"] = frames
            self.channel.send(heartbeat)
        if telemetry is not None:
            telemetry.maybe_sample(sim.now)
        if not (
            self._completions
            or self._losses
            or self._rejects
            or self._redispatches
        ):
            # Quiet window: one shared immutable block serves every
            # reply (encode-only, never mutated).
            return _EMPTY_BLOCK
        block = {
            "completions": self._completions,
            "losses": self._losses,
            "rejects": self._rejects,
            "redispatches": self._redispatches,
        }
        self._completions, self._losses = [], []
        self._rejects, self._redispatches = [], []
        return block

    def _handle_step(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        blocks = [self._run_window(window) for window in msg["windows"]]
        reply = {
            "type": "step_ok",
            "worker_id": self.worker_id,
            "t": self.sim.now,
            "windows": blocks,
        }
        collect = msg.get("collect")
        if collect is not None:
            # The coordinator knew this batch ends the run: fold the
            # collect round-trip into the same exchange.
            reply["collected"] = self._handle_collect(collect)
        if self.telemetry is not None:
            # _handle_collect flushes into its own payload, so this
            # drain carries only frames sampled during the windows.
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
                server.system.check_invariants()
                if server.accelerator is not None:
                    server.accelerator.check_no_lost_wakeups(
                        being_serviced={
                            core.servicing
                            for core in server.cores
                            if core.servicing is not None
                        }
                    )
            except Exception as exc:  # surfaced, not fatal: partial data
                invariants = f"server {index}: {exc}"
            per_server[str(index)] = {
                "dispatched": server.dispatched,
                "completed_ok": server.completed_ok,
                "lost": server.lost,
                "rejected": server.rejected,
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
