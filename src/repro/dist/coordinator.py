"""The dist coordinator: spawn workers, replay traffic, merge results.

:func:`run_cluster_dist` is the multi-process counterpart of
:func:`repro.cluster.rack.run_cluster`: the same :class:`ClusterConfig`,
the same client-visible :class:`~repro.cluster.metrics.ClusterMetrics`,
but every server simulated inside a spawned worker process
(:mod:`repro.dist.worker`) connected over loopback TCP or a Unix socket.

The coordinator owns exactly the state the shared-timeline rack keeps at
the fleet layer — the balancer (with the same ``cluster.balancer``
random stream and ring seed), the arrival process (same
``cluster.arrivals``/``cluster.flows`` streams via
:class:`~repro.dist.replay.PoissonSource`), and the fault schedule (same
``cluster.faults`` stream, sent to every worker once in ``configure``)
— and advances the fleet in *lockstep windows*: all dispatches falling
inside a window are steered and sent to the owning workers, every
worker simulates to the window bound, and the reported completions are
folded into the fleet metrics in global time order before the next
window's steering decisions.

The window length is chosen to divide the rack's target-check chunk
(2 ms) and not exceed ``failover_delay_s``, which makes the two runtimes
agree closely: failover re-dispatches always land in a later window
(exactly as the rack schedules them), measurement stops at identical
chunk boundaries, and the only cross-window approximation left is that
the balancer sees a completion up to one window late — invisible to the
load-oblivious policies (``rss``, ``round-robin``) and a documented
statistical tolerance for the load-aware ones (see docs/distributed.md).

Worker failures degrade gracefully: a vanished process (EOF on its
channel, or a liveness timeout with retries exhausted) marks its servers
down, re-dispatches every request it still held to the survivors after
the failover delay, flags the run as ``partial``, and records the fault
in the dist provenance block that lands in the RunManifest.
"""

from __future__ import annotations

import heapq
import math
import os
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.rack import CHECK_CHUNK_S
from repro.dist.wire import (
    DEFAULT_BACKOFF_CAP_S,
    DEFAULT_BACKOFF_S,
    DEFAULT_RETRIES,
    Channel,
    ChannelClosed,
    ChannelTimeout,
)
from repro.obs.live import DEFAULT_TELEMETRY_INTERVAL_S

TRANSPORTS = ("unix", "tcp")

# Balancer policies whose steering decisions cannot depend on completion
# feedback: placement is a pure function of the flow key (rss) or of the
# dispatch order (round-robin). For these, any lookahead depth is exact,
# so batches run to the chunk boundary. The load-aware policies
# (least-loaded, p2c) see completions one exchange late, so their
# lookahead is capped to keep the documented statistical tolerance.
LOAD_OBLIVIOUS_POLICIES = ("rss", "round-robin")

# Measured on the cluster_scaleout fast grid (docs/distributed.md):
# at 4 windows of lookahead the load-aware p99 stays inside the same
# <=0.12 envelope the one-window lockstep protocol had (worst row
# 0.105); at 8 windows the stale-feedback drift breaches the CI gate
# (worst row 0.34), so 4 is the default ceiling.
LOAD_AWARE_LOOKAHEAD = 4


class DistError(RuntimeError):
    """A distributed run failed for an operational (non-usage) reason."""


class WorkerSpawnError(DistError):
    """A worker process failed to start or report in."""


@dataclass(frozen=True)
class DistOptions:
    """Knobs of the distributed runtime (not of the simulated rack).

    ``workers`` processes split the rack's servers round-robin; a fleet
    never spawns more workers than servers. ``speed_factor`` paces the
    replay against the wall clock (0 = max speed, the CI default).
    ``lookahead`` caps how many pre-steered windows ship per RPC
    exchange (``None`` = derive a safe depth from the balancer policy
    and the fault schedule; ``1`` is strict lockstep, one window per
    exchange). ``timeout_s``, ``retries``, ``backoff_s`` and
    ``backoff_cap_s`` drive the one retry loop
    (:meth:`~repro.dist.wire.Channel.await_reply`).
    ``crash_worker``/``crash_worker_at`` inject an abrupt worker death
    (``os._exit`` mid-step) for failover testing.

    ``telemetry_interval_s`` sets the workers' live-telemetry sampling
    cadence in simulated seconds once a bus is attached
    (``run_cluster_dist(..., telemetry=...)``); ``0`` attaches
    telemetry with sampling off (workers build null samplers — the
    priced "disabled" path of the ``telemetry_overhead`` bench).
    ``flight_recorder_dir`` pins where a crash post-mortem dump is
    written (default: the system temp dir).
    """

    workers: int = 2
    transport: str = "unix"
    speed_factor: float = 0.0
    lookahead: Optional[int] = None
    timeout_s: float = 30.0
    retries: int = DEFAULT_RETRIES
    backoff_s: float = DEFAULT_BACKOFF_S
    backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S
    heartbeat_events: int = 250_000
    spawn_timeout_s: float = 30.0
    crash_worker: Optional[int] = None
    crash_worker_at: Optional[float] = None
    telemetry_interval_s: float = DEFAULT_TELEMETRY_INTERVAL_S
    flight_recorder_dir: Optional[str] = None

    def __post_init__(self):
        if self.workers <= 0:
            raise ValueError("need at least one worker")
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r}; known: {TRANSPORTS}"
            )
        if self.speed_factor < 0:
            raise ValueError("speed_factor must be >= 0 (0 = max speed)")
        if self.lookahead is not None and self.lookahead < 1:
            raise ValueError("lookahead must be >= 1 (or None for auto)")
        if self.timeout_s <= 0 or self.spawn_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        if self.backoff_s < 0 or self.backoff_cap_s <= 0:
            raise ValueError("backoff must be non-negative, its cap positive")
        if self.heartbeat_events < 1:
            raise ValueError("heartbeat_events must be >= 1")
        if (self.crash_worker is None) != (self.crash_worker_at is None):
            raise ValueError("crash_worker and crash_worker_at go together")
        if self.telemetry_interval_s < 0:
            raise ValueError(
                "telemetry_interval_s must be >= 0 (0 = sampling off)"
            )


@dataclass
class WorkerHandle:
    worker_id: int
    servers: List[int]
    process: subprocess.Popen
    channel: Optional[Channel] = None
    alive: bool = True
    last_heartbeat_t: float = 0.0


@dataclass
class DistRun:
    """Everything a distributed rack run produced."""

    metrics: Any  # ClusterMetrics
    nodes: List[Dict[str, Any]] = field(default_factory=list)
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        return bool(self.info.get("partial"))

    @property
    def worker_faults(self) -> List[Dict[str, Any]]:
        return list(self.info.get("worker_faults", []))


def _worker_env() -> Dict[str, str]:
    """Child environment with ``repro`` importable from this checkout."""
    import repro

    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else src_root + os.pathsep + existing
    )
    return env


class WorkerPool:
    """Spawn, connect, address, and clean up a fleet of worker processes."""

    def __init__(
        self,
        assignments: Dict[int, List[int]],
        transport: str = "unix",
        spawn_timeout_s: float = 30.0,
    ):
        import secrets

        self.transport = transport
        self.handles: List[WorkerHandle] = []
        self._tempdir: Optional[str] = None
        self._listener: Optional[socket.socket] = None
        token = secrets.token_hex(8)
        try:
            if transport == "unix":
                self._tempdir = tempfile.mkdtemp(prefix="repro-dist-")
                address = os.path.join(self._tempdir, "coordinator.sock")
                listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                listener.bind(address)
            else:
                listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                listener.bind(("127.0.0.1", 0))
                host, port = listener.getsockname()
                address = f"{host}:{port}"
            listener.listen(len(assignments))
            listener.settimeout(spawn_timeout_s)
            self._listener = listener

            env = _worker_env()
            for worker_id, servers in sorted(assignments.items()):
                try:
                    process = subprocess.Popen(
                        [
                            sys.executable,
                            "-m",
                            "repro.dist.worker",
                            "--connect",
                            address,
                            "--worker-id",
                            str(worker_id),
                            "--token",
                            token,
                            "--transport",
                            transport,
                        ],
                        env=env,
                        stdout=subprocess.DEVNULL,
                    )
                except OSError as exc:
                    raise WorkerSpawnError(
                        f"could not spawn worker {worker_id}: {exc}"
                    ) from exc
                self.handles.append(
                    WorkerHandle(worker_id=worker_id, servers=servers,
                                 process=process)
                )

            # Workers connect back in arbitrary order; hello names them.
            pending = {h.worker_id: h for h in self.handles}
            while pending:
                try:
                    sock, _ = listener.accept()
                except socket.timeout as exc:
                    raise WorkerSpawnError(
                        f"workers {sorted(pending)} never connected "
                        f"(waited {spawn_timeout_s:.0f}s)"
                    ) from exc
                channel = Channel(sock, name="worker?")
                hello = channel.recv(timeout=spawn_timeout_s)
                if hello.get("type") != "hello" or hello.get("token") != token:
                    channel.close()
                    raise WorkerSpawnError(
                        f"unexpected first frame on {transport} listener: "
                        f"{hello.get('type')!r}"
                    )
                worker_id = int(hello["worker_id"])
                handle = pending.pop(worker_id, None)
                if handle is None:
                    channel.close()
                    raise WorkerSpawnError(
                        f"unknown or duplicate worker id {worker_id}"
                    )
                channel.name = f"worker{worker_id}"
                handle.channel = channel
        except Exception:
            self.close()
            raise

    # -- messaging -----------------------------------------------------------

    def alive(self) -> List[WorkerHandle]:
        return [h for h in self.handles if h.alive]

    def mark_dead(self, handle: WorkerHandle) -> None:
        handle.alive = False
        if handle.channel is not None:
            handle.channel.close()
        if handle.process.poll() is None:
            handle.process.kill()
        handle.process.wait()

    def broadcast(
        self,
        messages: Dict[int, Dict[str, Any]],
        expect: str,
        timeout_s: float,
        retries: int,
        backoff_s: float,
        backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
        on_heartbeat=None,
    ) -> Tuple[Dict[int, Dict[str, Any]], List[WorkerHandle]]:
        """Send one request per alive worker, then await all replies.

        Sending everything before receiving anything is what lets the
        workers simulate their windows concurrently. Returns the replies
        by worker id and the handles that died (EOF, or liveness timeout
        after ``retries`` re-sends of the same at-most-once frame).

        ``on_heartbeat(handle, reply)`` receives every heartbeat's
        *full* payload (not just the liveness timestamp), so telemetry
        frames and future health data riding on heartbeats reach their
        consumers mid-step.
        """
        died: List[WorkerHandle] = []
        in_flight: List[Tuple[WorkerHandle, Dict[str, Any]]] = []
        for handle in self.handles:
            if not handle.alive or handle.worker_id not in messages:
                continue
            message = dict(messages[handle.worker_id])
            message["seq"] = handle.channel.next_seq()
            try:
                handle.channel.send(message)
            except ChannelClosed:
                self.mark_dead(handle)
                died.append(handle)
                continue
            in_flight.append((handle, message))

        replies: Dict[int, Dict[str, Any]] = {}
        for handle, message in in_flight:

            def heartbeat(reply) -> None:
                handle.last_heartbeat_t = float(reply.get("t", 0.0))
                if on_heartbeat is not None:
                    on_heartbeat(handle, reply)

            try:
                replies[handle.worker_id] = handle.channel.await_reply(
                    message, expect, timeout_s, retries, backoff_s,
                    backoff_cap_s, on_heartbeat=heartbeat,
                )
            except (ChannelClosed, ChannelTimeout):
                self.mark_dead(handle)
                died.append(handle)
        return replies, died

    def close(self) -> None:
        for handle in self.handles:
            if handle.alive and handle.channel is not None:
                try:
                    handle.channel.send({"type": "shutdown"})
                    deadline = time.monotonic() + 2.0
                    while time.monotonic() < deadline:
                        reply = handle.channel.recv(timeout=2.0)
                        if reply.get("type") == "bye":
                            break
                except Exception:
                    pass
            if handle.channel is not None:
                handle.channel.close()
            if handle.process.poll() is None:
                handle.process.terminate()
                try:
                    handle.process.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    handle.process.kill()
                    handle.process.wait()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self._tempdir is not None:
            import shutil

            shutil.rmtree(self._tempdir, ignore_errors=True)
            self._tempdir = None


def _pick_window(failover_delay_s: float) -> float:
    """The largest divisor of the 2 ms check chunk not above the
    failover delay — re-dispatches then always land in later windows and
    target-completion stops hit the rack's exact chunk boundaries."""
    if failover_delay_s <= 0:
        return CHECK_CHUNK_S
    slices = max(1, math.ceil(CHECK_CHUNK_S / failover_delay_s))
    return CHECK_CHUNK_S / slices


def run_cluster_dist(
    config,
    load: Optional[float] = None,
    rate: Optional[float] = None,
    duration: float = 0.02,
    warmup: float = 0.005,
    target_completions: Optional[int] = None,
    options: Optional[DistOptions] = None,
    source=None,
    telemetry=None,
) -> DistRun:
    """Run one rack episode across a fleet of worker processes.

    Mirrors :func:`repro.cluster.rack.run_cluster`'s signature and
    semantics; ``options`` configures the runtime (worker count,
    transport, pacing, fault injection) and ``source`` optionally
    replaces the rack-equivalent Poisson client population with any
    :class:`repro.dist.replay.ArrivalSource` (e.g. a recorded trace).

    ``telemetry`` optionally attaches a
    :class:`repro.obs.live.TelemetryBus`: the coordinator switches
    sampling on in every worker's ``configure``, folds the telemetry
    frames riding on step replies and heartbeats into the bus as they
    arrive, and on a worker crash attaches the dead worker's
    flight-recorder window to the fault record and dumps a post-mortem
    file (path in ``info["flight_recorder"]``). Telemetry never
    perturbs the simulation — runs are bit-exact with or without a bus.
    """
    from repro.cluster.balancer import AllServersDownError, LoadBalancer
    from repro.cluster.config import STREAM_BALANCER, STREAM_FAULTS
    from repro.cluster.faults import fault_schedule
    from repro.cluster.metrics import ClusterMetrics
    from repro.dist.replay import PoissonSource, ReplayPacer, take_window
    from repro.obs.runtime import get_active_registry
    from repro.sim.rng import RandomStreams, derive_seed
    from repro.traffic.arrivals import load_to_rate

    if options is None:
        options = DistOptions()
    if warmup < 0 or duration <= 0:
        raise ValueError("need positive duration, non-negative warmup")
    if source is None and (load is None) == (rate is None):
        raise ValueError("specify exactly one of load / rate")

    num_servers = config.num_servers
    num_workers = min(options.workers, num_servers)
    assignments = {
        worker_id: [s for s in range(num_servers) if s % num_workers == worker_id]
        for worker_id in range(num_workers)
    }
    owner = {s: s % num_workers for s in range(num_servers)}

    # Fleet-layer state, replicated from the rack with the same streams.
    streams = RandomStreams(config.seed)
    balancer = LoadBalancer(
        config.balancer,
        num_servers,
        rng=streams.stream(STREAM_BALANCER),
        seed=derive_seed(config.seed, "cluster.ring"),
    )
    total = warmup + duration
    metrics = ClusterMetrics(num_servers, warmup_time=warmup)
    metrics.measure_start = warmup
    faults = fault_schedule(
        config.fault_profile, num_servers, total, streams.stream(STREAM_FAULTS)
    )
    if source is None:
        if rate is None:
            mean = config.server_config(0).workload.mean_service_seconds
            fleet_cores = num_servers * config.cores_per_server
            rate = load_to_rate(load, mean, fleet_cores)
        source = PoissonSource(
            rate, config.num_flows, config.flow_skew, config.seed
        )

    # The workers' controllers apply the fault schedule to their own
    # servers; crash membership changes steer the balancer here.
    balancer_timeline: List[Tuple[float, str, int]] = []
    for event in faults:
        if event.kind == "crash":
            balancer_timeline.append((event.time, "down", event.server))
            balancer_timeline.append((event.end_time, "up", event.server))
    balancer_timeline.sort()

    registry = get_active_registry()
    collect_metrics = registry is not None and registry.enabled

    window = _pick_window(config.failover_delay_s)
    windows_per_chunk = max(1, round(CHECK_CHUNK_S / window))
    pacer = ReplayPacer(options.speed_factor)

    pool = WorkerPool(
        assignments,
        transport=options.transport,
        spawn_timeout_s=options.spawn_timeout_s,
    )
    worker_faults: List[Dict[str, Any]] = []
    permanently_down: set = set()
    info: Dict[str, Any] = {
        "workers": num_workers,
        "transport": options.transport,
        "speed_factor": options.speed_factor,
        "window_s": window,
        "partial": False,
        "worker_faults": worker_faults,
        "assignments": {str(k): v for k, v in assignments.items()},
    }

    try:
        import dataclasses

        config_dict = dataclasses.asdict(config)
        fault_dicts = [dataclasses.asdict(event) for event in faults]
        configure = {}
        for handle in pool.handles:
            message = {
                "type": "configure",
                "config": config_dict,
                "servers": handle.servers,
                "faults": fault_dicts,
                "warmup": warmup,
                "metrics": collect_metrics,
                "heartbeat_events": options.heartbeat_events,
            }
            if telemetry is not None:
                message["telemetry"] = {
                    "interval_s": options.telemetry_interval_s,
                }
            if options.crash_worker == handle.worker_id:
                message["crash_at"] = options.crash_worker_at
            configure[handle.worker_id] = message

        def fold_telemetry(frames) -> None:
            if telemetry is not None and frames:
                telemetry.ingest_all(frames)

        def on_heartbeat(handle: WorkerHandle, reply: Dict[str, Any]) -> None:
            fold_telemetry(reply.get("telemetry"))

        heartbeat_cb = on_heartbeat if telemetry is not None else None
        replies, died = pool.broadcast(
            configure, "ready", options.timeout_s, options.retries,
            options.backoff_s, options.backoff_cap_s,
        )
        if died or len(replies) != len(pool.handles):
            raise WorkerSpawnError(
                f"workers failed during configure: "
                f"{sorted(h.worker_id for h in died)}"
            )

        def fail_worker(handle: WorkerHandle, at: float, redisp_heap, seq) -> None:
            """Crash-fault handling for a vanished worker process."""
            info["partial"] = True
            fault = {
                "worker_id": handle.worker_id,
                "servers": handle.servers,
                "time": at,
                "kind": "worker-crash",
            }
            # Attach the crashed worker's last flight-recorder window —
            # its final streamed frames survive coordinator-side even
            # though the process died mid-step — or say explicitly that
            # none exists, so post-mortems never guess.
            if telemetry is not None:
                window = telemetry.flight_window(handle.worker_id)
                fault["telemetry"] = window if window else "no_telemetry"
                path = info.get("flight_recorder")
                if path is None:
                    if options.flight_recorder_dir:
                        os.makedirs(options.flight_recorder_dir, exist_ok=True)
                    fd, path = tempfile.mkstemp(
                        prefix="repro-dist-flight-",
                        suffix=".jsonl",
                        dir=options.flight_recorder_dir,
                    )
                    os.close(fd)
                    info["flight_recorder"] = path
                telemetry.dump_flight_recorder(
                    path, reason=f"worker-{handle.worker_id}-crash"
                )
            else:
                fault["telemetry"] = "no_telemetry"
            worker_faults.append(fault)
            for server in handle.servers:
                permanently_down.add(server)
                if balancer.live[server]:
                    balancer.mark_down(server)
            # Every request this worker still held is retried on the
            # survivors after the detection delay, client-style.
            orphaned = [
                (rid, meta) for rid, meta in in_flight.items()
                if meta[2] == handle.worker_id
            ]
            for rid, (flow, arrival, _w) in sorted(orphaned):
                del in_flight[rid]
                metrics.redispatched += 1
                heapq.heappush(
                    redisp_heap,
                    (at + config.failover_delay_s, next(seq), flow, arrival, None),
                )

        # -- the batched lookahead window loop ----------------------------
        #
        # Same per-window steering and fold as the PR 7 lockstep
        # protocol, but K windows travel per RPC exchange. K is safe
        # because every cross-window dependency is bounded:
        #   * load-oblivious placement (rss, round-robin) never reads
        #     completion feedback, so steering ahead is exact;
        #   * unknown re-dispatches can only originate inside a modelled
        #     crash interval, and come due a full failover delay later —
        #     the batch stops strictly before the earliest such due time;
        #   * target-completion checks happen at 2 ms chunk boundaries,
        #     so batches never cross one.
        import itertools

        source_iter = iter(source)
        lookahead: List[Any] = []
        redispatch_heap: List[Tuple[float, int, int, float, Optional[float]]] = []
        tiebreak = itertools.count()
        ids = itertools.count(1)
        in_flight: Dict[int, Tuple[int, float, int]] = {}
        balancer_index = 0
        window_index = 0
        window_start = 0.0
        exchanges = 0
        collected_replies: Dict[int, Dict[str, Any]] = {}
        failover = config.failover_delay_s

        if options.lookahead is not None:
            max_ahead = options.lookahead
        elif options.speed_factor > 0:
            max_ahead = 1  # pacing wants per-window wall-clock granularity
        elif config.balancer in LOAD_OBLIVIOUS_POLICIES:
            max_ahead = windows_per_chunk
        else:
            max_ahead = min(LOAD_AWARE_LOOKAHEAD, windows_per_chunk)
        max_ahead = max(1, max_ahead)
        info["lookahead"] = max_ahead

        # Simulated spans inside which an *unknown* re-dispatch can
        # originate: modelled server crashes surrender their backlog at
        # the crash instant and bounce wire-deliveries while down.
        crash_intervals = sorted(
            (event.time, event.end_time)
            for event in faults
            if event.kind == "crash"
        )

        def batch_horizon(batch_start: float) -> float:
            """Exclusive bound on a batch starting at ``batch_start``:
            the earliest instant an in-batch re-dispatch could come due.
            Re-dispatches known *before* the batch sit in the heap and
            are steered normally; only crash-born ones are unknowable."""
            for start, end in crash_intervals:
                if end > batch_start:
                    return max(start, batch_start) + failover
            return math.inf

        def dispatch_one(batches, flow, t, arrival, svc) -> None:
            server = balancer.dispatch(flow)
            rid = next(ids)
            record = {"id": rid, "t": t, "flow": flow, "server": server}
            if arrival != t:
                record["arr"] = arrival
            if svc is not None:
                record["svc"] = svc
            batches[owner[server]].append(record)
            in_flight[rid] = (flow, arrival, owner[server])

        pacer.start(0.0)

        while window_start < total:
            # -- plan and steer one batch of pre-steered windows ----------
            horizon = batch_horizon(window_start)
            step_windows: Dict[int, List[Dict[str, Any]]] = {
                h.worker_id: [] for h in pool.alive()
            }
            batch_bounds: List[float] = []
            while len(batch_bounds) < max_ahead and window_start < total:
                window_end = min(window_start + window, total)
                if batch_bounds and window_end >= horizon:
                    # A crash-born re-dispatch could come due inside this
                    # window; stop the batch so it is steered with full
                    # knowledge next exchange. (The first window is always
                    # safe: that IS the lockstep granularity.)
                    break
                arrivals = take_window(lookahead, source_iter, window_end)

                if (
                    not arrivals
                    and not (
                        balancer_index < len(balancer_timeline)
                        and balancer_timeline[balancer_index][0] <= window_end
                    )
                    and not (
                        redispatch_heap
                        and redispatch_heap[0][0] <= window_end
                    )
                ):
                    # Nothing happens fleet-side this window: ship a bare
                    # clock advance. One shared dict serves every worker
                    # (encode-only, never mutated).
                    empty = {"until": window_end, "dispatches": ()}
                    for window_list in step_windows.values():
                        window_list.append(empty)
                    batch_bounds.append(window_end)
                    window_start = window_end
                    window_index += 1
                    if window_index % windows_per_chunk == 0:
                        break
                    continue

                # Interleave membership changes, due re-dispatches, and
                # fresh arrivals in simulated-time order, exactly the
                # order the rack's shared event heap would fire them in.
                events: List[Tuple[float, int, str, Any]] = []
                while (
                    balancer_index < len(balancer_timeline)
                    and balancer_timeline[balancer_index][0] <= window_end
                ):
                    t, action, server = balancer_timeline[balancer_index]
                    events.append((t, 0, action, server))
                    balancer_index += 1
                while redispatch_heap and redispatch_heap[0][0] <= window_end:
                    due, order, flow, arrival, svc = heapq.heappop(
                        redispatch_heap
                    )
                    events.append((due, 1, "redispatch", (flow, arrival, svc)))
                for record in arrivals:
                    events.append((record.time, 2, "arrive", record))
                events.sort(key=lambda e: (e[0], e[1]))

                batches: Dict[int, List[Dict[str, Any]]] = {
                    worker_id: [] for worker_id in step_windows
                }
                for t, _prio, action, payload in events:
                    if action == "down":
                        if balancer.live[payload]:
                            balancer.mark_down(payload)
                    elif action == "up":
                        if payload not in permanently_down:
                            balancer.mark_up(payload)
                    elif action == "redispatch":
                        flow, arrival, svc = payload
                        try:
                            dispatch_one(batches, flow, t, arrival, svc)
                        except AllServersDownError:
                            metrics.lost += 1
                    else:  # arrive
                        metrics.dispatched += 1
                        record = payload
                        try:
                            dispatch_one(
                                batches, record.flow, record.time,
                                record.time, record.service_s,
                            )
                        except AllServersDownError:
                            metrics.lost += 1

                for worker_id, window_list in step_windows.items():
                    window_list.append({
                        "until": window_end,
                        "dispatches": batches[worker_id],
                    })
                batch_bounds.append(window_end)
                window_start = window_end
                window_index += 1
                if window_index % windows_per_chunk == 0:
                    break  # chunk boundary: where target checks happen

            batch_end = batch_bounds[-1]
            final_batch = target_completions is None and window_start >= total
            steps = {
                worker_id: {"type": "step", "windows": window_list}
                for worker_id, window_list in step_windows.items()
            }
            if final_batch:
                # The run provably ends with this batch: piggyback the
                # collect round-trip on the same exchange.
                for message in steps.values():
                    message["collect"] = {"measure_end": batch_end}

            replies, died = pool.broadcast(
                steps, "step_ok", options.timeout_s, options.retries,
                options.backoff_s, options.backoff_cap_s,
                on_heartbeat=heartbeat_cb,
            )
            exchanges += 1
            if telemetry is not None:
                # Fold in worker-id order (after the exchange, before
                # failover accounting) so the bus sees the crashed
                # worker's last frames before the fault record reads its
                # flight window.
                for worker_id in sorted(replies):
                    fold_telemetry(replies[worker_id].get("telemetry"))
            for handle in died:
                fail_worker(handle, batch_end, redispatch_heap, tiebreak)
            if not pool.alive():
                raise DistError(
                    "every worker died; the fleet cannot make progress"
                )

            # Fold the batch window by window, workers in id order, then
            # completions in global (time, server, id) order — the exact
            # fold sequence of the one-window lockstep protocol, so the
            # fleet state evolves identically.
            sorted_ids = sorted(replies)
            for w_index in range(len(batch_bounds)):
                completions: List[Tuple[float, int, int, float]] = []
                for worker_id in sorted_ids:
                    blocks = replies[worker_id].get("windows") or []
                    if w_index >= len(blocks):
                        continue
                    block = blocks[w_index]
                    for rid, t, latency, server in block["completions"]:
                        completions.append((t, server, rid, latency))
                    for rid, t, server in block["losses"]:
                        balancer.complete(server)
                        metrics.lost += 1
                        in_flight.pop(rid, None)
                    for rid, t, server in block["rejects"]:
                        balancer.complete(server)
                        metrics.rejected += 1
                        in_flight.pop(rid, None)
                    for rid, t, flow, arrival, svc in block["redispatches"]:
                        metrics.redispatched += 1
                        in_flight.pop(rid, None)
                        heapq.heappush(
                            redispatch_heap,
                            (t + failover, next(tiebreak), flow, arrival, svc),
                        )
                completions.sort()
                for t, server, rid, latency in completions:
                    balancer.complete(server)
                    metrics.record(t, latency, server)
                    in_flight.pop(rid, None)
            for worker_id in sorted_ids:
                collected = replies[worker_id].get("collected")
                if collected is not None:
                    collected_replies[worker_id] = collected

            pacer.pace(batch_end)
            at_chunk_boundary = (
                window_index % windows_per_chunk == 0 or window_start >= total
            )
            if (
                at_chunk_boundary
                and target_completions is not None
                and metrics.count >= target_completions
            ):
                break

        metrics.measure_end = window_start

        # -- collect: per-node manifests and metric snapshots -------------
        # (already in hand for workers that answered a piggybacked
        # collect on the final batch)
        need = [
            h for h in pool.alive() if h.worker_id not in collected_replies
        ]
        if need:
            collect = {
                h.worker_id: {"type": "collect", "measure_end": window_start}
                for h in need
            }
            replies, died = pool.broadcast(
                collect, "collected", options.timeout_s, options.retries,
                options.backoff_s, options.backoff_cap_s,
                on_heartbeat=heartbeat_cb,
            )
            for handle in died:
                fail_worker(handle, window_start, redispatch_heap, tiebreak)
            collected_replies.update(replies)
        nodes: List[Dict[str, Any]] = []
        for worker_id in sorted(collected_replies):
            reply = collected_replies[worker_id]
            fold_telemetry(reply.get("telemetry"))
            nodes.append(reply["node"])
            snapshot = reply.get("metrics")
            if snapshot and collect_metrics:
                registry.merge_snapshot(snapshot)
        info["windows"] = window_index
        info["exchanges"] = exchanges
        info["nodes"] = nodes
        if telemetry is not None:
            info["telemetry"] = {
                "interval_s": options.telemetry_interval_s,
                "frames": telemetry.frames_seen,
                "workers": telemetry.worker_ids(),
            }
        if pacer.slept_s:
            info["paced_sleep_s"] = pacer.slept_s
        return DistRun(metrics=metrics, nodes=nodes, info=info)
    finally:
        pool.close()
