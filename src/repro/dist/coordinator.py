"""The dist coordinator: spawn workers, steer traffic, fold results.

:func:`run_cluster_dist` is the multi-process counterpart of
:func:`repro.cluster.rack.run_cluster`: the same :class:`ClusterConfig`,
the same client-visible :class:`~repro.cluster.metrics.ClusterMetrics`,
but every server simulated inside a spawned worker process
(:mod:`repro.dist.worker`) connected over loopback TCP or a Unix socket.

The coordinator drives the rack's own fleet front end
(:class:`repro.cluster.frontend.FrontEnd`: balancer, crash membership,
failover re-dispatch, all-down loss, metrics) on a simulator of its
own, fed by an :class:`~repro.dist.replay.ArrivalSource`, and adds what
is distributed. It advances the fleet on a grid of *windows*, a batch
of them per exchange: the front end's clock runs to each window bound,
and each request it steers on the way joins the owning worker's list
for that window. A window with no arrival and nothing due on the front
end's clock costs one comparison. Each exchange sends every worker the
batch's end bound and only the windows in which it got a dispatch;
the worker simulates to the bound and answers with one outcome block,
and the reported completions are folded into the fleet metrics in
global time order before the next batch's steering decisions.
Membership changes and due re-dispatches fire before an arrival at the
same instant; an arrival on a window bound goes to the next window.

The window length is chosen to divide the rack's target-check chunk
(2 ms) and not exceed a positive ``failover_delay_s``, which makes the
two runtimes agree closely: failover re-dispatches always land in a
later window (exactly as the rack schedules them), measurement stops at
identical chunk boundaries, and the only cross-window approximation
left is that the balancer sees a completion up to one window late —
invisible to the load-oblivious policies (``rss``, ``round-robin``) and
a documented statistical tolerance for the load-aware ones (see
docs/distributed.md).

Worker failures degrade gracefully: a vanished process (EOF on its
channel, or a liveness timeout with retries exhausted) marks its servers
down, re-dispatches every request it still held to the survivors after
the failover delay, flags the run as ``partial``, and records the fault
in the dist provenance block that lands in the RunManifest.
"""

from __future__ import annotations

import math
import os
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.balancer import LOAD_OBLIVIOUS_POLICIES
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

# Load-oblivious placement (LOAD_OBLIVIOUS_POLICIES) is exact at any
# lookahead depth, so its batches run to the chunk boundary. The
# load-aware policies (least-loaded, p2c) see completions one exchange
# late, so their lookahead is capped to keep the documented statistical
# tolerance. Measured on the cluster_scaleout fast grid
# (docs/distributed.md): at 4 windows of lookahead the load-aware p99
# stays inside the same <=0.12 envelope the one-window lockstep protocol
# had (worst row 0.105); at 8 windows the stale-feedback drift breaches
# the CI gate (worst row 0.34), so 4 is the default ceiling.
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
    ``lookahead`` is a hard cap on the windows one RPC exchange spans
    (``1`` is strict lockstep, one window per exchange). ``None``
    derives a safe batch depth from the balancer policy and the fault
    schedule; under a load-aware policy an exchange then also runs on
    through following batches that steer nothing (see
    docs/distributed.md). ``timeout_s``, ``retries``, ``backoff_s`` and
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
    """The largest divisor of the 2 ms check chunk not above a positive
    failover delay — re-dispatches then always land in later windows and
    target-completion stops hit the rack's exact chunk boundaries."""
    if failover_delay_s <= 0:
        return CHECK_CHUNK_S
    slices = max(1, math.ceil(CHECK_CHUNK_S / failover_delay_s))
    return CHECK_CHUNK_S / slices


def _max_ahead(options: DistOptions, policy: str, windows_per_chunk: int) -> int:
    """How many windows one exchange may carry (see the module notes)."""
    if options.lookahead is not None:
        return options.lookahead
    if options.speed_factor > 0:
        return 1  # pacing wants per-window wall-clock granularity
    if policy in LOAD_OBLIVIOUS_POLICIES:
        return windows_per_chunk
    return min(LOAD_AWARE_LOOKAHEAD, windows_per_chunk)


def _worker_fault(handle: WorkerHandle, at: float, telemetry, options, info) -> Dict[str, Any]:
    """The fault record of a vanished worker. It carries the worker's
    last flight-recorder window — its final streamed frames survive
    coordinator-side — or says that none exists, so post-mortems never
    guess; with a bus attached, the bus is dumped to a post-mortem file."""
    fault = {
        "worker_id": handle.worker_id,
        "servers": handle.servers,
        "time": at,
        "kind": "worker-crash",
        "telemetry": "no_telemetry",
    }
    if telemetry is None:
        return fault
    window = telemetry.flight_window(handle.worker_id)
    if window:
        fault["telemetry"] = window
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
    telemetry.dump_flight_recorder(path, reason=f"worker-{handle.worker_id}-crash")
    return fault


def _fold_batch(replies, front_end, in_flight, failover: float) -> None:
    """Fold one exchange's outcome blocks into the front end: workers in
    id order, then all completions in global (time, server, id) order.

    That is one-window lockstep's fold order. Windows run in time order
    and partition time, so the per-window sorted completions, concatenated,
    are this one sort. Losses, rejects and the balancer's clamped
    decrements commute, as no dispatch falls between them. Two
    re-dispatches tie on due time only if they share ``t``, and so a
    window; they keep worker-id-then-report order. A re-dispatch reported
    at ``t`` falls due at ``t + failover``, as ``Rack.redispatch`` has it.
    """
    balancer = front_end.balancer
    metrics = front_end.metrics
    completions: List[Tuple[float, int, int, float]] = []
    for worker_id in sorted(replies):
        reply = replies[worker_id]
        for rid, t, latency, server in reply["completions"]:
            completions.append((t, server, rid, latency))
        for rid, t, server in reply["losses"]:
            balancer.complete(server)
            metrics.lost += 1
            in_flight.pop(rid, None)
        for rid, t, server in reply["rejects"]:
            balancer.complete(server)
            metrics.rejected += 1
            in_flight.pop(rid, None)
        for rid, t, flow, arrival, svc in reply["redispatches"]:
            in_flight.pop(rid, None)
            front_end.redispatch(flow, arrival, svc, t + failover)
    completions.sort()
    for t, server, rid, latency in completions:
        balancer.complete(server)
        metrics.record(t, latency, server)
        in_flight.pop(rid, None)


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

    A crash fault needs ``config.failover_delay_s > 0`` here (so its
    re-dispatches fall due after the window that reported them);
    :func:`~repro.cluster.rack.run_cluster` accepts a zero delay.
    """
    import dataclasses
    import itertools

    from repro.cluster.controller import ClusterController
    from repro.cluster.frontend import FrontEnd, offered_rate
    from repro.dist.replay import PoissonSource, ReplayPacer, take_window
    from repro.obs.runtime import get_active_registry
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams

    if options is None:
        options = DistOptions()
    if warmup < 0 or duration <= 0:
        raise ValueError("need positive duration, non-negative warmup")
    if source is None:
        rate = offered_rate(config, load, rate)
        source = PoissonSource(rate, config.num_flows, config.flow_skew, config.seed)

    num_servers = config.num_servers
    num_workers = min(options.workers, num_servers)
    assignments = {
        worker_id: [s for s in range(num_servers) if s % num_workers == worker_id]
        for worker_id in range(num_workers)
    }

    # The rack's front end on a simulator of its own. Its sink appends
    # each steered request to the owning worker's dispatches for the
    # window being planned; ``in_flight`` remembers who holds what.
    batches: Dict[int, List[Dict[str, Any]]] = {}
    in_flight: Dict[int, Tuple[int, float, int]] = {}
    ids = itertools.count(1)

    def to_batch(server, flow, t, arrival, svc) -> None:
        rid = next(ids)
        record = {"id": rid, "t": t, "flow": flow, "server": server}
        if arrival != t:
            record["arr"] = arrival
        if svc is not None:
            record["svc"] = svc
        worker = server % num_workers
        batches[worker].append(record)
        in_flight[rid] = (flow, arrival, worker)

    sim = Simulator()
    front_end = FrontEnd(config, sim, RandomStreams(config.seed), to_batch)
    metrics = front_end.metrics
    total = warmup + duration
    front_end.measure_from(warmup)
    faults = front_end.faults(total)
    crashes = [event for event in faults if event.kind == "crash"]
    failover = config.failover_delay_s
    if crashes and failover <= 0:
        raise ValueError(
            "a crash fault needs failover_delay_s > 0 on the dist runtime: a "
            "re-dispatch must fall due after the window that reported it "
            "(run_cluster accepts a zero delay)"
        )
    # Crash membership, as Rack.run drives it; the controller starts
    # before any arrival enters the front end. The workers' own
    # controllers apply every fault to their servers.
    ClusterController(front_end, crashes).start()
    crash_intervals = sorted((event.time, event.end_time) for event in crashes)

    registry = get_active_registry()
    collect_metrics = registry is not None and registry.enabled

    window = _pick_window(failover)
    windows_per_chunk = max(1, round(CHECK_CHUNK_S / window))
    max_ahead = _max_ahead(options, config.balancer, windows_per_chunk)
    # Where the derived load-aware depth applies, an exchange runs on
    # through following batches that hold no steering decision.
    run_on = (
        options.lookahead is None
        and options.speed_factor == 0
        and config.balancer not in LOAD_OBLIVIOUS_POLICIES
    )
    pacer = ReplayPacer(options.speed_factor)

    pool = WorkerPool(
        assignments,
        transport=options.transport,
        spawn_timeout_s=options.spawn_timeout_s,
    )
    worker_faults: List[Dict[str, Any]] = []
    info: Dict[str, Any] = {
        "workers": num_workers,
        "transport": options.transport,
        "speed_factor": options.speed_factor,
        "window_s": window,
        "partial": False,
        "worker_faults": worker_faults,
        "assignments": {str(k): v for k, v in assignments.items()},
        "lookahead": max_ahead,
    }

    try:
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

        def fail_worker(handle: WorkerHandle, at: float) -> None:
            """Retire a vanished worker's servers and retry, after the
            detection delay, every request it still held, client-style."""
            info["partial"] = True
            worker_faults.append(_worker_fault(handle, at, telemetry, options, info))
            for server in handle.servers:
                front_end.retire(server)
            orphaned = [
                (rid, meta) for rid, meta in in_flight.items()
                if meta[2] == handle.worker_id
            ]
            for rid, (flow, arrival, _w) in sorted(orphaned):
                del in_flight[rid]
                front_end.redispatch(flow, arrival, None, at + failover)

        def batch_horizon(batch_start: float) -> float:
            """Exclusive bound on a batch starting at ``batch_start``:
            the earliest instant an in-batch re-dispatch could come due.
            Re-dispatches known *before* the batch are already on the
            front end's clock; only crash-born ones are unknowable."""
            for start, end in crash_intervals:
                if end > batch_start:
                    return max(start, batch_start) + failover
            return math.inf

        def next_batch_end(start: float, index: int) -> float:
            """The end bound of the batch the planner would form from
            grid window ``index`` at ``start`` with no crash horizon."""
            for _ in range(max_ahead):
                start = min(start + window, total)
                index += 1
                if index % windows_per_chunk == 0 or start >= total:
                    break
            return start

        # ``lookahead`` holds the one read-ahead trace record (as
        # take_window keeps it), ``next_arrival`` its time.
        source_iter = iter(source)
        lookahead: List[Any] = list(itertools.islice(source_iter, 1))
        next_arrival = lookahead[0].time if lookahead else math.inf
        window_index = 0
        window_start = 0.0
        exchanges = 0
        collected_replies: Dict[int, Dict[str, Any]] = {}
        pacer.start(0.0)

        while window_start < total:
            # -- plan and steer one exchange ------------------------------
            horizon = batch_horizon(window_start)
            step_windows: Dict[int, List[Dict[str, Any]]] = {
                h.worker_id: [] for h in pool.alive()
            }
            in_batch = 0
            while True:
                window_end = min(window_start + window, total)
                if in_batch and window_end >= horizon:
                    # A crash-born re-dispatch could come due inside this
                    # window; stop the batch so it is steered with full
                    # knowledge next exchange. (The first window is always
                    # safe: that IS the lockstep granularity.)
                    break
                # A quiet window (the read-ahead record at or past its
                # bound, nothing due on the front end's clock by it)
                # costs this one comparison: no steering, no bytes.
                if next_arrival < window_end or sim.peek() <= window_end:
                    # Membership changes and re-dispatches due at or
                    # before each arrival fire first; those on the bound
                    # stay in this window, arrivals on it go to the next.
                    # Arrivals go in time order (stably), so a trace out
                    # of order within one window still replays.
                    arrivals = take_window(lookahead, source_iter, window_end)
                    next_arrival = lookahead[0].time if lookahead else math.inf
                    batches = {worker_id: [] for worker_id in step_windows}
                    for record in sorted(arrivals, key=attrgetter("time")):
                        sim.run(until=record.time)
                        front_end.arrive(record.flow, record.time, record.service_s)
                    sim.run(until=window_end)
                    for worker_id, records in batches.items():
                        if records:
                            step_windows[worker_id].append(
                                {"start": window_start, "dispatches": records}
                            )
                window_start = window_end
                window_index += 1
                in_batch += 1
                if window_index % windows_per_chunk == 0 or window_start >= total:
                    break  # chunk boundary: where target checks happen
                if in_batch == max_ahead:
                    # The batch is full. Run on through the next one
                    # only if it steers nothing (no arrival, nothing due
                    # by its end) and no crash-born re-dispatch can come:
                    # every batch with a decision still starts an
                    # exchange, so each decision sees the same folds.
                    if not (run_on and horizon == math.inf):
                        break
                    end = next_batch_end(window_start, window_index)
                    if next_arrival < end or sim.peek() <= end:
                        break
                    in_batch = 0

            batch_end = window_start
            final_batch = target_completions is None and window_start >= total
            steps = {
                worker_id: {"type": "step", "until": batch_end, "windows": window_list}
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
                fail_worker(handle, batch_end)
            if not pool.alive():
                raise DistError(
                    "every worker died; the fleet cannot make progress"
                )

            _fold_batch(replies, front_end, in_flight, failover)
            for worker_id in sorted(replies):
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
                fail_worker(handle, window_start)
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
