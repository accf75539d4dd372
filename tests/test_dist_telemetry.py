"""End-to-end live telemetry through the multi-process fleet.

The load-bearing guarantees (docs/live-telemetry.md):

- a run with telemetry attached is **bit-exact** with one without, on
  both transports — frames observe the fleet, they never steer it;
- the fleet's live completion counter agrees with the merged per-node
  accounting, so the streamed view is the truth, not an estimate;
- a crashed worker's last frames survive coordinator-side: the fault
  record carries its flight-recorder window and the bus dumps a
  post-mortem file referenced from ``run.info`` (and the manifest);
- heartbeat replies surface their *full* payload to ``on_heartbeat``
  (the regression that used to drop everything but the timestamp).
"""

import socket
import threading

import pytest

from repro.cluster import ClusterConfig
from repro.dist import DistOptions, run_cluster_dist
from repro.dist.coordinator import WorkerHandle, WorkerPool
from repro.dist.wire import Channel, ChannelClosed, ChannelTimeout
from repro.obs.live import TelemetryBus, parse_telemetry_jsonl, validate_frame

LOAD = 0.25
DURATION = 0.012
WARMUP = 0.004


def small_config(**overrides):
    defaults = dict(
        num_servers=4,
        notification="hyperplane",
        balancer="rss",
        queues_per_server=64,
        num_flows=64,
        flow_skew=0.3,
        seed=11,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def run_fleet(telemetry=None, **options):
    return run_cluster_dist(
        small_config(),
        load=LOAD,
        duration=DURATION,
        warmup=WARMUP,
        options=DistOptions(workers=2, **options),
        telemetry=telemetry,
    )


# -- bit-exactness and accounting --------------------------------------------


@pytest.mark.parametrize("transport", ["unix", "tcp"])
def test_telemetry_is_bit_exact_and_streams_frames(transport):
    plain = run_fleet(transport=transport)
    bus = TelemetryBus()
    observed = run_fleet(telemetry=bus, transport=transport)

    assert observed.metrics.fingerprint() == plain.metrics.fingerprint()
    assert bus.frames_seen > 0
    assert bus.worker_ids() == [0, 1]
    for view in bus.workers.values():
        for frame in view.frames:
            validate_frame(frame)

    info = observed.info["telemetry"]
    assert info["frames"] == bus.frames_seen
    assert info["workers"] == [0, 1]
    assert "telemetry" not in plain.info


def test_fleet_live_completions_match_merged_node_accounting():
    bus = TelemetryBus()
    run = run_fleet(telemetry=bus)
    completed = sum(
        server.get("completed_ok", 0)
        for node in run.nodes
        for server in node.get("per_server", {}).values()
    )
    assert completed > 0
    assert bus.fleet_summary()["completions"] == completed


# -- crash + flight recorder -------------------------------------------------


def test_worker_crash_attaches_flight_window_and_dumps(tmp_path):
    bus = TelemetryBus()
    run = run_fleet(
        telemetry=bus,
        crash_worker=1,
        crash_worker_at=WARMUP + 0.002,
        flight_recorder_dir=str(tmp_path),
    )
    assert run.partial
    fault = run.worker_faults[0]
    assert fault["worker_id"] == 1
    window = fault["telemetry"]
    assert isinstance(window, list) and window
    assert all(frame["worker"] == 1 for frame in window)
    assert window == bus.flight_window(1)

    path = run.info["flight_recorder"]
    assert path.startswith(str(tmp_path))
    frames = parse_telemetry_jsonl(open(path).read())
    assert frames
    # The dump holds both workers' rings; the dead worker's window is
    # a suffix-complete subset of what the file retained for it.
    assert {frame["worker"] for frame in frames} == {0, 1}


def test_worker_crash_without_bus_marks_no_telemetry():
    run = run_fleet(crash_worker=1, crash_worker_at=WARMUP + 0.002)
    assert run.partial
    assert run.worker_faults[0]["telemetry"] == "no_telemetry"
    assert "flight_recorder" not in run.info


# -- fault events --------------------------------------------------------------


def test_fault_events_carry_the_profile_kind_and_window():
    from repro.cluster.config import STREAM_FAULTS
    from repro.cluster.faults import fault_schedule
    from repro.sim.rng import RandomStreams

    config = small_config(fault_profile="straggler")
    (straggler,) = fault_schedule(
        "straggler", config.num_servers, WARMUP + DURATION,
        RandomStreams(config.seed).stream(STREAM_FAULTS),
    )
    bus = TelemetryBus()
    run_cluster_dist(
        config, load=LOAD, duration=DURATION, warmup=WARMUP,
        options=DistOptions(workers=2), telemetry=bus,
    )
    faults = [e for e in bus.events if e["kind"].startswith("fault:")]
    assert faults == [
        {
            "kind": "fault:straggler",
            "server": straggler.server,
            "t": straggler.time,
            "magnitude": straggler.magnitude,
            "worker": straggler.server % 2,
        },
        {
            "kind": "fault:straggler",
            "server": straggler.server,
            "t": straggler.end_time,
            "magnitude": straggler.magnitude,
            "end": True,
            "worker": straggler.server % 2,
        },
    ]


# -- heartbeat payload passthrough (regression) ------------------------------


class _FakeProcess:
    """A worker process that is running until killed, then reaped."""

    def __init__(self):
        self.returncode = None
        self.reaped = False

    def poll(self):
        return self.returncode

    def kill(self):
        self.returncode = -9

    def wait(self):
        self.reaped = True
        return self.returncode


def one_worker_pool():
    """A pool of one fake worker: (pool, its handle, the worker's end)."""
    coord_sock, worker_sock = socket.socketpair()
    coordinator = Channel(coord_sock, name="coord")
    worker = Channel(worker_sock, name="worker0")
    pool = WorkerPool.__new__(WorkerPool)
    pool.transport = "unix"
    pool._tempdir = None
    pool._listener = None
    handle = WorkerHandle(
        worker_id=0, servers=[0], process=_FakeProcess(), channel=coordinator
    )
    pool.handles = [handle]
    return pool, handle, worker


def test_broadcast_surfaces_full_heartbeat_payload():
    """broadcast() used to keep only the heartbeat timestamp; telemetry
    frames (and any future health data) must reach the callback whole."""
    pool, handle, worker = one_worker_pool()
    coordinator = handle.channel
    frame = {
        "v": 1, "worker": 0, "seq": 0, "t": 0.0015,
        "metrics": {"live.completions": {"kind": "counter", "value": 3.0}},
        "events": [],
    }

    def serve():
        request = worker.recv(timeout=5.0)
        worker.send({
            "type": "heartbeat", "worker_id": 0, "t": 1.5,
            "telemetry": [frame],
        })
        worker.send({
            "type": "step_ok", "seq": request["seq"], "worker_id": 0,
            "t": 2.0, "windows": [],
        })

    thread = threading.Thread(target=serve)
    thread.start()
    heartbeats = []
    try:
        replies, died = WorkerPool.broadcast(
            pool,
            {0: {"type": "step", "windows": []}},
            "step_ok",
            timeout_s=5.0,
            retries=0,
            backoff_s=0.01,
            on_heartbeat=lambda handle, reply: heartbeats.append(
                (handle.worker_id, reply)
            ),
        )
    finally:
        thread.join()
        coordinator.close()
        worker.close()

    assert not died and 0 in replies
    assert len(heartbeats) == 1
    worker_id, payload = heartbeats[0]
    assert worker_id == 0
    assert payload["t"] == 1.5
    assert payload["telemetry"] == [frame]


def test_broadcast_without_callback_still_tracks_liveness():
    pool, handle, worker = one_worker_pool()
    coordinator = handle.channel

    def serve():
        request = worker.recv(timeout=5.0)
        worker.send({"type": "heartbeat", "worker_id": 0, "t": 3.25})
        worker.send({
            "type": "step_ok", "seq": request["seq"], "worker_id": 0,
            "t": 4.0, "windows": [],
        })

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        replies, died = WorkerPool.broadcast(
            pool, {0: {"type": "step", "windows": []}}, "step_ok",
            timeout_s=5.0, retries=0, backoff_s=0.01,
        )
    finally:
        thread.join()
        coordinator.close()
        worker.close()
    assert not died and 0 in replies
    assert handle.last_heartbeat_t == 3.25


# -- the one retry loop, driven through broadcast -----------------------------


def test_broadcast_resends_same_seq_and_returns_the_late_reply():
    pool, handle, worker = one_worker_pool()
    seqs = []

    def serve():
        # Stay silent past timeout_s; answer only the re-sent frame.
        first = worker.recv(timeout=5.0)
        second = worker.recv(timeout=5.0)
        seqs.extend([first["seq"], second["seq"]])
        worker.send({
            "type": "step_ok", "seq": second["seq"], "worker_id": 0,
            "t": 7.5, "windows": [],
        })

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        replies, died = WorkerPool.broadcast(
            pool, {0: {"type": "step", "windows": []}}, "step_ok",
            timeout_s=0.2, retries=2, backoff_s=0.01,
        )
    finally:
        thread.join()
        handle.channel.close()
        worker.close()
    assert seqs[0] == seqs[1]  # the re-send carried the same seq
    assert not died and handle.alive
    assert replies[0]["seq"] == seqs[0]
    assert replies[0]["t"] == 7.5


def test_broadcast_marks_a_silent_worker_dead_after_retries():
    pool, handle, worker = one_worker_pool()
    retries = 2
    try:
        replies, died = WorkerPool.broadcast(
            pool, {0: {"type": "step", "windows": []}}, "step_ok",
            timeout_s=0.05, retries=retries, backoff_s=0.001,
        )
        # Every frame the worker got: the request and its re-sends.
        frames = []
        while True:
            try:
                frames.append(worker.recv(timeout=0.2))
            except (ChannelClosed, ChannelTimeout):
                break
    finally:
        handle.channel.close()
        worker.close()
    assert replies == {}
    assert died == [handle] and not handle.alive
    assert len(frames) == retries + 1
    assert len({frame["seq"] for frame in frames}) == 1
    assert handle.process.returncode is not None and handle.process.reaped


# -- experiment threading ----------------------------------------------------


def test_run_experiment_threads_telemetry_flags(tmp_path):
    from repro.experiments.registry import run_experiment

    out = str(tmp_path / "telemetry.jsonl")
    result = run_experiment(
        "dist_replay", fast=True, backend="dist", workers=2,
        telemetry_out=out,
    )
    frames = parse_telemetry_jsonl(open(out).read())
    assert frames
    telemetry_info = result.dist_info["telemetry"]
    assert telemetry_info["frames"] == len(frames)
    assert result.manifest.to_dict()["dist"]["telemetry"]["frames"] == len(frames)


def test_run_experiment_rejects_telemetry_on_non_dist_experiment():
    from repro.experiments.base import UsageError
    from repro.experiments.registry import run_experiment

    with pytest.raises(UsageError, match="telemetry"):
        run_experiment("fig8", telemetry=True)


def test_cluster_scaleout_rejects_telemetry_off_dist_backend():
    from repro.experiments.base import UsageError
    from repro.experiments.cluster_scaleout import ClusterScaleoutConfig

    with pytest.raises(UsageError, match="backend='dist'"):
        ClusterScaleoutConfig(telemetry=True)


def test_dist_options_validate_telemetry_interval():
    with pytest.raises(ValueError, match="telemetry_interval_s"):
        DistOptions(telemetry_interval_s=-1.0)
