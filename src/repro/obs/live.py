"""repro.obs.live — streaming telemetry for the distributed runtime.

The offline observability layers (PR 2 metrics, PR 4 traces) only
surface after a run finishes; a multi-process fleet is a black box
until the final manifest merge. This module makes the fleet observable
*while it runs* without touching simulation state:

- **Worker side** (:class:`TelemetrySampler`): each worker owns a
  dedicated :class:`~repro.obs.registry.MetricsRegistry` of live
  instruments (completion/dispatch/loss counters, a fixed-bucket
  latency histogram, pull gauges for queue depth and event count) that
  the dist hooks record into. On a configurable simulated-time cadence
  the sampler snapshots the registry and emits a compact **telemetry
  frame** — the :func:`~repro.obs.registry.snapshot_delta` since the
  previous frame plus any buffered event records (faults, failover).
  Frames piggyback on existing ``step_ok``/heartbeat replies: no new
  sockets, no new simulation events, no random-stream reads — runs are
  bit-exact with telemetry on or off.
- **Coordinator side** (:class:`TelemetryBus`): frames fold back into
  per-worker registries via the ordinary snapshot-merge machinery (so
  the fleet view is worker-count independent for counters and
  histograms), plus a merged fleet summary where gauges *sum* across
  workers (fleet queue depth is the total, not the last worker seen).
  Consumers subscribe for per-frame callbacks: the ``repro-dash``
  terminal dashboard (:mod:`repro.obs.dash`), the
  :class:`JsonlTelemetrySink`, and :func:`write_prometheus_textfile`.
- **Flight recorder**: every per-worker view keeps a bounded ring of
  recent raw frames. On a worker crash the coordinator attaches the
  dead worker's window to the fault record and dumps the whole ring
  set to a post-mortem JSONL file referenced from ``RunManifest.dist``
  (see docs/live-telemetry.md for the workflow).

Disabled telemetry is free twice over: with no bus attached the
coordinator asks for no telemetry and workers build nothing; with a bus
attached but ``interval_s=0`` workers build a *null* sampler whose
instruments are the shared no-op singletons — the bench scenario
``telemetry_overhead`` and its CI gate pin both paths.
"""

from __future__ import annotations

import json
import math
from collections import deque
from typing import Any, Callable, Dict, IO, Iterable, List, Optional, Union

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    snapshot_delta,
)

TELEMETRY_SCHEMA_VERSION = 1

# Sampling cadence in *simulated* seconds. 1 ms against the default
# 2 ms coordinator check chunk means at most one frame per window —
# cheap, but fresh every exchange.
DEFAULT_TELEMETRY_INTERVAL_S = 1e-3

# Flight-recorder ring depth (frames retained per worker) and dashboard
# history depth (derived points retained per worker).
DEFAULT_FLIGHT_RING = 64
DEFAULT_HISTORY = 240
DEFAULT_EVENT_LOG = 256

_METRIC_KINDS = ("counter", "gauge", "histogram", "timeseries")


class TelemetryError(ValueError):
    """A telemetry frame failed validation."""


def validate_frame(frame: Any) -> Dict[str, Any]:
    """Return ``frame`` if it is a well-formed telemetry frame, else raise.

    This is the schema contract the CI telemetry leg checks on emitted
    JSONL: schema version, non-negative ``worker``/``seq`` ints, a
    numeric simulated timestamp, metric deltas that are snapshot dicts
    of a known kind, and event records that are dicts with a ``kind``.
    """
    if not isinstance(frame, dict):
        raise TelemetryError(f"telemetry frame must be a dict, got {type(frame).__name__}")
    if frame.get("v") != TELEMETRY_SCHEMA_VERSION:
        raise TelemetryError(
            f"telemetry frame schema version {frame.get('v')!r} != "
            f"{TELEMETRY_SCHEMA_VERSION}"
        )
    for key in ("worker", "seq"):
        value = frame.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise TelemetryError(f"telemetry frame {key!r} must be a non-negative int")
    t = frame.get("t")
    if not isinstance(t, (int, float)) or isinstance(t, bool) or t < 0:
        raise TelemetryError("telemetry frame 't' must be a non-negative number")
    metrics = frame.get("metrics")
    if not isinstance(metrics, dict):
        raise TelemetryError("telemetry frame 'metrics' must be a dict of snapshots")
    for name, snap in metrics.items():
        if not isinstance(snap, dict) or snap.get("kind") not in _METRIC_KINDS:
            raise TelemetryError(
                f"telemetry frame metric {name!r} is not a snapshot of a known kind"
            )
    events = frame.get("events")
    if not isinstance(events, list):
        raise TelemetryError("telemetry frame 'events' must be a list")
    for event in events:
        if not isinstance(event, dict) or "kind" not in event:
            raise TelemetryError("telemetry frame events must be dicts with a 'kind'")
    return frame


class TelemetrySampler:
    """Worker-side frame producer over a dedicated live registry.

    The live registry is separate from the run's merged metrics
    registry on purpose: live instruments stream incrementally and must
    never contaminate the final merged results. ``interval_s <= 0``
    builds the null variant — every instrument is the shared no-op
    singleton and :meth:`maybe_sample` returns immediately, so a
    worker with sampling switched off prices like one with no telemetry
    at all (the ``telemetry_overhead`` bench's *disabled* leg).
    """

    def __init__(
        self,
        worker_id: int,
        interval_s: float = DEFAULT_TELEMETRY_INTERVAL_S,
        queue_depth_fn: Optional[Callable[[], float]] = None,
        sim_events_fn: Optional[Callable[[], float]] = None,
    ):
        self.worker_id = int(worker_id)
        self.interval_s = float(interval_s)
        self.enabled = self.interval_s > 0.0
        self.registry = MetricsRegistry(enabled=self.enabled)
        registry = self.registry
        self.completions = registry.counter(
            "live.completions", help="requests completed on this worker"
        )
        self.dispatches = registry.counter(
            "live.dispatches", help="requests dispatched to this worker's servers"
        )
        self.losses = registry.counter(
            "live.losses", help="requests lost to modelled server crashes"
        )
        self.rejects = registry.counter(
            "live.rejects", help="requests rejected at full queues"
        )
        self.redispatches = registry.counter(
            "live.redispatches", help="requests re-dispatched after a modelled crash"
        )
        self.latency = registry.histogram(
            "live.latency_s",
            help="end-to-end request latency (seconds)",
            buckets=DEFAULT_BUCKETS,
        )
        if queue_depth_fn is not None:
            registry.gauge(
                "live.queue_depth",
                help="tasks queued across this worker's servers",
                fn=queue_depth_fn,
            )
        if sim_events_fn is not None:
            registry.gauge(
                "live.sim_events",
                help="simulation events dispatched on this worker",
                fn=sim_events_fn,
            )
        # First frame is a keyframe: delta against {} carries the full
        # instrument set, so the coordinator's view is self-describing
        # from frame zero.
        self._prev: Dict[str, Dict[str, Any]] = {}
        self._events: List[Dict[str, Any]] = []
        self._pending: List[Dict[str, Any]] = []
        self._seq = 0
        # Cadence instant k is ``k * interval_s``, from an integer count:
        # instants derived from ``now`` by division can round back onto
        # ``now`` itself (2.001 / 0.001 == 2000.9999999999998).
        self._next_k = 1
        self._next_sample_t = self.interval_s if self.enabled else math.inf

    def record_event(self, kind: str, **fields: Any) -> None:
        """Buffer an event record (fault, failover) for the next frame."""
        if not self.enabled:
            return
        event: Dict[str, Any] = {"kind": str(kind)}
        event.update(fields)
        self._events.append(event)

    @property
    def next_sample_t(self) -> float:
        """The next cadence instant (``inf`` with sampling off)."""
        return self._next_sample_t

    def maybe_sample(self, now: float) -> None:
        """Emit a frame if simulated time crossed the cadence boundary."""
        if now < self._next_sample_t:
            return
        self.sample(now)

    def sample(self, now: float) -> Optional[Dict[str, Any]]:
        """Force one frame at simulated time ``now``."""
        if not self.enabled:
            return None
        current = self.registry.snapshot()
        metrics = snapshot_delta(current, self._prev)
        self._prev = current
        events, self._events = self._events, []
        frame = {
            "v": TELEMETRY_SCHEMA_VERSION,
            "worker": self.worker_id,
            "seq": self._seq,
            "t": float(now),
            "metrics": metrics,
            "events": events,
        }
        self._seq += 1
        self._pending.append(frame)
        # Next instant strictly after now: idle stretches skip ahead
        # instead of emitting a burst of empty catch-up frames.
        interval = self.interval_s
        k = max(self._next_k, int(now / interval))
        while k * interval <= now:
            k += 1
        self._next_k = k
        self._next_sample_t = k * interval
        return frame

    def drain(self) -> List[Dict[str, Any]]:
        """Hand off (and clear) the pending frames."""
        frames, self._pending = self._pending, []
        return frames

    def flush(self, now: float) -> List[Dict[str, Any]]:
        """Emit a final frame regardless of cadence, then drain."""
        self.sample(now)
        return self.drain()


class WorkerView:
    """Coordinator-side state for one worker's telemetry stream."""

    def __init__(
        self,
        worker_id: int,
        ring_frames: int = DEFAULT_FLIGHT_RING,
        history: int = DEFAULT_HISTORY,
    ):
        self.worker_id = worker_id
        self.registry = MetricsRegistry(enabled=True)
        # The flight-recorder ring: raw frames, bounded, newest last.
        self.frames: "deque[Dict[str, Any]]" = deque(maxlen=ring_frames)
        # Derived per-frame points for sparklines, bounded separately.
        self.history: "deque[Dict[str, float]]" = deque(maxlen=history)
        self.last_t = 0.0
        self.last_seq = -1
        self.frames_seen = 0

    def counter_value(self, name: str) -> float:
        instrument = self.registry.get(name)
        return float(instrument.value) if instrument is not None else 0.0

    def gauge_value(self, name: str) -> float:
        instrument = self.registry.get(name)
        return float(instrument.read()) if instrument is not None else 0.0

    def p99_s(self) -> float:
        histogram = self.registry.get("live.latency_s")
        if histogram is None or histogram.count == 0:
            return 0.0
        return float(histogram.quantile(0.99))


class TelemetryBus:
    """Coordinator-side fold of the fleet's telemetry streams.

    :meth:`ingest` validates each frame, merges its metric deltas into
    the worker's registry (ordinary snapshot-merge, so the per-worker
    and fleet aggregates are independent of how events were sharded
    across workers), appends the raw frame to the worker's
    flight-recorder ring, derives a history point for the dashboard,
    and fans the frame out to subscribed consumers.
    """

    def __init__(
        self,
        ring_frames: int = DEFAULT_FLIGHT_RING,
        history: int = DEFAULT_HISTORY,
        event_log: int = DEFAULT_EVENT_LOG,
    ):
        if ring_frames < 1:
            raise ValueError("ring_frames must be at least 1")
        self.ring_frames = ring_frames
        self.history = history
        self.workers: Dict[int, WorkerView] = {}
        self.events: "deque[Dict[str, Any]]" = deque(maxlen=event_log)
        self.frames_seen = 0
        self._consumers: List[Callable[[Dict[str, Any]], None]] = []

    def subscribe(self, consumer: Callable[[Dict[str, Any]], None]) -> None:
        """Register a per-frame callback (called after the fold)."""
        self._consumers.append(consumer)

    def worker(self, worker_id: int) -> WorkerView:
        view = self.workers.get(worker_id)
        if view is None:
            view = WorkerView(worker_id, self.ring_frames, self.history)
            self.workers[worker_id] = view
        return view

    def worker_ids(self) -> List[int]:
        return sorted(self.workers)

    def ingest(self, frame: Dict[str, Any]) -> None:
        validate_frame(frame)
        view = self.worker(int(frame["worker"]))
        prev_completions = view.counter_value("live.completions")
        prev_t = view.last_t
        view.registry.merge_snapshot(frame["metrics"])
        view.frames.append(frame)
        view.frames_seen += 1
        t = float(frame["t"])
        view.last_t = max(view.last_t, t)
        view.last_seq = int(frame["seq"])
        dt = t - prev_t
        completed = view.counter_value("live.completions") - prev_completions
        view.history.append(
            {
                "t": t,
                "completions": completed,
                "throughput": completed / dt if dt > 0 else 0.0,
                "queue_depth": view.gauge_value("live.queue_depth"),
                "p99_us": view.p99_s() * 1e6,
            }
        )
        for event in frame["events"]:
            entry = dict(event)
            entry["worker"] = view.worker_id
            entry.setdefault("t", t)
            self.events.append(entry)
        self.frames_seen += 1
        for consumer in self._consumers:
            consumer(frame)

    def ingest_all(self, frames: Optional[Iterable[Dict[str, Any]]]) -> None:
        """Fold an iterable of frames (tolerates ``None``)."""
        if not frames:
            return
        for frame in frames:
            self.ingest(frame)

    # -- fleet aggregation ---------------------------------------------------

    def fleet_registry(self) -> MetricsRegistry:
        """The merged fleet view.

        Counters, histograms, and timeseries fold via the snapshot
        machinery in worker-id order (associative — worker-count
        independent); gauges *sum* across workers, because merge's
        newest-wins semantics would report one worker's queue depth as
        the fleet's.
        """
        merged = MetricsRegistry(enabled=True)
        gauge_totals: Dict[str, float] = {}
        gauge_help: Dict[str, str] = {}
        for worker_id in self.worker_ids():
            snapshot = self.workers[worker_id].registry.snapshot()
            additive = {}
            for name, snap in snapshot.items():
                if snap["kind"] == "gauge":
                    gauge_totals[name] = gauge_totals.get(name, 0.0) + snap["value"]
                    gauge_help.setdefault(name, snap.get("help", ""))
                else:
                    additive[name] = snap
            merged.merge_snapshot(additive)
        for name in sorted(gauge_totals):
            merged.gauge(name, help=gauge_help[name]).set(gauge_totals[name])
        return merged

    def fleet_summary(self) -> Dict[str, Any]:
        """Headline fleet numbers for the dashboard header."""
        registry = self.fleet_registry()

        def value(name: str) -> float:
            instrument = registry.get(name)
            return float(instrument.value) if instrument is not None else 0.0

        histogram = registry.get("live.latency_s")
        p99_us = 0.0
        if histogram is not None and histogram.count:
            p99_us = histogram.quantile(0.99) * 1e6
        return {
            "workers": len(self.workers),
            "frames": self.frames_seen,
            "t": max((view.last_t for view in self.workers.values()), default=0.0),
            "completions": value("live.completions"),
            "dispatches": value("live.dispatches"),
            "losses": value("live.losses"),
            "rejects": value("live.rejects"),
            "redispatches": value("live.redispatches"),
            "queue_depth": value("live.queue_depth"),
            "p99_us": p99_us,
            "events": len(self.events),
        }

    # -- flight recorder -----------------------------------------------------

    def flight_window(self, worker_id: int) -> List[Dict[str, Any]]:
        """The retained frame ring for one worker (oldest first)."""
        view = self.workers.get(int(worker_id))
        if view is None:
            return []
        return list(view.frames)

    def dump_flight_recorder(self, path: str, reason: str = "post-mortem") -> str:
        """Write the retained rings as a post-mortem JSONL file.

        Line 1 is a header record (``record: flight-recorder`` with the
        reason, worker ids, frame counts, and the fault-event log);
        every following line is one retained frame, workers in id
        order, oldest frame first.
        """
        with open(path, "w") as handle:
            header = {
                "record": "flight-recorder",
                "v": TELEMETRY_SCHEMA_VERSION,
                "reason": reason,
                "workers": self.worker_ids(),
                "frames": {
                    str(worker_id): len(self.workers[worker_id].frames)
                    for worker_id in self.worker_ids()
                },
                "events": list(self.events),
            }
            handle.write(json.dumps(header, separators=(",", ":")) + "\n")
            for worker_id in self.worker_ids():
                for frame in self.workers[worker_id].frames:
                    handle.write(json.dumps(frame, separators=(",", ":")) + "\n")
        return path


# -- sinks -------------------------------------------------------------------


class JsonlTelemetrySink:
    """A bus consumer writing each frame as one JSON line, in ingest order.

    Accepts a path (opened and owned) or any writable text stream (only
    flushed). Subscribe it: ``bus.subscribe(sink)``.
    """

    def __init__(self, destination: Union[str, IO[str]]):
        if hasattr(destination, "write"):
            self._handle: IO[str] = destination  # type: ignore[assignment]
            self._owns = False
        else:
            self._handle = open(destination, "w")
            self._owns = True
        self.frames = 0

    def __call__(self, frame: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(frame, separators=(",", ":")) + "\n")
        self.frames += 1

    def close(self) -> None:
        if self._owns:
            self._handle.close()
        else:
            self._handle.flush()


def parse_telemetry_jsonl(text: str) -> List[Dict[str, Any]]:
    """Parse and validate a JSONL telemetry stream (inverse of the sink).

    Flight-recorder header lines (``record: flight-recorder``) are
    skipped, so the same parser reads live-sink output and post-mortem
    dumps.
    """
    frames = []
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if isinstance(record, dict) and record.get("record") == "flight-recorder":
            continue
        frames.append(validate_frame(record))
    return frames


def write_prometheus_textfile(bus: TelemetryBus, path: str) -> str:
    """One-shot Prometheus textfile export of the merged fleet view.

    Reuses the PR 2 exporter, so the output parses with
    :func:`repro.obs.export.parse_prometheus` and drops straight into a
    node-exporter textfile collector directory.
    """
    from repro.obs.export import to_prometheus

    text = to_prometheus(bus.fleet_registry())
    with open(path, "w") as handle:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")
    return path
