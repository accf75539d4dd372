"""Streaming trace replay: arrival sources, trace files, and pacing.

The coordinator consumes one :class:`ArrivalSource` per run — an
iterator of :class:`TraceRecord` in non-decreasing time order. Two
sources are provided:

- :class:`PoissonSource` synthesises the exact arrival process the
  shared-timeline rack generates: it draws through the rack's own
  :class:`~repro.cluster.frontend.ClientPopulation` (same
  ``cluster.arrivals`` / ``cluster.flows`` random streams, same draw
  order), which is what makes ``backend="dist"`` statistically — and,
  under load-oblivious placement, bit-exactly — comparable to
  ``repro.cluster``;
- :class:`TraceFileSource` streams a recorded workload from a JSONL
  file one line at a time (arbitrarily long traces never load into
  memory), following the dc-mock replayer design: records carry a
  timestamp and a flow key, optionally a recorded service time and a
  recorded latency to compare predictions against.

:class:`ReplayPacer` maps simulated time to wall-clock time under a
*speed factor*: ``speed_factor=1`` replays in real time, ``10`` replays
ten times faster, and ``0`` (the default everywhere, and what CI uses)
replays as fast as the fleet can simulate.

Trace file format — one JSON object per line::

    {"t": 0.000103, "flow": 17}
    {"t": 0.000117, "flow": 4, "service_us": 1.8, "latency_us": 12.4}

``t`` is seconds from the start of the trace; ``flow`` is any integer
client-flow key; ``service_us`` (optional) pins the request's service
demand instead of drawing from the target server's service model;
``latency_us`` (optional) is the recorded client latency, reported back
as the predicted-vs-recorded comparison in the ``dist_replay``
experiment.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import IO, Iterator, List, Optional, Union

from repro.sim.rng import RandomStreams

TRACE_SCHEMA_KEYS = ("t", "flow", "service_us", "latency_us")


@dataclass(frozen=True)
class TraceRecord:
    """One client request in a replayed workload."""

    time: float
    flow: int
    service_s: Optional[float] = None
    latency_s: Optional[float] = None  # recorded ground truth, if any

    def __post_init__(self):
        if self.time < 0:
            raise ValueError("trace record time must be non-negative")
        if self.flow < 0:
            raise ValueError("trace record flow must be non-negative")


class ArrivalSource:
    """Iterator protocol for replay sources (time-ordered records)."""

    def __iter__(self) -> Iterator[TraceRecord]:  # pragma: no cover - interface
        raise NotImplementedError


class PoissonSource(ArrivalSource):
    """The rack's own open-loop client population, as a replay stream.

    Each record draws through a
    :class:`~repro.cluster.frontend.ClientPopulation` on the seed's
    streams, as the rack's per-arrival tick does: one interarrival gap
    from ``cluster.arrivals``, then one flow from ``cluster.flows`` — so
    a dist run consumes the same random numbers the shared-timeline
    rack would.
    """

    def __init__(
        self,
        rate: float,
        num_flows: int,
        flow_skew: float,
        seed: int,
        start: float = 0.0,
    ):
        from repro.cluster.frontend import ClientPopulation

        self._clients = ClientPopulation(
            rate, num_flows, flow_skew, RandomStreams(seed)
        )
        self._start = start

    def __iter__(self) -> Iterator[TraceRecord]:
        clients = self._clients
        t = self._start
        while True:
            t = t + clients.next_interarrival()
            yield TraceRecord(time=t, flow=clients.draw_flow())


class TraceFileSource(ArrivalSource):
    """Stream a JSONL workload trace from disk, one record at a time."""

    def __init__(self, path: str, time_scale: float = 1.0):
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.path = path
        self.time_scale = time_scale

    def __iter__(self) -> Iterator[TraceRecord]:
        with open(self.path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                yield parse_trace_line(line, lineno)._scaled(self.time_scale)


def parse_trace_line(line: str, lineno: int = 0) -> TraceRecord:
    """One JSONL trace line -> :class:`TraceRecord`, with located errors."""
    where = f"trace line {lineno}" if lineno else "trace line"
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "t" not in data or "flow" not in data:
        raise ValueError(f"{where}: need an object with 't' and 'flow' keys")
    service = data.get("service_us")
    latency = data.get("latency_us")
    return TraceRecord(
        time=float(data["t"]),
        flow=int(data["flow"]),
        service_s=None if service is None else float(service) * 1e-6,
        latency_s=None if latency is None else float(latency) * 1e-6,
    )


def _scaled(self: TraceRecord, factor: float) -> TraceRecord:
    if factor == 1.0:
        return self
    return TraceRecord(
        time=self.time * factor,
        flow=self.flow,
        service_s=self.service_s,
        latency_s=self.latency_s,
    )


TraceRecord._scaled = _scaled  # keep the dataclass frozen-friendly


def write_trace(
    destination: Union[str, IO[str]],
    records: Iterator[TraceRecord],
    limit: Optional[int] = None,
) -> int:
    """Write records (JSONL) to a path or open handle; returns the count.

    With ``limit``, stops after that many records — the way to snapshot
    a finite trace file from an infinite :class:`PoissonSource`.
    """
    own = isinstance(destination, str)
    handle = open(destination, "w", encoding="utf-8") if own else destination
    written = 0
    try:
        for record in records:
            if limit is not None and written >= limit:
                break
            payload = {"t": record.time, "flow": record.flow}
            if record.service_s is not None:
                payload["service_us"] = record.service_s * 1e6
            if record.latency_s is not None:
                payload["latency_us"] = record.latency_s * 1e6
            handle.write(json.dumps(payload, separators=(",", ":")) + "\n")
            written += 1
    finally:
        if own:
            handle.close()
    return written


def take_window(
    pending: List[TraceRecord],
    source_iter: Iterator[TraceRecord],
    until: float,
) -> List[TraceRecord]:
    """Records with ``time < until``, reading ahead at most one record.

    ``pending`` holds the single looked-ahead record between calls (the
    source is an infinite or streaming iterator; this never buffers more
    than one record beyond the window).
    """
    window: List[TraceRecord] = []
    while True:
        if pending:
            record = pending.pop()
        else:
            record = next(source_iter, None)
            if record is None:
                return window
        if record.time >= until:
            pending.append(record)
            return window
        window.append(record)


class ReplayPacer:
    """Wall-clock pacing of simulated windows under a speed factor.

    ``speed_factor <= 0`` disables pacing (max speed). Otherwise the
    replayer sleeps so that simulated time advances ``speed_factor``
    times faster than wall time — the dc-mock knob that lets the same
    trace drive a live dashboard at 1x or a CI check at max speed.
    """

    def __init__(self, speed_factor: float = 0.0):
        if speed_factor < 0:
            raise ValueError("speed_factor must be >= 0 (0 = max speed)")
        self.speed_factor = speed_factor
        self._wall_start: Optional[float] = None
        self._sim_start = 0.0
        self.slept_s = 0.0

    def start(self, sim_time: float) -> None:
        self._wall_start = time.monotonic()
        self._sim_start = sim_time

    def pace(self, sim_time: float) -> None:
        """Block until wall clock catches up with ``sim_time``."""
        if self.speed_factor <= 0 or self._wall_start is None:
            return
        target = self._wall_start + (sim_time - self._sim_start) / self.speed_factor
        delay = target - time.monotonic()
        if delay > 0:
            self.slept_s += delay
            time.sleep(delay)
