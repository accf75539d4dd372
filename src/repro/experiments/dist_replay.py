"""Distributed trace replay: drive the worker fleet from a workload trace.

The dist backend's second entry point (the first is
``cluster_scaleout --backend dist``, which re-runs the scale-out grid
on the multi-process fleet). This experiment exercises the *streaming*
side of :mod:`repro.dist`: a finite JSONL workload trace — recorded
from the rack's own Poisson client population, or supplied via
``trace_path`` — is streamed through :class:`repro.dist.TraceFileSource`
into a fleet of worker processes, optionally paced against the wall
clock by ``speed_factor`` (0 = max speed, the CI setting; 1 = real
time, the live-dashboard setting).

Rows: one fleet-level summary row, then one row per worker node (the
per-node manifests the coordinator merged). When the trace records
ground-truth latencies (``latency_us``), the notes compare the fleet's
predicted mean latency against the recorded mean — the
replay-as-validation loop.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional

from repro.cluster import ClusterConfig
from repro.experiments.base import BackendConfig, ExperimentResult, UsageError

FLOWS_PER_SERVER = 16
FLOW_SKEW = 0.3
LOAD = 0.25


@dataclass(frozen=True)
class DistReplayConfig(BackendConfig):
    """Replay settings. ``dist`` is the only backend this runs on.

    ``trace_path`` replays a recorded JSONL trace (see
    docs/distributed.md for the schema); when absent, a trace is
    synthesised from the rack-equivalent Poisson population, written to
    a temporary file, and streamed back — so the file round-trip is
    always exercised. ``requests`` bounds the synthesised trace length
    (``None`` = derived from ``fast``).

    Live telemetry (docs/live-telemetry.md): ``telemetry`` attaches a
    :class:`repro.obs.live.TelemetryBus`; ``telemetry_out`` streams the
    frames to a JSONL file; ``telemetry_prom_out`` writes a Prometheus
    textfile of the final fleet view; ``dash`` paints the terminal
    dashboard while the run is in flight (pairs with ``speed_factor``).
    Any of the output/dash options implies ``telemetry``. Telemetry
    never perturbs the simulation — results are bit-exact either way.
    """

    backend: str = "dist"
    workers: int = 2
    speed_factor: float = 0.0
    transport: str = "unix"
    servers: int = 4
    requests: Optional[int] = None
    trace_path: Optional[str] = None
    telemetry: bool = False
    dash: bool = False
    telemetry_out: Optional[str] = None
    telemetry_prom_out: Optional[str] = None
    telemetry_interval_s: float = 1e-3

    supported_backends = ("dist",)

    def __post_init__(self):
        super().__post_init__()
        if self.servers < 1:
            raise ValueError("servers must be >= 1")
        if not 1 <= self.workers <= self.servers:
            raise UsageError(
                f"workers={self.workers} invalid; expected one of "
                f"1..{self.servers} (worker processes are capped by the "
                f"{self.servers}-server fleet)"
            )
        if self.speed_factor < 0:
            raise ValueError("speed_factor must be >= 0 (0 = max speed)")
        if self.requests is not None and self.requests < 100:
            raise ValueError("requests must be >= 100 (or None for defaults)")
        if self.telemetry_interval_s < 0:
            raise ValueError("telemetry_interval_s must be >= 0")

    @property
    def telemetry_enabled(self) -> bool:
        return bool(
            self.telemetry
            or self.dash
            or self.telemetry_out
            or self.telemetry_prom_out
        )


def _synthesise_trace(config: ClusterConfig, requests: int, path: str) -> None:
    """Record ``requests`` arrivals of the rack's client population."""
    from repro.cluster.frontend import offered_rate
    from repro.dist.replay import PoissonSource, write_trace

    rate = offered_rate(config, load=LOAD)
    source = PoissonSource(rate, config.num_flows, config.flow_skew, config.seed)
    write_trace(path, islice(iter(source), requests))


def _trace_span(path: str) -> tuple:
    """(record count, last timestamp, recorded mean latency or None)."""
    from repro.dist.replay import TraceFileSource

    count, last, latency_sum, latency_n = 0, 0.0, 0.0, 0
    for record in TraceFileSource(path):
        count += 1
        last = record.time
        if record.latency_s is not None:
            latency_sum += record.latency_s
            latency_n += 1
    if count == 0:
        raise ValueError(f"trace {path!r} has no records")
    recorded = latency_sum / latency_n * 1e6 if latency_n else None
    return count, last, recorded


def run(config: Optional[DistReplayConfig] = None) -> ExperimentResult:
    """Distributed replay: stream a workload trace through the fleet."""
    from repro.dist import DistOptions, TraceFileSource, run_cluster_dist

    config = config or DistReplayConfig()
    requests = config.requests or (2500 if config.fast else 10000)
    cluster = ClusterConfig(
        num_servers=config.servers,
        notification="hyperplane",
        balancer="p2c",
        num_flows=FLOWS_PER_SERVER * config.servers,
        flow_skew=FLOW_SKEW,
        seed=config.seed,
    )

    bus = sink = dashboard = None
    if config.telemetry_enabled:
        from repro.obs.live import JsonlTelemetrySink, TelemetryBus

        bus = TelemetryBus()
        if config.telemetry_out:
            sink = JsonlTelemetrySink(config.telemetry_out)
            bus.subscribe(sink)
        if config.dash:
            from repro.obs.dash import Dashboard

            dashboard = Dashboard()
            dashboard.attach(bus)

    temp_path = None
    try:
        if config.trace_path is None:
            handle, temp_path = tempfile.mkstemp(
                prefix="repro-dist-replay-", suffix=".jsonl"
            )
            os.close(handle)
            _synthesise_trace(cluster, requests, temp_path)
            trace_path = temp_path
        else:
            trace_path = config.trace_path

        count, span, recorded_mean_us = _trace_span(trace_path)
        warmup = span * 0.1
        dist_run = run_cluster_dist(
            cluster,
            duration=span,
            warmup=warmup,
            source=TraceFileSource(trace_path),
            options=DistOptions(
                workers=config.workers,
                transport=config.transport,
                speed_factor=config.speed_factor,
                telemetry_interval_s=config.telemetry_interval_s,
            ),
            telemetry=bus,
        )
    finally:
        if sink is not None:
            sink.close()
        if dashboard is not None:
            dashboard.final()
        if temp_path is not None:
            try:
                os.unlink(temp_path)
            except OSError:
                pass

    if bus is not None and config.telemetry_prom_out:
        from repro.obs.live import write_prometheus_textfile

        write_prometheus_textfile(bus, config.telemetry_prom_out)

    summary = dist_run.metrics.summary()
    result = ExperimentResult(
        "dist_replay",
        f"Distributed trace replay: {count} requests over "
        f"{config.servers} servers / {dist_run.info['workers']} workers "
        f"({dist_run.info['transport']})",
    )
    result.rows.append(
        {
            "node": "fleet",
            "servers": config.servers,
            "completed": int(summary["completed"]),
            "p50_us": summary["p50_latency_us"],
            "p99_us": summary["p99_latency_us"],
            "avg_us": summary["avg_latency_us"],
            "lost": int(summary["lost"]),
            "redispatched": int(summary["redispatched"]),
        }
    )
    for node in dist_run.nodes:
        per_server: Dict[str, Dict] = node.get("per_server", {})
        result.rows.append(
            {
                "node": f"worker-{node['worker_id']}",
                "servers": len(node.get("servers", [])),
                "completed": sum(
                    s.get("completed_ok", 0) for s in per_server.values()
                ),
                "lost": sum(s.get("lost", 0) for s in per_server.values()),
            }
        )
    result.dist_info = {
        "workers": dist_run.info["workers"],
        "transport": dist_run.info["transport"],
        "speed_factor": config.speed_factor,
        "partial": dist_run.partial,
        "worker_faults": dist_run.worker_faults,
        "nodes": dist_run.nodes,
        "trace_records": count,
        "trace_span_s": span,
    }
    if bus is not None:
        result.dist_info["telemetry"] = dist_run.info.get("telemetry", {})
        if "flight_recorder" in dist_run.info:
            result.dist_info["flight_recorder"] = dist_run.info["flight_recorder"]
        result.notes.append(
            f"telemetry: {bus.frames_seen} frames from workers "
            f"{bus.worker_ids()} at {config.telemetry_interval_s * 1e3:g} ms "
            f"cadence"
            + (f", streamed to {config.telemetry_out}" if config.telemetry_out else "")
        )
    result.notes.append(
        f"replayed {count} trace records spanning {span * 1e3:.1f} ms sim "
        f"time at speed_factor={config.speed_factor:g} "
        f"(paced sleep {dist_run.info.get('paced_sleep_s', 0.0):.2f} s)"
    )
    if recorded_mean_us is not None:
        predicted = summary["avg_latency_us"]
        result.notes.append(
            f"predicted mean latency {predicted:.1f} us vs recorded "
            f"{recorded_mean_us:.1f} us "
            f"({predicted / recorded_mean_us:.2f}x)"
        )
    if dist_run.partial:
        result.notes.append(
            f"PARTIAL fleet: worker faults {dist_run.worker_faults}"
        )
    return result
