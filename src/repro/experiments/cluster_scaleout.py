"""Cluster scale-out: fleet tail latency for racks of 1..64 servers.

The paper stops at one server; this sweep asks what its comparison
looks like at rack scale. N servers (each an unmodified single-server
data plane running spinning or HyperPlane notification) sit behind a
front-end balancer, with a Zipf-skewed client flow population injecting
the load imbalance that per-flow hashing cannot see.

Grid: servers {1, 4, 16, 64} x balancer policy x {spinning, hyperplane}
x fault profile. The headline shapes, asserted in
``benchmarks/test_cluster_scaleout.py``:

- spinning-fleet p99 degrades super-linearly with fleet size under
  hashed (rss) placement — the hottest server saturates, and spinning's
  empty-queue scans amplify the overload (Fig. 10's scale-out imbalance
  sensitivity, at rack scale);
- HyperPlane fleets stay flat (within 2x of their 1-server p99) until a
  straggler or failover concentrates load;
- power-of-two-choices recovers most of the spinning gap by spreading
  requests per-request instead of per-flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster import ClusterConfig, run_cluster
from repro.experiments.base import BackendConfig, ExperimentResult, UsageError
from repro.experiments.parallel import parallel_map

# Operating point (calibrated): wide per-server queue arrays make the
# spinning scan cost steep, a modest Zipf skew concentrates flows, and
# the flow population scales with the fleet so per-server queue
# occupancy stays comparable across N (pure imbalance, not dilution).
QUEUES_PER_SERVER = 512
FLOWS_PER_SERVER = 16
FLOW_SKEW = 0.3
LOAD = 0.25
DURATION = 0.04
WARMUP = 0.01

FAST_SERVERS = (1, 4, 16)
FULL_SERVERS = (1, 4, 16, 64)
FAST_POLICIES = ("rss", "p2c")
FULL_POLICIES = ("rss", "round-robin", "least-loaded", "p2c")
FAULT_PROFILES = ("crash", "straggler", "link-degrade")
FAULT_SERVERS = 4  # fleet size for the fault-profile rows

Point = Tuple[int, str, str, str, int, int]


def scaleout_point(point: Point) -> Dict[str, object]:
    """One grid point -> one result row (module-level: picklable)."""
    servers, balancer, system, profile, seed, completions = point
    config = ClusterConfig(
        num_servers=servers,
        notification=system,
        balancer=balancer,
        fault_profile=profile,
        queues_per_server=QUEUES_PER_SERVER,
        num_flows=FLOWS_PER_SERVER * servers,
        flow_skew=FLOW_SKEW,
        seed=seed,
    )
    rack = run_cluster(
        config,
        load=LOAD,
        duration=DURATION,
        warmup=WARMUP,
        target_completions=completions,
    )
    summary = rack.metrics.summary()
    return {
        "servers": servers,
        "system": system,
        "balancer": balancer,
        "fault": profile,
        "p50_us": summary["p50_latency_us"],
        "p99_us": summary["p99_latency_us"],
        "p999_us": summary["p999_latency_us"],
        "avg_us": summary["avg_latency_us"],
        "hottest_share": summary["hottest_share"],
        "lost": int(summary["lost"]),
        "redispatched": int(summary["redispatched"]),
    }


def dist_scaleout_point(
    point: Point, workers: int, speed_factor: float, telemetry=None
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """One grid point on the multi-process fleet -> (row, fleet record).

    Each point spawns its own worker fleet (``min(workers, servers)``
    processes over the default transport), replays the rack-equivalent
    Poisson client population, and merges per-node metrics back through
    the obs snapshot machinery — so the row has exactly the same shape
    as :func:`scaleout_point`'s. ``telemetry`` optionally attaches a
    :class:`repro.obs.live.TelemetryBus` shared across grid points.
    """
    from repro.dist import DistOptions, run_cluster_dist

    servers, balancer, system, profile, seed, completions = point
    config = ClusterConfig(
        num_servers=servers,
        notification=system,
        balancer=balancer,
        fault_profile=profile,
        queues_per_server=QUEUES_PER_SERVER,
        num_flows=FLOWS_PER_SERVER * servers,
        flow_skew=FLOW_SKEW,
        seed=seed,
    )
    run = run_cluster_dist(
        config,
        load=LOAD,
        duration=DURATION,
        warmup=WARMUP,
        target_completions=completions,
        options=DistOptions(workers=workers, speed_factor=speed_factor),
        telemetry=telemetry,
    )
    summary = run.metrics.summary()
    row = {
        "servers": servers,
        "system": system,
        "balancer": balancer,
        "fault": profile,
        "p50_us": summary["p50_latency_us"],
        "p99_us": summary["p99_latency_us"],
        "p999_us": summary["p999_latency_us"],
        "avg_us": summary["avg_latency_us"],
        "hottest_share": summary["hottest_share"],
        "lost": int(summary["lost"]),
        "redispatched": int(summary["redispatched"]),
    }
    record = {
        "servers": servers,
        "system": system,
        "balancer": balancer,
        "fault": profile,
        "workers": run.info["workers"],
        "transport": run.info["transport"],
        "partial": run.partial,
        "worker_faults": run.worker_faults,
        "nodes": run.nodes,
    }
    if telemetry is not None:
        record["telemetry"] = run.info.get("telemetry", {})
    return row, record


def _completions(servers: int, fast: bool) -> int:
    base = 3000 if fast else 6000
    return base * min(servers, 4)


def _grid(fast: bool, seed: int) -> List[Point]:
    """Scale rows first, then fault rows at a fixed fleet size."""
    server_counts: Sequence[int] = FAST_SERVERS if fast else FULL_SERVERS
    policies: Sequence[str] = FAST_POLICIES if fast else FULL_POLICIES
    points: List[Point] = []
    for servers in server_counts:
        for system in ("spinning", "hyperplane"):
            for balancer in policies:
                points.append(
                    (servers, balancer, system, "none", seed,
                     _completions(servers, fast))
                )
    for profile in FAULT_PROFILES:
        for system in ("spinning", "hyperplane"):
            points.append(
                (FAULT_SERVERS, "rss", system, profile, seed,
                 _completions(FAULT_SERVERS, fast))
            )
    return points


def _pick(rows, **match) -> Dict[str, object]:
    for row in rows:
        if all(row[key] == value for key, value in match.items()):
            return row
    raise KeyError(f"no row matching {match}")


@dataclass(frozen=True)
class ClusterScaleoutConfig(BackendConfig):
    """Rack-scale sweep settings (defaults = calibrated operating point).

    ``trace`` runs the sweep under a causal tracer and appends the
    per-mechanism latency decomposition to the notes.

    ``backend``: ``event`` runs every grid point on the in-process
    rack simulator; ``dist`` runs every grid point across a fleet of
    worker processes over loopback sockets (``workers`` per point,
    capped at the point's server count) via
    :func:`repro.dist.run_cluster_dist` — bit-exact with the event rack
    for rss placement, statistically equivalent otherwise (see
    docs/distributed.md). ``speed_factor`` paces the dist replay
    against the wall clock (0 = max speed, what CI uses).

    ``telemetry`` / ``telemetry_out`` attach one shared live-telemetry
    bus across all grid-point fleets (dist backend only — see
    docs/live-telemetry.md); frames stream to ``telemetry_out`` as
    JSONL when set.
    """

    trace: bool = False
    workers: int = 4
    speed_factor: float = 0.0
    telemetry: bool = False
    telemetry_out: Optional[str] = None

    supported_backends = ("event", "dist")

    def __post_init__(self):
        super().__post_init__()
        ceiling = max(FULL_SERVERS)
        if not 1 <= self.workers <= ceiling:
            raise UsageError(
                f"workers={self.workers} invalid; expected one of "
                f"1..{ceiling} (per-point fleets cap workers at the "
                f"point's server count; the largest grid point has "
                f"{ceiling} servers)"
            )
        if self.speed_factor < 0:
            raise ValueError("speed_factor must be >= 0 (0 = max speed)")
        if (self.telemetry or self.telemetry_out) and self.backend != "dist":
            raise UsageError(
                "telemetry requires backend='dist' (live frames stream "
                "from worker processes; the in-process event backend has "
                "none)"
            )


def run(config: Optional[ClusterScaleoutConfig] = None) -> ExperimentResult:
    """Cluster scale-out: fleet p99 vs. servers, balancers, and faults."""
    config = config or ClusterScaleoutConfig()
    from repro.experiments.base import run_with_tracing

    return run_with_tracing(config, lambda: _run_grid(config))


def _run_grid(config: ClusterScaleoutConfig) -> ExperimentResult:
    from repro.obs.trace import get_active_tracer

    points = _grid(config.fast, config.seed)
    # Spans cannot cross the process-pool boundary, so a traced sweep
    # runs its (results-identical) serial in-process path; racks built
    # here then self-trace into the ambient tracer.
    processes = 1 if get_active_tracer() is not None else None
    dist_records: List[Dict[str, object]] = []
    if config.backend == "dist":
        # Each point owns a worker fleet; run them serially so fleets
        # never compete for cores (the parallelism is the fleet).
        bus = sink = None
        if config.telemetry or config.telemetry_out:
            from repro.obs.live import JsonlTelemetrySink, TelemetryBus

            bus = TelemetryBus()
            if config.telemetry_out:
                sink = JsonlTelemetrySink(config.telemetry_out)
                bus.subscribe(sink)
        rows = []
        try:
            for point in points:
                row, record = dist_scaleout_point(
                    point, config.workers, config.speed_factor, telemetry=bus
                )
                rows.append(row)
                dist_records.append(record)
        finally:
            if sink is not None:
                sink.close()
    else:
        rows = parallel_map(scaleout_point, points, processes=processes)
    result = ExperimentResult(
        "cluster_scaleout",
        "Cluster scale-out: fleet tail latency (us), "
        f"{QUEUES_PER_SERVER} queues/server, skew {FLOW_SKEW}, "
        f"load {LOAD:.0%}",
    )
    result.rows = rows
    if config.backend == "dist":
        worker_faults = [
            dict(fault, point=i)
            for i, record in enumerate(dist_records)
            for fault in record["worker_faults"]
        ]
        result.dist_info = {
            "workers": config.workers,
            "speed_factor": config.speed_factor,
            "transport": dist_records[0]["transport"] if dist_records else None,
            "points": len(dist_records),
            "partial": any(record["partial"] for record in dist_records),
            "worker_faults": worker_faults,
            "records": dist_records,
        }
        if bus is not None:
            result.dist_info["telemetry_frames"] = bus.frames_seen
            result.notes.append(
                f"telemetry: {bus.frames_seen} live frames folded across "
                f"{len(dist_records)} point fleets"
                + (
                    f", streamed to {config.telemetry_out}"
                    if config.telemetry_out
                    else ""
                )
            )
        result.notes.append(
            f"backend=dist: every point ran on a multi-process fleet "
            f"({config.workers} workers max, "
            f"{result.dist_info['transport']} transport); rss rows are "
            "bit-exact with the event rack, per-request policies are "
            "statistically equivalent; see docs/distributed.md"
        )

    biggest = max(row["servers"] for row in rows)
    spin_1 = _pick(rows, servers=1, system="spinning", balancer="rss", fault="none")
    spin_n = _pick(rows, servers=biggest, system="spinning", balancer="rss", fault="none")
    hp_1 = _pick(rows, servers=1, system="hyperplane", balancer="rss", fault="none")
    hp_n = _pick(rows, servers=biggest, system="hyperplane", balancer="rss", fault="none")
    p2c_n = _pick(rows, servers=biggest, system="spinning", balancer="p2c", fault="none")
    result.notes.append(
        f"rss scale-out 1 -> {biggest} servers: spinning p99 "
        f"{spin_1['p99_us']:.0f} -> {spin_n['p99_us']:.0f} us "
        f"({spin_n['p99_us'] / spin_1['p99_us']:.1f}x), HyperPlane "
        f"{hp_1['p99_us']:.1f} -> {hp_n['p99_us']:.1f} us "
        f"({hp_n['p99_us'] / hp_1['p99_us']:.2f}x)"
    )
    gap = spin_n["p99_us"] - spin_1["p99_us"]
    if gap > 0:
        recovered = 1.0 - (p2c_n["p99_us"] - spin_1["p99_us"]) / gap
        result.notes.append(
            f"p2c recovers {recovered:.0%} of the spinning scale-out gap "
            f"(p99 {p2c_n['p99_us']:.0f} us at {biggest} servers)"
        )
    straggler = _pick(
        rows, servers=FAULT_SERVERS, system="hyperplane", fault="straggler"
    )
    crash = _pick(rows, servers=FAULT_SERVERS, system="hyperplane", fault="crash")
    result.notes.append(
        f"faults at {FAULT_SERVERS} servers (HyperPlane, rss): straggler "
        f"p99 {straggler['p99_us']:.0f} us, crash p99 {crash['p99_us']:.1f} us "
        f"with {crash['redispatched']} re-dispatched requests"
    )
    return result
