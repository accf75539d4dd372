"""CI perf gates: the in-process ratio and overhead checks hostbench cannot make.

hostbench (``hostbench/``, declared in ``BENCHMARK.json``) times the
commands users run and compares each change with its parent. What it
cannot express are the checks below, each pairing two legs of one
workload in one process: the rack fast path against its frozen oracle,
tracing and telemetry on against off, the vec batch engine against the
event path, the dist fast runtime against lockstep. Every floor lives
once, in :data:`GATES`, one row per scenario.

Run it from the checkout root, since the rack gates import
``tests.oracles``. A bare run takes the default scenarios; the vec and
fleet scenarios run only when named, each group in a process of its
own as CI runs them::

    python -m benchmarks.perf.gates --quick --repeat 2 --check
    python -m benchmarks.perf.gates --quick --repeat 2 --check --scenario vec_fig8_grid
    python -m benchmarks.perf.gates --quick --check --scenario telemetry_overhead

``--check`` exits 1 when any floor fails, naming the scenario and field.
Rates are hardware dependent: the committed baselines next to this file
were recorded on one host, so the rate floors only catch
order-of-magnitude pathologies elsewhere. To profile one scenario, run
``python -m cProfile -s cumulative -m benchmarks.perf.gates --quick
--scenario ID``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

BENCH_SCHEMA_VERSION = 1
PERF_DIR = Path(__file__).resolve().parent


# -- scenario bodies ---------------------------------------------------------

def _sdp_scenario(
    config, quick: bool, target: int, load: Optional[float] = None
) -> Dict[str, float]:
    """Build one data-plane system, run it, rate it by engine events.

    Construction is inside the timed region on purpose: the structural
    cost-curve derivation runs at build time, and sweeps rebuild a
    system per grid point — build cost *is* sweep cost.
    """
    from repro.sdp.spinning import build_spinning_cores
    from repro.sdp.system import DataPlaneSystem

    t0 = time.perf_counter()
    system = DataPlaneSystem(config)
    build_spinning_cores(system)
    if load is None:
        system.attach_closed_loop()
    else:
        system.attach_open_loop(load=load)
    metrics = system.run(
        duration=3.0,
        warmup=200.0 * config.workload.mean_service_seconds,
        target_completions=target,
    )
    wall = time.perf_counter() - t0
    events = system.sim.events_dispatched
    return {
        "wall_seconds": wall,
        "events": events,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "completions": metrics.latency.count,
        "throughput_mtps": metrics.throughput_mtps,
    }


def sdp_trace_overhead(quick: bool) -> Dict[str, float]:
    """Causal-tracing cost on the Fig. 10 point, measured as three
    interleaved legs of the same workload:

    - ``off``: no ambient tracer — the default path every untraced run
      takes (probes are never installed). Primary numbers.
    - ``disabled``: a *disabled* tracer (``NULL_TRACER``) sits ambient.
      By contract this must behave exactly like ``off`` — probes are
      only installed for an *enabled* tracer — so ``disabled_ratio``
      is the tracing-disabled overhead the CI perf-smoke step gates at
      <3%. If a change ever makes disabled tracers install probes,
      this leg slows down and the gate fires.
    - ``traced``: full tracing, every request retained (informational:
      what turning tracing on actually costs).

    One untimed warm-up build runs first so the structural cost-curve
    memo is hot for every leg, and legs are interleaved with the best
    wall time per leg kept — machine drift hits all legs equally.
    """
    from repro.obs.trace import NULL_TRACER, Tracer, active_tracer
    from repro.sdp.config import SDPConfig
    from repro.sdp.system import DataPlaneSystem

    config = SDPConfig(
        num_queues=400,
        workload="packet-encapsulation",
        shape="FB",
        num_cores=4,
        cluster_cores=4,
        seed=42,
    )
    target = 4000 if quick else 8000
    DataPlaneSystem(config)  # warm the cost-curve memo outside the legs

    def leg(tracer) -> Dict[str, float]:
        if tracer is None:
            return _sdp_scenario(config, quick, target=target, load=0.5)
        with active_tracer(tracer):
            measured = _sdp_scenario(config, quick, target=target, load=0.5)
        tracer.finalize()
        measured["spans"] = len(tracer.spans)
        return measured

    # Four paired rounds. The reported ratios take the MAX over rounds
    # of (leg rate / that round's off rate): under the no-overhead null
    # each round's ratio fluctuates around 1, so one quiet round keeps
    # the gate green, while a *persistent* overhead (probes installed on
    # the disabled path) shifts every round down and trips it — a
    # one-sided test that noisy shared runners cannot flake.
    best: Dict[str, Dict[str, float]] = {}
    ratios: Dict[str, List[float]] = {"disabled": [], "traced": []}
    for _ in range(4):
        rates: Dict[str, float] = {}
        for name in ("off", "disabled", "traced"):
            tracer = {
                "off": None,
                "disabled": NULL_TRACER,
                "traced": Tracer(seed=42),
            }[name]
            measured = leg(tracer)
            rates[name] = measured["events_per_sec"]
            if name not in best or measured["wall_seconds"] < best[name]["wall_seconds"]:
                best[name] = measured
        if rates["off"] > 0:
            ratios["disabled"].append(rates["disabled"] / rates["off"])
            ratios["traced"].append(rates["traced"] / rates["off"])

    result = dict(best["off"])
    result["disabled_events_per_sec"] = best["disabled"]["events_per_sec"]
    result["traced_events_per_sec"] = best["traced"]["events_per_sec"]
    result["traced_spans"] = best["traced"]["spans"]
    if ratios["disabled"]:
        result["disabled_ratio"] = max(ratios["disabled"])
        result["traced_ratio"] = max(ratios["traced"])
    return result


def structural_spin16(quick: bool) -> Dict[str, float]:
    """The execution-driven validation model: every poll is a real memory
    access; idle windows between arrivals are where poll batching pays."""
    from repro.structural.machine import StructuralMachine
    from repro.structural.spinning import StructuralSpinningCore

    items = 60 if quick else 400
    machine = StructuralMachine(
        num_queues=16, num_producers=1, num_consumers=1, seed=42
    )
    core = StructuralSpinningCore(machine)
    machine.start_producers(total_rate=100_000.0, max_items=items)
    t0 = time.perf_counter()
    metrics = machine.run(duration=0.05, target_completions=items)
    wall = time.perf_counter() - t0
    return {
        "wall_seconds": wall,
        "events": machine.sim.events_dispatched,
        "events_per_sec": machine.sim.events_dispatched / wall if wall > 0 else 0.0,
        "polls": core.polls,
        "polls_per_sec": core.polls / wall if wall > 0 else 0.0,
        "completions": metrics.latency.count,
        "mean_us": metrics.latency.mean_us,
    }


def structural_hp16(quick: bool) -> Dict[str, float]:
    """Execution-driven HyperPlane core: the monitoring set snoops real
    GetM/Upgrade transactions at the MESI directory (QWAIT halts instead
    of polling, so events track arrivals, not idle spinning)."""
    from repro.structural.hyperplane import StructuralHyperPlane, StructuralHyperPlaneCore
    from repro.structural.machine import StructuralMachine

    items = 150 if quick else 400
    machine = StructuralMachine(
        num_queues=16, num_producers=1, num_consumers=1, seed=42
    )
    accelerator = StructuralHyperPlane(machine)
    StructuralHyperPlaneCore(machine, accelerator)
    machine.start_producers(total_rate=100_000.0, max_items=items)
    t0 = time.perf_counter()
    metrics = machine.run(duration=0.05, target_completions=items)
    wall = time.perf_counter() - t0
    return {
        "wall_seconds": wall,
        "events": machine.sim.events_dispatched,
        "events_per_sec": machine.sim.events_dispatched / wall if wall > 0 else 0.0,
        "completions": metrics.latency.count,
        "mean_us": metrics.latency.mean_us,
        "spurious_activations": accelerator.spurious_activations,
    }


def structural_spin2c_fs(quick: bool) -> Dict[str, float]:
    """Two spinning consumers with doorbell false sharing: frequent
    cross-core invalidations keep the scan off the steady-state fast
    path, so this stresses the general access paths."""
    from repro.structural.machine import StructuralMachine
    from repro.structural.spinning import StructuralSpinningCore

    # Two idle consumers cap each other's batch horizon (each one's
    # resume is the other's next event), so idle wall cost stays
    # per-poll by design — keep the simulated window tight.
    items = 8 if quick else 20
    duration = 5e-5 if quick else 1e-4
    machine = StructuralMachine(
        num_queues=8,
        num_producers=1,
        num_consumers=2,
        seed=42,
        false_sharing=True,
    )
    cores = [StructuralSpinningCore(machine, i) for i in range(2)]
    machine.start_producers(total_rate=300_000.0, max_items=items)
    t0 = time.perf_counter()
    metrics = machine.run(duration=duration, target_completions=items)
    wall = time.perf_counter() - t0
    polls = sum(core.polls for core in cores)
    return {
        "wall_seconds": wall,
        "events": machine.sim.events_dispatched,
        "events_per_sec": machine.sim.events_dispatched / wall if wall > 0 else 0.0,
        "polls": polls,
        "polls_per_sec": polls / wall if wall > 0 else 0.0,
        "completions": metrics.latency.count,
        "mean_us": metrics.latency.mean_us,
    }


def vec_fig8_grid(quick: bool) -> Dict[str, float]:
    """Sweep-point throughput: the vec batch engine vs. per-point event
    runs on the Fig. 8 fast grid (48 closed-loop points).

    Rates are *sweep points per second* (``events`` = grid points), the
    unit that matters for design-space exploration. The vec leg batches
    the whole grid through one struct-of-arrays pass; the event leg
    replays a slice of the same grid (the full grid when not quick)
    through the exact simulator at the fig8 fast-mode completions
    budget. ``speedup_vs_event`` is the points/sec ratio — the
    committed baseline (benchmarks/perf/BENCH_vec.json) pins it at
    >= 50x. Skipped (zero rate, ``skipped`` reason) without numpy.
    """
    from repro.vec import NUMPY_INSTALL_HINT, numpy_available

    if not numpy_available():
        return {
            "wall_seconds": 0.0,
            "events": 0,
            "events_per_sec": 0.0,
            "skipped": f"numpy not installed; {NUMPY_INSTALL_HINT}",
        }
    from repro.core.runner import run_hyperplane
    from repro.sdp.config import SDPConfig
    from repro.sdp.runner import run_spinning
    from repro.vec.arrays import SweepPoint, compile_points
    from repro.vec.backend import peak_grid

    grid = [
        (workload, shape, count, mechanism)
        for workload in ("packet-encapsulation", "crypto-forwarding")
        for shape in ("FB", "PC", "NC", "SQ")
        for count in (1, 200, 1000)
        for mechanism in ("spinning", "hyperplane")
    ]

    t0 = time.perf_counter()
    points = [
        SweepPoint(workload, shape, count, mechanism=mechanism)
        for (workload, shape, count, mechanism) in grid
    ]
    compiled = compile_points(points)
    mtps = peak_grid(compiled, seed=42)
    vec_wall = time.perf_counter() - t0

    # The grid alternates spinning and HyperPlane points; a stride of 7
    # samples both mechanisms at all three queue counts (7 points).
    event_grid = grid[::7] if quick else grid
    target = 1500
    t0 = time.perf_counter()
    for workload, shape, count, mechanism in event_grid:
        runner = run_spinning if mechanism == "spinning" else run_hyperplane
        runner(
            SDPConfig(num_queues=count, workload=workload, shape=shape, seed=42),
            closed_loop=True,
            target_completions=target,
            max_seconds=3.0,
        )
    event_wall = time.perf_counter() - t0

    vec_rate = len(grid) / vec_wall if vec_wall > 0 else 0.0
    event_rate = len(event_grid) / event_wall if event_wall > 0 else 0.0
    return {
        "wall_seconds": vec_wall,
        "events": len(grid),
        "events_per_sec": vec_rate,
        "event_points": len(event_grid),
        "event_wall_seconds": event_wall,
        "event_points_per_sec": event_rate,
        "speedup_vs_event": vec_rate / event_rate if event_rate > 0 else 0.0,
        "peak_mtps": float(mtps.max()),
    }


def _dist_leg(config, path, duration, workers, telemetry=None, **options):
    """One timed ``run_cluster_dist`` episode replaying a trace file."""
    from repro.dist.coordinator import DistOptions, run_cluster_dist
    from repro.dist.replay import TraceFileSource

    t0 = time.perf_counter()
    result = run_cluster_dist(
        config,
        source=TraceFileSource(path),
        duration=duration,
        warmup=0.01,
        options=DistOptions(workers=workers, **options),
        telemetry=telemetry,
    )
    return time.perf_counter() - t0, result


def dist_replay_8w(quick: bool) -> Dict[str, float]:
    """Trace replay across an 8-worker fleet: lookahead overlap vs. the
    lockstep runtime (`lookahead=1`), both on the binary hot frames.

    The workload is a sparse long-horizon datacenter-style trace — many
    sub-millisecond windows, light per-window work — which is exactly
    where lockstep pays one RPC round-trip per worker per 50 µs window
    and the overlap runtime pays one per ~40-window batch. Rates are
    windows/sec through the fast runtime; ``speedup_vs_lockstep`` is
    the committed headline (the CI dist gate pins it at >= 3x; it was
    recorded against JSON lockstep frames, so the measured binary
    lockstep ratio runs lower), the
    ``*_2w`` fields show the 2 -> 8 worker trend, and ``bit_exact``
    asserts all four legs produced identical rss fingerprints.
    """
    import itertools
    import os
    import tempfile

    from repro.cluster.config import ClusterConfig
    from repro.dist.replay import PoissonSource, write_trace

    duration = 1.2 if quick else 2.4
    config = ClusterConfig(
        num_servers=8,
        notification="hyperplane",
        balancer="rss",
        queues_per_server=16,
        num_flows=32,
        flow_skew=0.3,
        seed=21,
    )
    source = PoissonSource(
        rate=5000.0,
        num_flows=config.num_flows,
        flow_skew=config.flow_skew,
        seed=33,
    )
    fd, path = tempfile.mkstemp(suffix=".trace", prefix="repro-gates-dist-")
    os.close(fd)
    try:
        n_records = write_trace(
            path, itertools.takewhile(lambda r: r.time < duration, iter(source))
        )
        fast_wall, fast = _dist_leg(config, path, duration, 8)
        lock_wall, lock = _dist_leg(config, path, duration, 8, lookahead=1)
        fast2_wall, fast2 = _dist_leg(config, path, duration, 2)
        lock2_wall, lock2 = _dist_leg(config, path, duration, 2, lookahead=1)
    finally:
        os.unlink(path)
    windows = fast.info["windows"]
    fingerprints = {
        leg.metrics.fingerprint() for leg in (fast, lock, fast2, lock2)
    }
    return {
        "wall_seconds": fast_wall,
        "events": windows,
        "events_per_sec": windows / fast_wall if fast_wall > 0 else 0.0,
        "trace_records": n_records,
        "completions": fast.metrics.latency.count,
        "exchanges": fast.info["exchanges"],
        "lockstep_exchanges": lock.info["exchanges"],
        "lockstep_wall_seconds": lock_wall,
        "speedup_vs_lockstep": lock_wall / fast_wall if fast_wall > 0 else 0.0,
        "wall_seconds_2w": fast2_wall,
        "lockstep_wall_seconds_2w": lock2_wall,
        "speedup_vs_lockstep_2w": (
            lock2_wall / fast2_wall if fast2_wall > 0 else 0.0
        ),
        "bit_exact": len(fingerprints) == 1,
    }


def dist_grid_row(quick: bool) -> Dict[str, float]:
    """One load-aware scale-out grid point (p2c) through the dist
    runtime: bounded lookahead (`LOAD_AWARE_LOOKAHEAD` windows) vs. the
    lockstep baseline.

    p2c steers off live queue depths, so pre-steering a batch trades a
    little feedback freshness for round-trips; this scenario tracks both
    sides of that trade — ``speedup_vs_lockstep`` for the wall-clock
    win and ``p99_rel_diff_vs_lockstep`` for the statistical drift
    (docs/distributed.md documents the tolerance envelope).
    """
    from repro.cluster.config import ClusterConfig
    from repro.dist.coordinator import DistOptions, run_cluster_dist

    duration = 0.08 if quick else 0.16
    config = ClusterConfig(
        num_servers=4,
        notification="hyperplane",
        balancer="p2c",
        queues_per_server=32,
        num_flows=64,
        flow_skew=0.3,
        seed=7,
    )

    def leg(**options):
        t0 = time.perf_counter()
        result = run_cluster_dist(
            config,
            load=0.15,
            duration=duration,
            warmup=0.01,
            options=DistOptions(workers=4, **options),
        )
        return time.perf_counter() - t0, result

    fast_wall, fast = leg()
    lock_wall, lock = leg(lookahead=1)
    windows = fast.info["windows"]
    fast_p99 = fast.metrics.p99_us
    lock_p99 = lock.metrics.p99_us
    return {
        "wall_seconds": fast_wall,
        "events": windows,
        "events_per_sec": windows / fast_wall if fast_wall > 0 else 0.0,
        "lookahead": fast.info["lookahead"],
        "completions": fast.metrics.latency.count,
        "lockstep_wall_seconds": lock_wall,
        "speedup_vs_lockstep": lock_wall / fast_wall if fast_wall > 0 else 0.0,
        "p99_rel_diff_vs_lockstep": (
            abs(fast_p99 - lock_p99) / lock_p99 if lock_p99 > 0 else 0.0
        ),
    }


def telemetry_overhead(quick: bool) -> Dict[str, float]:
    """Live-telemetry cost on the ``dist_replay_8w`` workload: off vs.
    disabled (null sampler attached, interval 0) vs. enabled (1 ms
    cadence, frames piggybacking on step_ok/heartbeat replies).

    Three interleaved legs per round so machine noise hits all legs
    alike; ratios are the MAX over rounds of ``off_wall / leg_wall``
    (the same pairing method as ``sdp_trace_overhead``), so a leg only
    looks slow if it is slow in *every* round. The CI gate pins
    ``disabled_ratio >= 0.98`` (the <2% observability budget on the
    never-pay path) and ``enabled_ratio >= 0.95``; ``bit_exact``
    asserts every leg of every round produced the same rss fingerprint
    — telemetry must never perturb the simulation.
    """
    import itertools
    import os
    import tempfile

    from repro.cluster.config import ClusterConfig
    from repro.dist.replay import PoissonSource, write_trace
    from repro.obs.live import TelemetryBus

    duration = 0.4 if quick else 1.2
    rounds = 4
    config = ClusterConfig(
        num_servers=8,
        notification="hyperplane",
        balancer="rss",
        queues_per_server=16,
        num_flows=32,
        flow_skew=0.3,
        seed=21,
    )
    source = PoissonSource(
        rate=5000.0,
        num_flows=config.num_flows,
        flow_skew=config.flow_skew,
        seed=33,
    )
    fd, path = tempfile.mkstemp(suffix=".trace", prefix="repro-gates-telem-")
    os.close(fd)
    fingerprints = set()
    telemetry_frames = 0
    walls = {"off": [], "disabled": [], "enabled": []}

    def leg(name):
        bus = None if name == "off" else TelemetryBus()
        interval = 1e-3 if name == "enabled" else 0.0
        wall, run = _dist_leg(
            config, path, duration, 8,
            telemetry=bus, telemetry_interval_s=interval,
        )
        fingerprints.add(run.metrics.fingerprint())
        return wall, bus

    try:
        write_trace(
            path, itertools.takewhile(lambda r: r.time < duration, iter(source))
        )
        for name in walls:  # warmup pass, unpriced
            leg(name)
        for _ in range(rounds):
            for name in walls:
                wall, bus = leg(name)
                walls[name].append(wall)
                if name == "enabled":
                    telemetry_frames = max(telemetry_frames, bus.frames_seen)
    finally:
        os.unlink(path)

    def ratio(name):
        return max(
            off / leg_wall if leg_wall > 0 else 0.0
            for off, leg_wall in zip(walls["off"], walls[name])
        )

    off_wall = min(walls["off"])
    enabled_wall = min(walls["enabled"])
    windows = int(duration / 50e-6)  # nominal; rate basis only
    return {
        "wall_seconds": enabled_wall,
        "events": windows,
        "events_per_sec": windows / enabled_wall if enabled_wall > 0 else 0.0,
        "off_wall_seconds": off_wall,
        "disabled_wall_seconds": min(walls["disabled"]),
        "disabled_ratio": ratio("disabled"),
        "enabled_ratio": ratio("enabled"),
        "telemetry_frames": telemetry_frames,
        "bit_exact": len(fingerprints) == 1,
    }


def _cluster_pair(
    config_kwargs: Dict, load: float, duration: float, warmup: float
) -> Dict[str, float]:
    """Run the same rack twice — frozen reference stack, then the fast
    path — and rate the fast leg, asserting bit-identical results.

    An untimed throwaway build first warms the process-global poll-cost
    curve memo (it pre-dates the fast path and serves both stacks), so
    neither timed leg pays the one-off structural derivation; the
    fast-path-only caches (interned weight tables, shared curves) are
    cleared before *each* leg so both start cold.
    """
    from repro.cluster import tables
    from repro.cluster.config import ClusterConfig
    from repro.cluster.rack import Rack
    from repro.sdp import locality
    from tests.oracles.rack import ReferenceRack

    Rack(ClusterConfig(**config_kwargs))

    def _cold() -> None:
        tables.clear_tables()
        locality.clear_shared_curves()

    def _run(rack_cls):
        t0 = time.perf_counter()
        rack = rack_cls(ClusterConfig(**config_kwargs))
        rack.attach_open_loop(load=load)
        rack.run(duration=duration, warmup=warmup)
        return rack, time.perf_counter() - t0

    def _state(rack):
        # Everything the bit-identicality contract covers: client
        # metrics (exact sample list included), per-server stats, and
        # the RNG stream positions proving draw-for-draw equivalence.
        return (
            rack.metrics.fingerprint(),
            tuple(rack.metrics.latency._samples),
            rack.metrics.rejected,
            rack.generated,
            tuple((s.dispatched, s.completed_ok, s.lost) for s in rack.servers),
            rack.streams.stream("cluster.arrivals").getstate(),
            rack.streams.stream("cluster.flows").getstate(),
            tuple(
                s.system.streams.stream("service").getstate()
                for s in rack.servers
            ),
        )

    _cold()
    ref, ref_wall = _run(ReferenceRack)
    _cold()
    fast, wall = _run(Rack)
    events = fast.sim.events_dispatched
    return {
        "wall_seconds": wall,
        "events": events,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "completions": fast.metrics.count,
        "reference_wall_seconds": ref_wall,
        "speedup_vs_reference": ref_wall / wall if wall > 0 else 0.0,
        "bit_exact": _state(fast) == _state(ref),
    }


def cluster_spin16(quick: bool) -> Dict[str, float]:
    """Rack fast path vs. the frozen pre-fast-path oracle: 16 spinning
    servers behind an rss balancer — the fully sweepable hot path
    (batched traffic windows + delivery pull + quiescence skips)."""
    duration, warmup = (0.008, 0.002) if quick else (0.02, 0.005)
    return _cluster_pair(
        dict(
            num_servers=16,
            notification="spinning",
            balancer="rss",
            queues_per_server=32,
            num_flows=128,
            flow_skew=0.3,
            seed=42,
        ),
        load=0.6,
        duration=duration,
        warmup=warmup,
    )


def cluster_grid_row(quick: bool) -> Dict[str, float]:
    """One dist-grid-shaped rack row: p2c balancing under a straggler
    profile. p2c draws the balancer stream per request, so traffic
    cannot batch — the win here is the core-turn/completion fast path
    alone (the floor every dist worker inherits)."""
    duration, warmup = (0.008, 0.002) if quick else (0.02, 0.005)
    return _cluster_pair(
        dict(
            num_servers=8,
            notification="spinning",
            balancer="p2c",
            queues_per_server=32,
            num_flows=64,
            flow_skew=0.3,
            fault_profile="straggler",
            seed=7,
        ),
        load=0.5,
        duration=duration,
        warmup=warmup,
    )


# -- the gate table ----------------------------------------------------------

QUICK = "BENCH_quick_baseline.json"
VEC = "BENCH_vec.json"
DIST = "BENCH_dist.json"


@dataclass(frozen=True)
class Gate:
    """One scenario and every floor ``--check`` holds it to.

    ``rate`` is the share of the committed ``baseline`` report's
    events/sec this run must reach. ``committed`` floors apply to the
    baseline's own fields (the claim the committed file records),
    ``measured`` floors to this run's. ``nonzero`` counts must be above
    zero in this run. ``bit_exact`` must be True in this run and, when
    there is a baseline, in it too. ``default=False`` scenarios run only
    when named with ``--scenario``, in a process of their own as their
    baselines were recorded: the fleet scenarios spawn worker processes
    for tens of seconds, and a cost-curve memo warmed by earlier
    scenarios would speed ``vec_fig8_grid``'s event leg.
    """

    fn: Callable[[bool], Dict[str, float]]
    description: str
    baseline: Optional[str] = None
    rate: float = 0.0
    committed: Dict[str, float] = field(default_factory=dict)
    measured: Dict[str, float] = field(default_factory=dict)
    nonzero: Tuple[str, ...] = ()
    bit_exact: bool = False
    default: bool = True


GATES: Dict[str, Gate] = {
    "sdp_trace_overhead": Gate(
        sdp_trace_overhead, "Fig. 10 point untraced vs sampled-out vs fully traced",
        QUICK, 0.75, measured={"disabled_ratio": 0.97}, nonzero=("traced_spans",)),
    "structural_spin16": Gate(
        structural_spin16, "execution-driven spinning core (per-poll memory accesses)",
        QUICK, 0.75),
    "structural_hp16": Gate(
        structural_hp16, "execution-driven HyperPlane core (directory snoops, QWAIT halts)",
        QUICK, 0.75),
    "structural_spin2c_fs": Gate(
        structural_spin2c_fs, "2 spinning consumers + doorbell false sharing (general paths)",
        QUICK, 0.75),
    "vec_fig8_grid": Gate(
        vec_fig8_grid, "vec batch engine vs event path, points/sec on the Fig. 8 grid",
        VEC, 0.5, committed={"speedup_vs_event": 50}, measured={"speedup_vs_event": 10},
        default=False),
    "dist_replay_8w": Gate(
        dist_replay_8w, "8-worker trace replay: lookahead vs lockstep",
        DIST, 0.5, committed={"speedup_vs_lockstep": 3}, measured={"speedup_vs_lockstep": 1.5},
        bit_exact=True, default=False),
    "dist_grid_row": Gate(
        dist_grid_row, "load-aware (p2c) dist grid point: bounded lookahead vs lockstep",
        DIST, 0.5, default=False),
    "telemetry_overhead": Gate(
        telemetry_overhead, "live telemetry off vs disabled vs 1 ms cadence on the 8w replay",
        measured={"disabled_ratio": 0.98, "enabled_ratio": 0.95},
        nonzero=("telemetry_frames",), bit_exact=True, default=False),
    "cluster_spin16": Gate(
        cluster_spin16, "16-server spinning rack: fast path vs. frozen reference, bit-exact",
        QUICK, 0.75, committed={"speedup_vs_reference": 2.0},
        measured={"speedup_vs_reference": 1.5}, bit_exact=True),
    "cluster_grid_row": Gate(
        cluster_grid_row, "8-server p2c rack row (straggler): fast path vs. reference",
        QUICK, 0.75, committed={"speedup_vs_reference": 1.3},
        measured={"speedup_vs_reference": 1.1}, bit_exact=True),
}


# -- harness -----------------------------------------------------------------


def run_bench(
    quick: bool = False, scenario_ids: Optional[List[str]] = None, repeat: int = 1
) -> Dict:
    """Run the scenarios and return a report in the committed files' schema.

    With ``repeat > 1`` each scenario runs that many times and the run
    with the fastest wall time is kept, which suppresses scheduler noise.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    targets = scenario_ids or [sid for sid, gate in GATES.items() if gate.default]
    unknown = [sid for sid in targets if sid not in GATES]
    if unknown:
        raise ValueError(f"unknown scenarios {unknown}; known: {sorted(GATES)}")
    report = {
        "schema": BENCH_SCHEMA_VERSION,
        "mode": "quick" if quick else "full",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "scenarios": {},
    }
    for sid in targets:
        runs = [GATES[sid].fn(quick) for _ in range(repeat)]
        best = min(runs, key=lambda measured: measured["wall_seconds"])
        best["description"] = GATES[sid].description
        report["scenarios"][sid] = best
    return report


def load_baselines() -> Dict[str, Dict]:
    """The committed reports the table names, keyed by file name."""
    names = {gate.baseline for gate in GATES.values() if gate.baseline}
    return {name: json.loads((PERF_DIR / name).read_text()) for name in names}


def check(report: Dict, baselines: Optional[Dict[str, Dict]] = None) -> List[str]:
    """Apply every floor in :data:`GATES` to the scenarios ``report`` ran.

    ``baselines`` maps each committed file name to its report (default:
    the files next to this module). Returns one line per failed floor,
    naming the scenario and the field; empty means every gate holds.
    A report of another mode than its baseline is refused: quick mode
    amortises fixed build cost over less simulated work, so its rates
    are structurally lower than full-mode rates, not slower code.
    """
    baselines = load_baselines() if baselines is None else baselines
    failures = []
    for sid, measured in report["scenarios"].items():
        gate = GATES[sid]
        if measured.get("skipped"):
            failures.append(f"{sid}: skipped ({measured['skipped']})")
            continue
        sides = []
        if gate.baseline:
            baseline = baselines[gate.baseline]
            if baseline["mode"] != report["mode"]:
                raise ValueError(
                    f"cannot check a {report['mode']!r}-mode report against the "
                    f"{baseline['mode']!r}-mode {gate.baseline}; re-run with matching modes"
                )
            committed = baseline["scenarios"].get(sid, {})
            sides.append(("committed", committed, gate.committed))
            floor = gate.rate * committed.get("events_per_sec", float("inf"))
            if not measured["events_per_sec"] >= floor:
                failures.append(
                    f"{sid}: measured events_per_sec {measured['events_per_sec']:,.0f} "
                    f"< {floor:,.0f} ({gate.rate:.0%} of {gate.baseline})"
                )
        sides.append(("measured", measured, gate.measured))
        for side, values, floors in sides:
            for name, minimum in floors.items():
                if not values.get(name, float("-inf")) >= minimum:
                    failures.append(f"{sid}: {side} {name} {values.get(name)} < {minimum}")
            if gate.bit_exact and values.get("bit_exact") is not True:
                failures.append(f"{sid}: {side} bit_exact is {values.get('bit_exact')}")
        for name in gate.nonzero:
            if not measured.get(name, 0) > 0:
                failures.append(f"{sid}: measured {name} {measured.get(name)} is not > 0")
    return failures


def format_report(report: Dict) -> str:
    """A terminal table of one report, with each scenario's gated fields."""
    lines = [
        f"perf gates ({report['mode']} mode, python {report['python']})",
        f"{'scenario':24s} {'wall s':>9s} {'events':>12s} {'events/s':>14s}  gated fields",
    ]
    for sid, measured in report["scenarios"].items():
        gate = GATES[sid]
        names = [*gate.measured, *gate.nonzero, *(["bit_exact"] if gate.bit_exact else [])]
        lines.append(
            f"{sid:24s} {measured['wall_seconds']:9.3f} "
            f"{measured['events']:12,.0f} {measured['events_per_sec']:14,.0f}  "
            + " ".join(f"{name}={_shown(measured.get(name))}" for name in names)
        )
    return "\n".join(lines)


def _shown(value) -> str:
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf.gates",
        description="Run the perf gate scenarios; --check applies every floor in the table.",
    )
    parser.add_argument("--quick", action="store_true", help="CI-sized scenarios")
    parser.add_argument(
        "--scenario", action="append", metavar="ID",
        help=f"run only these scenarios (known: {', '.join(GATES)})",
    )
    parser.add_argument(
        "--repeat", type=int, default=1, help="repetitions per scenario; keep fastest"
    )
    parser.add_argument("--out", metavar="FILE", help="write the report JSON here")
    parser.add_argument("--check", action="store_true", help="exit 1 when any floor fails")
    args = parser.parse_args(argv)
    try:
        report = run_bench(quick=args.quick, scenario_ids=args.scenario, repeat=args.repeat)
    except ValueError as error:
        parser.error(str(error))
    print(format_report(report))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.out}")
    if args.check:
        try:
            failures = check(report)
        except ValueError as error:  # a full-mode run against quick baselines
            parser.error(str(error))
        for line in failures:
            print(f"perf gate failed: {line}", file=sys.stderr)
        if failures:
            return 1
        print(f"\nevery gate holds: {', '.join(report['scenarios'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
