"""The four benchmark workloads, and the exact-output digests that check them.

Each workload is a closed loop with one caller: the next simulation
starts when the previous one returns. A workload object is built once
per repetition, in a fresh process, so it starts cold: no cost-curve
memo, interned curve or steering table survives from an earlier run.

``setup()`` does the work that does not scale with simulated work (the
cold cost-curve derivations for every distinct geometry the runs will
use); ``run()`` does the simulations. Every simulation appends one
record to ``records``:

``key``        stable name of the run (grid point or episode);
``requests``   post-warm-up completions the run recorded;
``digest``     hash of the run's exact results (see :func:`digest`);
``error``      ``None``, or why the run failed (exception, invariant,
               fault that did not fire);
plus per-layer counts the traced run aggregates.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from itertools import takewhile
from typing import Any, Dict, List, Optional

from repro.cluster import ClusterConfig, run_cluster
from repro.sdp.system import DataPlaneSystem

# sweep: the fast grids of these figures, serially, via run_experiment.
SWEEP_EXPERIMENTS = ("fig8", "fig9a", "fig9b", "fig10a")

# rack / observed: cluster_scaleout's 16-server operating point, with a
# fixed 2 + 8 ms simulated run so the fault windows (30-70% of the run)
# always fall inside it (a completion target could end the run first).
RACK_SERVERS = 16
RACK_QUEUES = 512
RACK_FLOWS = 256
FLOW_SKEW = 0.3
RACK_LOAD = 0.25
RACK_WARMUP_S = 0.002
RACK_DURATION_S = 0.008
RACK_EPISODES = {
    # name: (notification, balancer, fault profile)
    "spin-rss": ("spinning", "rss", "none"),
    "spin-p2c": ("spinning", "p2c", "none"),
    "hp-rss": ("hyperplane", "rss", "none"),
    "hp-p2c": ("hyperplane", "p2c", "none"),
    "spin-rss-crash": ("spinning", "rss", "crash"),
    "hp-p2c-straggler": ("hyperplane", "p2c", "straggler"),
}
OBSERVED_EPISODES = ("spin-rss-crash", "hp-p2c-straggler")
OBSERVED_SAMPLE_RATE = 0.1

# replay: a synthesised trace through a 4-server HyperPlane fleet served
# by one worker process (coordinator + worker fit in two cores).
REPLAY_SERVERS = 4
REPLAY_QUEUES = 16
REPLAY_FLOWS = 64
REPLAY_RATE = 5000.0
REPLAY_WARMUP_S = 0.2
REPLAY_DURATION_S = 1.0
REPLAY_BALANCERS = ("rss", "p2c")
REPLAY_WORKERS = 1
REPLAY_TRANSPORT = "unix"


def digest(value: Any) -> str:
    """Hash of an exact value: ``repr`` round-trips every float."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def run_metrics_fingerprint(metrics) -> tuple:
    """Exact results of one single-server run (:class:`RunMetrics`)."""
    latency = metrics.latency
    return (
        metrics.label,
        metrics.completed,
        metrics.generated,
        metrics.dropped,
        metrics.spurious_wakeups,
        metrics.measure_start,
        metrics.measure_end,
        latency.count,
        latency.mean,
        latency.percentile(50.0) if latency.count else 0.0,
        latency.p99,
        tuple(
            (
                a.busy_cycles,
                a.halted_cycles,
                a.c1_cycles,
                a.useful_instructions,
                a.useless_instructions,
                a.wakeups,
                a.tasks,
            )
            for a in metrics.activities
        ),
    )


def cluster_fingerprint(metrics) -> tuple:
    """Exact client-visible results of one rack episode.

    The same function serves the in-process rack, the instrumented rack
    and the distributed fleet, so their digests compare directly.
    """
    return metrics.fingerprint() + (
        metrics.dispatched,
        metrics.rejected,
        metrics.measure_end,
    )


def rack_config(episode: str, seed: int) -> ClusterConfig:
    notification, balancer, fault = RACK_EPISODES[episode]
    return ClusterConfig(
        num_servers=RACK_SERVERS,
        notification=notification,
        balancer=balancer,
        fault_profile=fault,
        queues_per_server=RACK_QUEUES,
        num_flows=RACK_FLOWS,
        flow_skew=FLOW_SKEW,
        seed=seed,
    )


def replay_config(balancer: str, seed: int) -> ClusterConfig:
    return ClusterConfig(
        num_servers=REPLAY_SERVERS,
        notification="hyperplane",
        balancer=balancer,
        queues_per_server=REPLAY_QUEUES,
        num_flows=REPLAY_FLOWS,
        flow_skew=FLOW_SKEW,
        seed=seed,
    )


def write_replay_trace(path: str, seed: int) -> int:
    """Synthesise the replay input: the rack's own Poisson client
    population for ``seed``, cut at the end of the simulated run."""
    from repro.dist import PoissonSource, write_trace

    total = REPLAY_WARMUP_S + REPLAY_DURATION_S
    source = PoissonSource(REPLAY_RATE, REPLAY_FLOWS, FLOW_SKEW, seed)
    return write_trace(path, takewhile(lambda r: r.time < total, source))


def rack_reference(episode: str, seed: int) -> str:
    """Digest of one plain in-process rack episode."""
    rack = run_cluster(
        rack_config(episode, seed),
        load=RACK_LOAD,
        duration=RACK_DURATION_S,
        warmup=RACK_WARMUP_S,
    )
    return digest(cluster_fingerprint(rack.metrics))


def replay_reference(seed: int) -> str:
    """Digest of the in-process rack on the replay's rss inputs."""
    rack = run_cluster(
        replay_config("rss", seed),
        rate=REPLAY_RATE,
        duration=REPLAY_DURATION_S,
        warmup=REPLAY_WARMUP_S,
    )
    return digest(cluster_fingerprint(rack.metrics))


def pre_derive_curves(queue_counts) -> None:
    """Derive every poll-cost curve systems of these sizes will ask for.

    A system derives two curves per geometry on first use (the active
    one, keyed by its LLC-resident fraction, and the idle one); asking
    the same :class:`LocalityModel` questions here moves exactly those
    derivations into set-up. ``Workload.run`` checks that no further
    derivation happens.
    """
    from repro.mem.costmodel import CostModel
    from repro.sdp.locality import LocalityModel

    locality = LocalityModel(CostModel())
    for count in sorted(set(queue_counts)):
        locality.empty_poll_cost(1, count)
        locality.empty_poll_cost(1, count, idle=True)


class Workload:
    """One repetition of one workload (see the module notes)."""

    def __init__(self, seed: int, trace_path: Optional[str] = None):
        self.seed = seed
        self.trace_path = trace_path
        self.records: List[Dict[str, Any]] = []
        # Set-up that happens inside the work phase (replay: worker
        # spawn, handshake and configure), in host seconds.
        self.in_work_setup_s = 0.0

    def setup(self) -> None:
        """Cold work that does not scale with simulated work."""

    def simulate(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        from repro.mem.costmodel import curve_cache_info

        misses = curve_cache_info()["misses"]
        self.simulate()
        extra = curve_cache_info()["misses"] - misses
        if extra:
            self.records.append(
                new_record(
                    "setup-split",
                    error=f"{extra} cost curves derived after set-up",
                )
            )

    def current_run(self) -> int:
        """Index of the run in progress (spans carry it as run id)."""
        return len(self.records) - 1


def new_record(key: str, label: str = "", error: Optional[str] = None) -> Dict[str, Any]:
    return {
        "key": key,
        "label": label or key,
        "requests": 0,
        "events": 0,
        "generated": 0,
        "dropped": 0,
        "digest": None,
        "error": error,
        "counts": {},
    }


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Sweep(Workload):
    """fig8, fig9a, fig9b and fig10a fast grids, as repro-experiments
    runs them with ``REPRO_PROCESSES=1``: 82 single-server runs."""

    def setup(self) -> None:
        from repro.experiments import fig8_peak_throughput as fig8
        from repro.experiments import fig9_zero_load as fig9
        from repro.experiments import fig10_multicore as fig10

        pre_derive_curves(fig8.FAST_COUNTS + fig9.FAST_COUNTS + (fig10.NUM_QUEUES,))

    def simulate(self) -> None:
        from repro.experiments.registry import run_experiment

        # Each DataPlaneSystem the experiments build is one run: open
        # its record at build time and keep its metrics at run() return.
        records = self.records
        experiment = [""]
        built: Dict[str, int] = {}
        systems: Dict[int, Dict[str, Any]] = {}
        original_init = DataPlaneSystem.__init__
        original_run = DataPlaneSystem.run

        def init(system, *args, **kwargs):
            index = built.get(experiment[0], 0)
            built[experiment[0]] = index + 1
            record = new_record(f"{experiment[0]}#{index}")
            records.append(record)
            systems[id(system)] = record
            original_init(system, *args, **kwargs)

        def run(system, *args, **kwargs):
            metrics = original_run(system, *args, **kwargs)
            record = systems[id(system)]
            record["metrics"] = metrics
            record["events"] = system.sim.events_dispatched
            return metrics

        DataPlaneSystem.__init__ = init
        DataPlaneSystem.run = run
        try:
            for experiment_id in SWEEP_EXPERIMENTS:
                experiment[0] = experiment_id
                try:
                    run_experiment(experiment_id, fast=True, seed=self.seed)
                except Exception as exc:
                    # The runner that raised belongs to the experiment's
                    # last-built system; the grid points after it never run.
                    if not built.get(experiment_id):
                        records.append(new_record(f"{experiment_id}#0"))
                    records[-1]["error"] = _failure(exc)
        finally:
            DataPlaneSystem.__init__ = original_init
            DataPlaneSystem.run = original_run
        for record in records:
            metrics = record.pop("metrics", None)
            if metrics is None:
                record["error"] = record["error"] or "run never returned"
                continue
            record["label"] = metrics.label
            record["requests"] = metrics.latency.count
            record["generated"] = metrics.generated
            record["dropped"] = metrics.dropped
            record["digest"] = digest(run_metrics_fingerprint(metrics))


def fault_problem(rack) -> Optional[str]:
    """Why a fault episode's fault did not visibly happen, else None."""
    fault = rack.config.fault_profile
    if fault == "none":
        return None
    controller = rack.controller
    applied = [event for _t, event in controller.applied if event.kind == fault]
    reverted = [event for _t, event in controller.reverted if event.kind == fault]
    if not applied or not reverted:
        return f"{fault} window not inside the run"
    if fault == "crash" and rack.metrics.redispatched + rack.metrics.lost == 0:
        return "crash re-dispatched and lost nothing"
    return None


def fill_rack_record(record: Dict[str, Any], rack) -> None:
    metrics = rack.metrics
    record["requests"] = metrics.count
    record["events"] = rack.sim.events_dispatched
    record["generated"] = rack.generated
    record["dropped"] = metrics.rejected
    record["counts"].update(redispatched=metrics.redispatched, lost=metrics.lost)
    record["digest"] = digest(cluster_fingerprint(metrics))
    record["error"] = fault_problem(rack)


class Rack(Workload):
    """Six in-process 16-server episodes: both notification designs,
    rss (batched sweeps) and p2c (per-request steering), two faults."""

    episodes = tuple(RACK_EPISODES)
    layer = "cluster"

    def setup(self) -> None:
        pre_derive_curves([RACK_QUEUES])

    def episode(self, name: str):
        return run_cluster(
            rack_config(name, self.seed),
            load=RACK_LOAD,
            duration=RACK_DURATION_S,
            warmup=RACK_WARMUP_S,
        )

    def simulate(self) -> None:
        for name in self.episodes:
            record = new_record(name, label=f"{self.layer}:{name}")
            self.records.append(record)
            try:
                fill_rack_record(record, self.episode(name))
            except Exception as exc:
                record["error"] = _failure(exc)


class Observed(Rack):
    """The two fault episodes under an enabled metrics registry and a
    10%-sampling tracer, then serialised with the public exporters."""

    episodes = OBSERVED_EPISODES
    layer = "obs"

    def episode(self, name: str):
        import json

        from repro.obs import (
            MetricsRegistry,
            Tracer,
            active_registry,
            active_tracer,
            to_jsonl,
            to_prometheus,
        )
        from repro.obs.trace_export import spans_to_jsonl, to_chrome_trace

        registry = MetricsRegistry(enabled=True)
        tracer = Tracer(seed=self.seed, sample_rate=OBSERVED_SAMPLE_RATE)
        with active_registry(registry), active_tracer(tracer):
            rack = super().episode(name)
        tracer.finalize()
        exported = (
            len(to_jsonl(registry))
            + len(to_prometheus(registry))
            + len(spans_to_jsonl(tracer))
            + len(json.dumps(to_chrome_trace(tracer)))
        )
        self.records[-1]["counts"].update(
            spans=len(tracer.spans),
            spans_dropped=tracer.dropped_traces,
            series=len(registry),
            export_bytes=exported,
        )
        return rack


class Replay(Workload):
    """The synthesised trace through ``run_cluster_dist``, once under
    rss and once under p2c, one worker, live telemetry attached."""

    def simulate(self) -> None:
        from repro.dist import (
            DistOptions,
            TraceFileSource,
            WorkerPool,
            run_cluster_dist,
        )
        from repro.obs import TelemetryBus

        if self.trace_path is None:
            raise ValueError("the replay workload needs a trace file")
        # Spawn, handshake and configure are set-up: time each pool's
        # construction and its first broadcast (the configure exchange).
        original_init = WorkerPool.__init__
        original_broadcast = WorkerPool.broadcast
        configured = set()

        def init(pool, *args, **kwargs):
            start = time.perf_counter()
            try:
                original_init(pool, *args, **kwargs)
            finally:
                self.in_work_setup_s += time.perf_counter() - start

        def broadcast(pool, *args, **kwargs):
            if id(pool) in configured:
                return original_broadcast(pool, *args, **kwargs)
            configured.add(id(pool))
            start = time.perf_counter()
            try:
                return original_broadcast(pool, *args, **kwargs)
            finally:
                self.in_work_setup_s += time.perf_counter() - start

        WorkerPool.__init__ = init
        WorkerPool.broadcast = broadcast
        try:
            for balancer in REPLAY_BALANCERS:
                record = new_record(balancer, label=f"dist:{balancer}")
                self.records.append(record)
                bus = TelemetryBus()
                try:
                    run = run_cluster_dist(
                        replay_config(balancer, self.seed),
                        duration=REPLAY_DURATION_S,
                        warmup=REPLAY_WARMUP_S,
                        options=DistOptions(
                            workers=REPLAY_WORKERS, transport=REPLAY_TRANSPORT
                        ),
                        source=TraceFileSource(self.trace_path),
                        telemetry=bus,
                    )
                except Exception as exc:
                    record["error"] = _failure(exc)
                    continue
                metrics = run.metrics
                record["requests"] = metrics.count
                record["generated"] = metrics.dispatched
                record["dropped"] = metrics.rejected
                record["digest"] = digest(cluster_fingerprint(metrics))
                record["counts"].update(
                    exchanges=run.info["exchanges"],
                    windows=run.info["windows"],
                    telemetry_frames=bus.frames_seen,
                    redispatched=metrics.redispatched,
                    lost=metrics.lost,
                )
                if run.partial:
                    record["error"] = f"fleet ran partial: {run.worker_faults}"
        finally:
            WorkerPool.__init__ = original_init
            WorkerPool.broadcast = original_broadcast


WORKLOADS = {"sweep": Sweep, "rack": Rack, "replay": Replay, "observed": Observed}


def make(name: str, seed: int, trace_path: Optional[str] = None) -> Workload:
    return WORKLOADS[name](seed, trace_path)
