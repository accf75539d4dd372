"""Instrumentation probes: sdp, mem, cluster, sim — wired end to end."""

import pytest

from repro.cluster import ClusterConfig, run_cluster
from repro.mem.costmodel import empty_poll_cost_curve
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import active_registry
from repro.sdp.config import SDPConfig
from repro.sdp.runner import run_interrupts, run_spinning


def small_config(seed: int = 3) -> SDPConfig:
    return SDPConfig(num_queues=8, num_cores=2, seed=seed)


def instrumented_run(seed: int = 3) -> MetricsRegistry:
    registry = MetricsRegistry(enabled=True)
    with active_registry(registry):
        run_spinning(
            small_config(seed), load=0.5, target_completions=500, max_seconds=0.05
        )
    return registry


# -- sdp + sim probes --------------------------------------------------------


def test_sdp_probes_carry_samples():
    data = instrumented_run().as_dict()
    assert data["sdp.queue_depth"]["samples"], "queue-depth timeline must be sampled"
    assert data["sdp.enqueues"]["value"] > 0
    assert data["sdp.dequeues"]["value"] > 0
    assert data["sdp.completions"]["value"] > 0
    assert data["sim.events_total"]["value"] > 0


def test_wake_latency_histogram_populates():
    data = instrumented_run().as_dict()
    record = data["sdp.notification_wake_latency_seconds"]
    assert record["count"] > 0
    assert record["sum"] >= 0.0


def test_per_core_occupancy_gauges():
    data = instrumented_run().as_dict()
    for core in range(2):
        occupancy = data[f"sdp.core{core}.occupancy"]["value"]
        assert 0.0 <= occupancy <= 1.0
    assert sum(data[f"sdp.core{c}.tasks"]["value"] for c in range(2)) > 0


def test_sim_engine_gauges():
    data = instrumented_run().as_dict()
    assert data["sim.events_dispatched"]["value"] > 0
    assert data["sim.now_seconds"]["value"] > 0.0
    # The spinning cores and the open-loop producer are callbacks; the
    # interrupt cores are still generator processes.
    registry = MetricsRegistry(enabled=True)
    with active_registry(registry):
        run_interrupts(
            small_config(), load=0.5, target_completions=200, max_seconds=0.05
        )
    assert registry.as_dict()["sim.process_wakes"]["value"] > 0


def test_queue_depth_timeline_is_time_ordered():
    samples = instrumented_run().as_dict()["sdp.queue_depth"]["samples"]
    times = [t for t, _ in samples]
    assert times == sorted(times)
    assert all(depth >= 0 for _, depth in samples)


def _assert_unit_steps(record):
    # At stride 1 every doorbell write and dequeue is sampled, so one
    # running total moves by exactly one item between samples.
    assert record["stride"] == 1
    samples = record["samples"]
    steps = [b - a for (_, a), (_, b) in zip(samples, samples[1:])]
    assert steps and all(abs(step) == 1 for step in steps)


def test_queue_depth_steps_by_one_on_a_system():
    _assert_unit_steps(instrumented_run().as_dict()["sdp.queue_depth"])


def test_queue_depth_is_one_total_across_a_rack():
    # The servers share one timeline, so they add into one total rather
    # than each sampling its own depth into the shared series.
    registry = MetricsRegistry(enabled=True)
    with active_registry(registry):
        rack = run_cluster(
            ClusterConfig(num_servers=2, notification="spinning", seed=1),
            load=0.6,
            duration=0.0004,
            warmup=0.0,
        )
    record = registry.as_dict()["sdp.queue_depth"]
    _assert_unit_steps(record)
    queued = sum(len(q) for s in rack.servers for q in s.system.queues)
    assert record["samples"][-1][1] == queued


# -- mem probes --------------------------------------------------------------


def test_mem_probes_populate_from_cost_derivation():
    registry = MetricsRegistry(enabled=True)
    with active_registry(registry):
        empty_poll_cost_curve([4, 64])
    data = registry.as_dict()
    assert data["mem.l1.hits"]["value"] > 0
    assert 0.0 < data["mem.l1.hit_rate"]["value"] <= 1.0
    assert data["mem.coherence.get_s"]["value"] > 0


# -- cluster probes ----------------------------------------------------------


def test_cluster_fleet_probes():
    registry = MetricsRegistry(enabled=True)
    with active_registry(registry):
        run_cluster(
            ClusterConfig(
                num_servers=2,
                cores_per_server=2,
                queues_per_server=8,
                num_flows=32,
                seed=3,
            ),
            load=0.5,
            duration=0.002,
            warmup=0.0005,
        )
    data = registry.as_dict()
    assert data["cluster.fleet.p99_latency_us"]["value"] > 0
    assert data["cluster.fleet.completed"]["value"] > 0
    assert data["cluster.fleet.throughput_mtps"]["value"] > 0
    for server in range(2):
        assert data[f"cluster.server{server}.up"]["value"] == 1.0
        assert data[f"cluster.server{server}.completed"]["value"] >= 0


# -- invariants --------------------------------------------------------------


def test_metrics_are_deterministic_for_a_seed():
    first = instrumented_run(seed=11).collect()
    second = instrumented_run(seed=11).collect()
    assert first == second


def test_different_seeds_differ():
    assert instrumented_run(seed=1).collect() != instrumented_run(seed=2).collect()


def test_instrumentation_does_not_perturb_results():
    # The observability layer must be read-only: metrics from an
    # instrumented run match an uninstrumented run sample for sample.
    plain = run_spinning(
        small_config(), load=0.5, target_completions=500, max_seconds=0.05
    )
    registry = MetricsRegistry(enabled=True)
    with active_registry(registry):
        instrumented = run_spinning(
            small_config(), load=0.5, target_completions=500, max_seconds=0.05
        )
    assert instrumented.completed == plain.completed
    assert instrumented.latency.p99_us == pytest.approx(plain.latency.p99_us)
    assert instrumented.measure_end == pytest.approx(plain.measure_end)


def test_disabled_registry_installs_no_hooks():
    from repro.sdp.system import DataPlaneSystem

    with active_registry(MetricsRegistry(enabled=False)):
        system = DataPlaneSystem(small_config())
    assert system._obs is None
    # Only the ready-mask upkeep hook, no probe hooks.
    assert system.doorbell_write_hooks == []
    assert system.completion_hooks == []
