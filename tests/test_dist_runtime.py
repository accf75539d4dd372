"""The multi-process rack runtime vs the shared-timeline rack.

The headline contract (documented in docs/distributed.md): under rss
placement the dist runtime is *bit-exact* with :func:`repro.cluster.rack
.run_cluster` — same completions, same mean, same P² tail estimates —
because placement ignores load, service times are drawn from the same
per-server streams in the same order, and completions are merged in a
deterministic global order before recording. Worker crashes (process
faults, distinct from the *modelled* server crash-fault profile) fail
over: backlogs re-dispatch to survivors and the run is flagged partial.
"""

import sys

import pytest

from repro.cluster import ClusterConfig, run_cluster
from repro.dist import DistOptions, WorkerSpawnError, run_cluster_dist

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


def run_both(config, **dist_kwargs):
    rack = run_cluster(config, load=LOAD, duration=DURATION, warmup=WARMUP)
    dist = run_cluster_dist(
        config,
        load=LOAD,
        duration=DURATION,
        warmup=WARMUP,
        options=DistOptions(**dist_kwargs),
    )
    return rack, dist


def test_rss_run_is_bit_exact_with_the_rack():
    rack, dist = run_both(small_config(), workers=2)
    assert dist.metrics.fingerprint() == rack.metrics.fingerprint()
    assert dist.partial is False
    assert dist.worker_faults == []
    assert dist.info["workers"] == 2
    assert sorted(
        server for servers in dist.info["assignments"].values()
        for server in servers
    ) == [0, 1, 2, 3]


def test_fingerprint_is_worker_count_independent():
    config = small_config(seed=5)
    fingerprints = set()
    for workers in (1, 3, 4):
        dist = run_cluster_dist(
            config,
            load=LOAD,
            duration=DURATION,
            warmup=WARMUP,
            options=DistOptions(workers=workers),
        )
        fingerprints.add(dist.metrics.fingerprint())
    assert len(fingerprints) == 1


def test_modelled_crash_profile_matches_rack_redispatch():
    config = small_config(fault_profile="crash")
    rack, dist = run_both(config, workers=2)
    assert dist.metrics.fingerprint() == rack.metrics.fingerprint()
    assert dist.metrics.redispatched == rack.metrics.redispatched
    # A modelled server crash is not a worker fault: the fleet is whole.
    assert dist.partial is False


# Load-oblivious placement through every fault profile: the workers
# build the rack's own servers and run the rack's fault controller, so
# each case is bit-exact, link-degrade included.
FAULT_MATRIX = [
    ("hyperplane", balancer, fault)
    for balancer in ("rss", "round-robin")
    for fault in ("crash", "straggler", "link-degrade")
] + [("spinning", "rss", "link-degrade")]


@pytest.mark.parametrize("notification,balancer,fault", FAULT_MATRIX)
def test_fault_profiles_are_bit_exact_with_the_rack(notification, balancer, fault):
    config = small_config(
        notification=notification, balancer=balancer, fault_profile=fault
    )
    rack, dist = run_both(config, workers=2)
    assert dist.metrics.fingerprint() == rack.metrics.fingerprint()
    assert dist.metrics.dispatched == rack.metrics.dispatched
    assert dist.metrics.rejected == rack.metrics.rejected
    assert dist.partial is False


def test_tcp_transport_matches_unix():
    config = small_config(seed=3)
    unix = run_cluster_dist(
        config, load=LOAD, duration=DURATION, warmup=WARMUP,
        options=DistOptions(workers=2, transport="unix"),
    )
    tcp = run_cluster_dist(
        config, load=LOAD, duration=DURATION, warmup=WARMUP,
        options=DistOptions(workers=2, transport="tcp"),
    )
    assert tcp.metrics.fingerprint() == unix.metrics.fingerprint()
    assert tcp.info["transport"] == "tcp"


def test_worker_crash_fails_over_and_flags_partial():
    config = small_config(seed=7)
    dist = run_cluster_dist(
        config,
        load=LOAD,
        duration=DURATION,
        warmup=WARMUP,
        options=DistOptions(
            workers=2, crash_worker=1, crash_worker_at=WARMUP + 0.002
        ),
    )
    assert dist.partial is True
    (fault,) = dist.worker_faults
    assert fault["worker_id"] == 1
    assert fault["kind"] == "worker-crash"
    assert sorted(fault["servers"]) == [1, 3]
    # The run completed on the survivors: traffic kept flowing and the
    # orphaned backlog was re-dispatched rather than silently dropped.
    assert dist.metrics.count > 0
    assert dist.metrics.redispatched > 0
    # Only the surviving worker reports a node manifest.
    assert [node["worker_id"] for node in dist.nodes] == [0]
    healthy = run_cluster_dist(
        config, load=LOAD, duration=DURATION, warmup=WARMUP,
        options=DistOptions(workers=2),
    )
    # Failover re-routes the dead worker's share onto the survivors: the
    # healthy run spreads completions over all four servers, the faulted
    # one concentrates them on worker 0's servers (0 and 2) after the
    # crash point.
    assert healthy.metrics.fingerprint() != dist.metrics.fingerprint()
    crashed_share = sum(dist.metrics.per_server_completed[s] for s in (1, 3))
    healthy_share = sum(healthy.metrics.per_server_completed[s] for s in (1, 3))
    assert crashed_share < healthy_share


def test_fresh_arrivals_with_every_server_down_are_lost():
    # A modelled crash takes one server down for 30-70% of the run; the
    # other server's worker dies at 8 ms, so for a while no server is
    # live. Fresh arrivals then count as lost, as failed re-dispatches
    # do, and the run finishes partial instead of raising.
    from repro.cluster.config import STREAM_FAULTS
    from repro.cluster.faults import fault_schedule
    from repro.sim.rng import RandomStreams

    config = small_config(num_servers=2, fault_profile="crash", seed=0)
    (crash,) = fault_schedule(
        "crash", 2, WARMUP + DURATION, RandomStreams(0).stream(STREAM_FAULTS)
    )
    assert crash.time < 0.008 < crash.end_time
    dist = run_cluster_dist(
        config, load=LOAD, duration=DURATION, warmup=WARMUP,
        options=DistOptions(
            workers=2, crash_worker=1 - crash.server, crash_worker_at=0.008
        ),
    )
    assert dist.partial
    assert [fault["worker_id"] for fault in dist.worker_faults] == [1 - crash.server]
    assert dist.metrics.lost > 0
    assert dist.metrics.count > 0


def test_metrics_registry_merges_across_nodes():
    from repro.obs import MetricsRegistry
    from repro.obs.runtime import active_registry

    config = small_config(seed=2)
    with active_registry(MetricsRegistry(enabled=True)) as registry:
        dist = run_cluster_dist(
            config, load=LOAD, duration=DURATION, warmup=WARMUP,
            options=DistOptions(workers=2),
        )
    assert "sim.events_total" in registry
    assert registry.counter("sim.events_total").value > 0
    assert any(name.startswith("sdp.") for name in registry.names())
    assert len(dist.nodes) == 2
    for node in dist.nodes:
        assert node["invariants"] == "ok"


def test_spawn_failure_raises_worker_spawn_error(monkeypatch):
    monkeypatch.setattr(sys, "executable", "/bin/false")
    with pytest.raises(WorkerSpawnError, match="never connected"):
        run_cluster_dist(
            small_config(),
            load=LOAD,
            duration=DURATION,
            warmup=WARMUP,
            options=DistOptions(workers=2, spawn_timeout_s=1.5),
        )


def test_options_validate():
    with pytest.raises(ValueError):
        DistOptions(workers=0)
    with pytest.raises(ValueError):
        DistOptions(transport="carrier-pigeon")
    with pytest.raises(ValueError):
        DistOptions(speed_factor=-1.0)
    with pytest.raises(ValueError):
        DistOptions(crash_worker=1)  # needs crash_worker_at too
