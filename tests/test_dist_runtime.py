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


def test_crash_fault_with_zero_failover_delay_is_refused_before_spawning(
    monkeypatch,
):
    # With no delay, a crash-born re-dispatch would fall due inside the
    # window that reported it, which the worker has already simulated.
    import repro.dist.coordinator as coordinator

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker was spawned")

    monkeypatch.setattr(coordinator, "WorkerPool", no_pool)
    config = small_config(fault_profile="crash", failover_delay_s=0.0)
    with pytest.raises(ValueError, match="run_cluster"):
        run_cluster_dist(
            config, load=LOAD, duration=DURATION, warmup=WARMUP,
            options=DistOptions(workers=2),
        )


# -- order at equal instants and on window bounds -----------------------------


@pytest.mark.parametrize("balancer", ["rss", "round-robin"])
def test_crash_at_an_arrival_instant_is_bit_exact_with_the_rack(
    monkeypatch, balancer
):
    # A crash lands exactly on an arrival instant, on the server that
    # arrival would have gone to. Both runtimes change membership first
    # and steer the arrival to a survivor.
    import random

    import repro.cluster.frontend as frontend
    from repro.cluster.balancer import LoadBalancer
    from repro.cluster.faults import FaultEvent
    from repro.dist import PoissonSource
    from repro.sim.rng import derive_seed

    config = small_config(balancer=balancer)
    load = 0.6
    source = PoissonSource(
        frontend.offered_rate(config, load=load),
        config.num_flows, config.flow_skew, config.seed,
    )
    index, record = next(
        (i, r) for i, r in enumerate(source) if r.time > WARMUP + 0.002
    )
    if balancer == "rss":
        target = LoadBalancer(
            "rss", config.num_servers, rng=random.Random(0),
            seed=derive_seed(config.seed, "cluster.ring"),
        ).server_for(record.flow)
    else:
        target = index % config.num_servers
    crash = FaultEvent(record.time, "crash", target, duration=0.003)
    monkeypatch.setattr(frontend, "fault_schedule", lambda *args: [crash])
    rack = run_cluster(config, load=load, duration=DURATION, warmup=WARMUP)
    dist = run_cluster_dist(
        config, load=load, duration=DURATION, warmup=WARMUP,
        options=DistOptions(workers=2),
    )
    assert [t for t, _event in rack.controller.applied] == [record.time]
    assert dist.metrics.fingerprint() == rack.metrics.fingerprint()
    assert dist.metrics.dispatched == rack.metrics.dispatched


# The p2c fleet's fingerprint over the on-bound trace below, as the
# hand-merging coordinator computed it before the fleet front end.
ON_BOUND_P2C_FINGERPRINT = (
    239,
    2.7473669289889995e-06,
    8.175071971861819e-06,
    8.175029738000872e-06,
    0,
    0,
    (52, 66, 61, 60),
)


def test_arrivals_on_a_window_bound_are_steered_in_the_next_window():
    # Lockstep p2c steers with the completions folded so far, so an
    # arrival on a window bound steered before that window's fold (not
    # after it) moves the picks and the fingerprint.
    from repro.dist import TraceRecord
    from repro.dist.coordinator import _pick_window

    config = small_config(balancer="p2c")
    window = _pick_window(config.failover_delay_s)
    warmup, duration = 0.001, 0.003
    bounds, t = [], 0.0
    while t < warmup + duration:
        t = min(t + window, warmup + duration)
        bounds.append(t)
    records = []
    for k, bound in enumerate(bounds[:-1]):
        records.append(TraceRecord(time=bound - window / 2, flow=k % 64))
        records.extend(
            TraceRecord(time=bound, flow=(7 * k + j) % 64) for j in range(3)
        )
    dist = run_cluster_dist(
        config, duration=duration, warmup=warmup, source=records,
        options=DistOptions(workers=2, lookahead=1),
    )
    assert dist.info["windows"] == dist.info["exchanges"] == len(bounds)
    assert dist.metrics.dispatched == len(records)
    assert dist.metrics.fingerprint() == ON_BOUND_P2C_FINGERPRINT


def test_records_out_of_order_within_a_window_replay_in_time_order():
    from repro.dist import TraceRecord

    config = small_config(num_servers=2, queues_per_server=8, num_flows=8)
    ordered = [TraceRecord(1e-5, 2), TraceRecord(2e-5, 1), TraceRecord(3e-4, 3)]
    shuffled = [ordered[1], ordered[0], ordered[2]]
    runs = [
        run_cluster_dist(
            config, duration=5e-4, warmup=0.0, source=records,
            options=DistOptions(workers=1),
        )
        for records in (ordered, shuffled)
    ]
    assert runs[0].metrics.count == 3
    assert runs[1].metrics.fingerprint() == runs[0].metrics.fingerprint()


# -- exchanges pay for their work, not for the windows they span ---------------


# Sparse traffic leaves most windows quiet. A 2 ms link keeps requests in
# flight long enough for the crash profile to catch some on the wire
# (they re-dispatch) and for stale feedback to move load-aware picks.
SPARSE_RATE = 4000.0
SPARSE_DURATION = 0.03
LOAD_AWARE_GRID = [
    (balancer, fault)
    for balancer in ("p2c", "least-loaded")
    for fault in ("none", "crash", "straggler", "link-degrade")
]


@pytest.mark.parametrize("balancer,fault", LOAD_AWARE_GRID)
def test_load_aware_exchanges_run_on_only_through_batches_that_steer_nothing(
    balancer, fault
):
    # The derived depth runs an exchange on through batches with no
    # steering decision; the batch boundaries stay those of an explicit
    # cap at the same depth, so every decision sees the same folds.
    from repro.dist import PoissonSource
    from repro.dist.coordinator import LOAD_AWARE_LOOKAHEAD

    config = small_config(
        balancer=balancer, fault_profile=fault, seed=0, link_propagation_s=2e-3
    )
    auto, capped = (
        run_cluster_dist(
            config, duration=SPARSE_DURATION, warmup=0.0,
            source=PoissonSource(SPARSE_RATE, config.num_flows, config.flow_skew, 0),
            options=DistOptions(workers=2, lookahead=lookahead),
        )
        for lookahead in (None, LOAD_AWARE_LOOKAHEAD)
    )
    assert auto.metrics.fingerprint() == capped.metrics.fingerprint()
    assert auto.metrics.dispatched == capped.metrics.dispatched
    assert auto.info["windows"] == capped.info["windows"]
    assert auto.info["lookahead"] == capped.info["lookahead"] == LOAD_AWARE_LOOKAHEAD
    if fault == "none":
        assert auto.info["exchanges"] < capped.info["exchanges"]
    if fault == "crash":
        assert auto.metrics.redispatched > 0


def test_a_quiet_step_costs_the_same_bytes_for_any_span(monkeypatch):
    # A step lists only the windows with a dispatch: one spanning eight
    # empty grid windows encodes to as many bytes as one spanning one.
    from repro.dist import TraceRecord
    from repro.dist.coordinator import WorkerPool
    from repro.dist.wire import encode_frame

    config = small_config(balancer="rss")
    original = WorkerPool.broadcast
    quiet_sizes = {}
    for lookahead in (1, 8):
        steps = []

        def spy(pool, messages, expect, *args, **kwargs):
            if expect == "step_ok":
                steps.extend(messages.values())
            return original(pool, messages, expect, *args, **kwargs)

        monkeypatch.setattr(WorkerPool, "broadcast", spy)
        run = run_cluster_dist(
            config, duration=0.004, warmup=0.0,
            source=[TraceRecord(time=1e-3, flow=5)],
            options=DistOptions(workers=1, lookahead=lookahead),
        )
        assert run.info["windows"] == lookahead * run.info["exchanges"]
        assert sum(len(step["windows"]) for step in steps) == 1
        quiet_sizes[lookahead] = {
            len(encode_frame(step)) for step in steps
            if not step["windows"] and "collect" not in step
        }
    assert quiet_sizes[1] == quiet_sizes[8] and len(quiet_sizes[1]) == 1


@pytest.mark.parametrize("balancer", ["rss", "p2c"])
def test_completions_fold_in_time_order(monkeypatch, balancer):
    # Each exchange folds its completions, from every worker and every
    # window it spans, in one global time order, and no completion is
    # reported in an exchange after the one that covers its instant.
    from repro.cluster.metrics import ClusterMetrics

    recorded = []
    original = ClusterMetrics.record

    def record(self, t, latency, server):
        recorded.append(t)
        return original(self, t, latency, server)

    monkeypatch.setattr(ClusterMetrics, "record", record)
    dist = run_cluster_dist(
        small_config(balancer=balancer), load=LOAD, duration=DURATION,
        warmup=WARMUP, options=DistOptions(workers=2),
    )
    assert len(recorded) >= dist.metrics.count > 0
    assert recorded == sorted(recorded)
