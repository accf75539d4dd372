"""Unit tests for repro.cluster: balancer, links, faults, metrics, rack."""

import random

import pytest

from repro.cluster import (
    POLICIES,
    PROFILES,
    AllServersDownError,
    ClusterConfig,
    ClusterMetrics,
    FaultEvent,
    HashRing,
    Link,
    LoadBalancer,
    Rack,
    fault_schedule,
    flow_weights,
    run_cluster,
)
from repro.cluster.controller import ClusterController
from repro.cluster.faults import (
    LINK_DEGRADE_MAGNITUDE,
    STRAGGLER_MAGNITUDE,
    WINDOW_LENGTH_FRACTION,
    WINDOW_START_FRACTION,
)


def make_balancer(policy, num_servers=4, seed=0):
    return LoadBalancer(policy, num_servers, rng=random.Random(seed), seed=seed)


# -- consistent hashing ------------------------------------------------------


def test_hash_ring_is_deterministic_and_total():
    ring = HashRing(num_servers=4, seed=7)
    again = HashRing(num_servers=4, seed=7)
    live = [True] * 4
    for flow in range(200):
        key = ring.key(flow, seed=7)
        assert ring.lookup(key, live) == again.lookup(key, live)
        assert 0 <= ring.lookup(key, live) < 4


def test_hash_ring_failure_moves_only_the_victims_arc():
    ring = HashRing(num_servers=4, seed=3)
    all_up = [True] * 4
    without_2 = [True, True, False, True]
    moved = kept = 0
    for flow in range(500):
        key = ring.key(flow, seed=3)
        before = ring.lookup(key, all_up)
        after = ring.lookup(key, without_2)
        if before == 2:
            assert after != 2
            moved += 1
        else:
            assert after == before
            kept += 1
    assert moved > 0 and kept > 0


def test_hash_ring_all_down_raises():
    ring = HashRing(num_servers=2, seed=0)
    with pytest.raises(AllServersDownError):
        ring.lookup(ring.key(0), [False, False])


def test_hash_ring_validates():
    with pytest.raises(ValueError):
        HashRing(num_servers=0)
    with pytest.raises(ValueError):
        HashRing(num_servers=2, vnodes=0)


# -- balancer policies -------------------------------------------------------


def test_rss_is_sticky_and_resteers_on_failure():
    balancer = make_balancer("rss")
    homes = {flow: balancer.dispatch(flow) for flow in range(64)}
    for flow, home in homes.items():
        assert balancer.dispatch(flow) == home
    victim = homes[0]
    orphans = balancer.mark_down(victim)
    assert set(orphans) == {f for f, home in homes.items() if home == victim}
    moved = balancer.dispatch(0)
    assert moved != victim
    assert balancer.resteers == 0  # orphans were evicted, not resteered
    balancer.mark_up(victim)
    assert balancer.dispatch(0) == victim  # rehashes to its ring home


def test_round_robin_rotates_over_live_servers():
    balancer = make_balancer("round-robin", num_servers=3)
    picks = [balancer.dispatch(flow=0) for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]
    balancer.mark_down(1)
    picks = [balancer.dispatch(flow=0) for _ in range(4)]
    assert 1 not in picks and set(picks) == {0, 2}


def test_least_loaded_joins_the_shortest_queue():
    balancer = make_balancer("least-loaded", num_servers=3)
    balancer.outstanding = [5, 2, 9]
    assert balancer.server_for(flow=0) == 1
    balancer.outstanding = [2, 2, 9]
    assert balancer.server_for(flow=0) == 0  # id breaks the tie


def test_p2c_prefers_the_less_loaded_of_two():
    balancer = make_balancer("p2c", num_servers=8, seed=1)
    balancer.outstanding = [100] * 8
    balancer.outstanding[3] = 0
    picks = [balancer.server_for(flow=0) for _ in range(200)]
    # Whenever server 3 is sampled it wins; it is sampled often.
    assert picks.count(3) > 20
    assert all(balancer.outstanding[p] in (0, 100) for p in picks)


def test_outstanding_accounting_clamps_at_zero():
    balancer = make_balancer("p2c", num_servers=2)
    server = balancer.dispatch(flow=0)
    assert balancer.outstanding[server] == 1
    balancer.complete(server)
    balancer.complete(server)  # stale double-complete
    assert balancer.outstanding[server] == 0
    assert balancer.load_shares() == [0.0, 0.0]


def test_all_servers_down_raises():
    balancer = make_balancer("round-robin", num_servers=2)
    balancer.mark_down(0)
    balancer.mark_down(1)
    with pytest.raises(AllServersDownError):
        balancer.dispatch(flow=0)


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        make_balancer("random")


# -- links -------------------------------------------------------------------


def test_link_serialization_and_propagation():
    link = Link(gbps=10.0, propagation_s=2e-6)
    # 1250 bytes = 10_000 bits at 10 Gb/s -> 1 us serialization.
    assert link.serialization_delay(1250) == pytest.approx(1e-6)
    assert link.transfer_delay(0.0, 1250) == pytest.approx(3e-6)
    # Back-to-back transfer at the same instant queues behind the first.
    assert link.transfer_delay(0.0, 1250) == pytest.approx(4e-6)
    assert link.requests == 2 and link.bytes_sent == 2500


def test_link_degrade_slows_everything():
    link = Link(gbps=10.0, propagation_s=2e-6)
    link.degrade = 10.0
    assert link.transfer_delay(0.0, 1250) == pytest.approx(10e-6 + 20e-6)


# -- fault schedules ---------------------------------------------------------


def test_fault_profiles_have_expected_shape():
    rng = random.Random(0)
    assert fault_schedule("none", 4, 1.0, rng) == []
    (crash,) = fault_schedule("crash", 4, 1.0, random.Random(0))
    assert crash.kind == "crash" and 0 <= crash.server < 4
    assert crash.time == pytest.approx(WINDOW_START_FRACTION)
    assert crash.duration == pytest.approx(WINDOW_LENGTH_FRACTION)
    (straggler,) = fault_schedule("straggler", 4, 1.0, random.Random(0))
    assert straggler.magnitude == STRAGGLER_MAGNITUDE
    (degrade,) = fault_schedule("link-degrade", 4, 1.0, random.Random(0))
    assert degrade.magnitude == LINK_DEGRADE_MAGNITUDE
    assert degrade.end_time == pytest.approx(degrade.time + degrade.duration)


def test_crash_profile_degenerates_for_one_server():
    assert fault_schedule("crash", 1, 1.0, random.Random(0)) == []


def test_fault_schedule_validates():
    with pytest.raises(ValueError):
        fault_schedule("meteor", 4, 1.0, random.Random(0))
    with pytest.raises(ValueError):
        fault_schedule("crash", 4, 0.0, random.Random(0))
    with pytest.raises(ValueError):
        FaultEvent(time=0.1, kind="crash", server=0, duration=0.0)
    with pytest.raises(ValueError):
        FaultEvent(time=0.1, kind="meteor", server=0, duration=0.1)


# -- metrics -----------------------------------------------------------------


def test_cluster_metrics_warmup_and_quantiles():
    metrics = ClusterMetrics(num_servers=2, warmup_time=1.0)
    metrics.record(now=0.5, latency=99.0, server=0)  # warm-up: dropped
    for i in range(1, 101):
        metrics.record(now=1.0 + i, latency=i * 1e-6, server=i % 2)
    assert metrics.count == 100
    assert metrics.p50_us == pytest.approx(50.0, rel=0.1)
    assert metrics.p99_us >= metrics.p50_us
    assert metrics.p999_us >= metrics.p99_us
    assert metrics.hottest_share == pytest.approx(0.5)
    summary = metrics.summary()
    assert summary["completed"] == 100.0
    assert summary["p99_latency_us"] == metrics.p99_us


def test_cluster_metrics_fingerprint_distinguishes_runs():
    a = ClusterMetrics(num_servers=1)
    b = ClusterMetrics(num_servers=1)
    for metrics in (a, b):
        metrics.record(0.0, 1e-6, 0)
    assert a.fingerprint() == b.fingerprint()
    b.record(0.0, 2e-6, 0)
    assert a.fingerprint() != b.fingerprint()


# -- configuration -----------------------------------------------------------


def test_cluster_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(num_servers=0)
    with pytest.raises(ValueError):
        ClusterConfig(num_servers=2, notification="polling")
    with pytest.raises(ValueError):
        ClusterConfig(num_servers=2, balancer="random")
    with pytest.raises(ValueError):
        ClusterConfig(num_servers=2, fault_profile="meteor")
    with pytest.raises(ValueError):
        ClusterConfig(num_servers=2, flow_skew=-1.0)


def test_server_configs_get_distinct_derived_seeds():
    config = ClusterConfig(num_servers=4, seed=5)
    seeds = {config.server_config(i).seed for i in range(4)}
    assert len(seeds) == 4
    assert config.server_config(0).seed == ClusterConfig(
        num_servers=4, seed=5
    ).server_config(0).seed
    with pytest.raises(ValueError):
        config.server_config(4)


def test_flow_weights_shape():
    assert flow_weights(3, 0.0) == [1.0, 1.0, 1.0]
    weights = flow_weights(4, 1.0)
    assert weights == sorted(weights, reverse=True)
    with pytest.raises(ValueError):
        flow_weights(0, 0.0)
    with pytest.raises(ValueError):
        flow_weights(4, -0.5)


# -- rack integration --------------------------------------------------------


def small_config(**overrides):
    base = dict(
        num_servers=2,
        notification="hyperplane",
        balancer="p2c",
        queues_per_server=64,
        num_flows=32,
        flow_skew=0.3,
        seed=9,
    )
    base.update(overrides)
    return ClusterConfig(**base)


def test_rack_runs_and_checks_invariants():
    rack = run_cluster(
        small_config(), load=0.2, duration=0.005, warmup=0.001,
        target_completions=500,
    )
    metrics = rack.metrics
    assert metrics.count >= 500
    assert metrics.p99_us > 0
    assert sum(metrics.per_server_completed) == metrics.count
    assert rack.generated >= metrics.count


def test_rack_same_seed_is_bit_identical():
    def fingerprint():
        rack = run_cluster(
            small_config(fault_profile="crash"), load=0.2,
            duration=0.005, warmup=0.001, target_completions=500,
        )
        return rack.metrics.fingerprint()

    assert fingerprint() == fingerprint()


def test_rack_different_seed_differs():
    def fingerprint(seed):
        rack = run_cluster(
            small_config(seed=seed), load=0.2, duration=0.005,
            warmup=0.001, target_completions=500,
        )
        return rack.metrics.fingerprint()

    assert fingerprint(1) != fingerprint(2)


def test_crash_reverts_and_accounts_for_failover():
    rack = run_cluster(
        small_config(fault_profile="crash", notification="spinning"),
        load=0.3, duration=0.01, warmup=0.002,
    )
    assert len(rack.controller.applied) == 1
    assert len(rack.controller.reverted) == 1
    victim = rack.controller.applied[0][1].server
    assert rack.servers[victim].up  # restarted by the revert
    # Every generated request is accounted for: completed (including
    # warm-up), lost, or still in flight when the run ended.
    completed = sum(server.completed_ok for server in rack.servers)
    accounted = completed + rack.metrics.lost
    assert accounted <= rack.generated
    assert rack.generated - accounted < 100


def test_arrival_with_every_server_down_is_lost_not_raised():
    # Both servers of a p2c rack (per-arrival traffic) crash at 0.5 ms:
    # every later arrival finds no live server and is lost, exactly as
    # a re-dispatch that finds none is.
    config = ClusterConfig(
        num_servers=2, notification="spinning", balancer="p2c",
        queues_per_server=8, num_flows=16, seed=1,
    )
    rack = Rack(config)
    rack.attach_open_loop(load=0.5)
    rack.controller = ClusterController(
        rack, [FaultEvent(0.0005, "crash", server, duration=1.0) for server in (0, 1)]
    )
    rack.controller.start()
    rack.run(duration=0.001, warmup=0.0)
    assert rack.sim.now == pytest.approx(0.001)
    assert not any(server.up for server in rack.servers)
    # Before the crash every arrival reached a server; after it none did.
    turned_away = rack.generated - sum(server.dispatched for server in rack.servers)
    assert turned_away > 0
    assert rack.metrics.lost >= turned_away


def test_straggler_inflates_victim_service_and_reverts():
    rack = Rack(small_config(fault_profile="straggler"))
    rack.attach_open_loop(load=0.2)
    rack.run(duration=0.004, warmup=0.001)
    assert len(rack.controller.applied) == 1
    victim = rack.controller.applied[0][1].server
    assert rack.servers[victim].slow_factor == 1.0  # reverted by run end


def test_attach_open_loop_validates():
    rack = Rack(small_config())
    with pytest.raises(ValueError):
        rack.attach_open_loop()
    with pytest.raises(ValueError):
        rack.attach_open_loop(load=0.2, rate=1e6)
    rack.attach_open_loop(load=0.2)
    with pytest.raises(RuntimeError):
        rack.attach_open_loop(load=0.2)


def test_policy_and_profile_tuples_are_exported():
    assert set(POLICIES) == {"rss", "round-robin", "least-loaded", "p2c"}
    assert set(PROFILES) == {"none", "crash", "straggler", "link-degrade"}
