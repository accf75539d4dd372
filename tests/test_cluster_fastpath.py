"""Differential tests for the rack fast path vs. the frozen reference.

The fast rack (:mod:`repro.cluster.rack`) must be *bit-identical* to the
pre-fast-path stack preserved in :mod:`tests.oracles.rack`: same
client metrics (exact latency sample lists included), same per-server
stats, and the same RNG stream positions — draw-for-draw equivalence,
not just distributional. These tests fuzz that contract across the
notification x balancer x fault x fleet-size grid, with spinning
servers also of 2 or 4 cores in shared and unshared clusters, pin racks
that run more than once or take a crash, and pin the supporting caches (interned weight tables, flow->queue memo, the
unrolled P² estimator) against their reference counterparts.
"""

import itertools
import random

import pytest

from repro.cluster import tables
from repro.cluster.config import ClusterConfig
from repro.cluster.controller import ClusterController
from repro.cluster.faults import FaultEvent
from repro.cluster.rack import Rack
from repro.sdp import locality
from repro.sdp.quantiles import P2Quantile
from tests.oracles.rack import (
    ReferenceClusterServer,
    ReferenceP2Quantile,
    ReferenceRack,
)


@pytest.fixture(autouse=True)
def _fresh_interned_state():
    tables.clear_tables()
    locality.clear_shared_curves()
    yield
    tables.clear_tables()
    locality.clear_shared_curves()


def _run_rack(rack_cls, config_kwargs, load=0.7, duration=0.002, warmup=0.0005):
    tables.clear_tables()
    rack = rack_cls(ClusterConfig(**config_kwargs))
    rack.attach_open_loop(load=load)
    rack.run(duration=duration, warmup=warmup)
    return rack


def _state(rack):
    """Everything the bit-identicality contract covers."""
    return (
        rack.metrics.fingerprint(),
        tuple(rack.metrics.latency._samples),
        rack.metrics.dispatched,
        rack.metrics.rejected,
        rack.metrics.redispatched,
        rack.generated,
        tuple((s.dispatched, s.completed_ok, s.lost) for s in rack.servers),
        rack.streams.stream("cluster.arrivals").getstate(),
        rack.streams.stream("cluster.flows").getstate(),
        rack.streams.stream("cluster.balancer").getstate(),
        tuple(
            s.system.streams.stream("service").getstate() for s in rack.servers
        ),
    )


def _assert_pair_identical(config_kwargs, load=0.7, duration=0.002, warmup=0.0005):
    ref = _run_rack(ReferenceRack, config_kwargs, load, duration, warmup)
    fast = _run_rack(Rack, config_kwargs, load, duration, warmup)
    assert _state(fast) == _state(ref)
    return fast, ref


# -- differential fuzz: the full scenario grid -------------------------------

BALANCERS = ("rss", "round-robin", "least-loaded", "p2c")
PROFILES = ("none", "crash", "straggler")
# (cores_per_server, cluster_cores) of multi-core spinning servers: the
# shared clusters charge lock sync mid-turn and take no delivery pull.
MULTICORE_SERVERS = ((2, 1), (2, 2), (4, 2), (4, 4))


def _rack_grid():
    for num_servers, profile, balancer in itertools.product(
        (1, 4), PROFILES, BALANCERS
    ):
        prefix = f"{num_servers}-{profile}-{balancer}"
        for notification in ("spinning", "hyperplane"):
            yield pytest.param(
                notification, balancer, profile, num_servers, {},
                id=f"{prefix}-{notification}",
            )
        for cores, cluster_cores in MULTICORE_SERVERS:
            yield pytest.param(
                "spinning", balancer, profile, num_servers,
                dict(cores_per_server=cores, cluster_cores=cluster_cores),
                id=f"{prefix}-spinning-{cores}x{cluster_cores}",
            )


@pytest.mark.parametrize(
    "notification, balancer, profile, num_servers, server_shape", _rack_grid()
)
def test_fast_rack_matches_reference(
    notification, balancer, profile, num_servers, server_shape
):
    # Offered load scales with the cores per server: shorten the run so
    # every case serves about as many requests.
    cores = server_shape.get("cores_per_server", 1)
    _assert_pair_identical(
        dict(
            num_servers=num_servers,
            notification=notification,
            balancer=balancer,
            fault_profile=profile,
            queues_per_server=8,
            num_flows=32,
            flow_skew=0.5,
            seed=11 + num_servers,
            **server_shape,
        ),
        duration=0.002 / cores,
        warmup=0.0005 / cores,
    )


@pytest.mark.parametrize(
    "notification, balancer, profile",
    [
        ("spinning", "rss", "none"),
        ("spinning", "rss", "crash"),
        ("spinning", "round-robin", "straggler"),
        ("hyperplane", "p2c", "none"),
    ],
)
def test_fast_rack_matches_reference_16_servers(notification, balancer, profile):
    _assert_pair_identical(
        dict(
            num_servers=16,
            notification=notification,
            balancer=balancer,
            fault_profile=profile,
            queues_per_server=8,
            num_flows=64,
            flow_skew=0.3,
            seed=29,
        ),
        duration=0.0015,
        warmup=0.0005,
    )


def test_tiny_capacity_overload_rejections_identical():
    """queue_capacity=2 under 1.4x load: thousands of rejections force
    the balancer clamp and the sweep's delivery-pull fallback paths."""
    fast, ref = _assert_pair_identical(
        dict(
            num_servers=4,
            notification="spinning",
            balancer="rss",
            queues_per_server=8,
            num_flows=32,
            flow_skew=0.5,
            queue_capacity=2,
            seed=5,
        ),
        load=1.4,
    )
    assert fast.metrics.rejected > 0


# -- multi-run racks and crash injection -------------------------------------

SWEEPABLE = [
    pytest.param(notification, balancer, id=f"{notification}-{balancer}")
    for notification in ("spinning", "hyperplane")
    for balancer in ("rss", "round-robin")
]


def _open_rack(rack_cls, notification, balancer, seed):
    """A 4-server rack whose first run sweeps (rss or round-robin)."""
    tables.clear_tables()
    rack = rack_cls(
        ClusterConfig(
            num_servers=4,
            notification=notification,
            balancer=balancer,
            queues_per_server=8,
            num_flows=32,
            seed=seed,
        )
    )
    rack.attach_open_loop(load=0.5)
    return rack


def _assert_runs_identical(notification, balancer, seed, drive):
    racks = []
    for rack_cls in (ReferenceRack, Rack):
        rack = _open_rack(rack_cls, notification, balancer, seed)
        drive(rack)
        racks.append(rack)
    ref, fast = racks
    assert _state(fast) == _state(ref)


@pytest.mark.parametrize("seed", (2, 8, 10))
@pytest.mark.parametrize("notification, balancer", SWEEPABLE)
def test_swept_then_per_arrival_run_matches_reference(notification, balancer, seed):
    # A completion target keeps the second run per-arrival; the first
    # run's pulled deliveries must not be overtaken by its enqueues.
    def drive(rack):
        rack.run(duration=0.001)
        rack.run(duration=0.001, target_completions=10**9)

    _assert_runs_identical(notification, balancer, seed, drive)


@pytest.mark.parametrize("notification, balancer", SWEEPABLE)
def test_crash_between_swept_runs_matches_reference(notification, balancer):
    def drive(rack):
        rack.run(duration=0.001)
        rack.crash_server(1)
        rack.run(duration=0.001)

    _assert_runs_identical(notification, balancer, 2, drive)


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("notification, balancer", SWEEPABLE)
def test_controller_crash_event_matches_reference(notification, balancer, seed):
    def drive(rack):
        rack.controller = ClusterController(
            rack, [FaultEvent(0.0007, "crash", 1, duration=1.0)]
        )
        rack.controller.start()
        rack.run(duration=0.002)

    _assert_runs_identical(notification, balancer, seed, drive)


@pytest.mark.parametrize("notification, balancer", SWEEPABLE)
def test_crash_server_inside_a_swept_run_raises(notification, balancer):
    rack = _open_rack(Rack, notification, balancer, 0)
    rack.sim.schedule_at(0.0007, lambda _=None: rack.crash_server(1))
    with pytest.raises(RuntimeError, match=r"crash FaultEvent on rack\.controller"):
        rack.run(duration=0.002)


# -- satellite: queue_for_flow cache -----------------------------------------


@pytest.mark.parametrize("shape", ("FB", "SQ"))
@pytest.mark.parametrize("skewed_seed", (3, 17))
def test_queue_for_flow_matches_reference(shape, skewed_seed):
    config = ClusterConfig(
        num_servers=2,
        notification="spinning",
        queues_per_server=16,
        num_flows=64,
        shape=shape,
        seed=skewed_seed,
    )
    fast = Rack(config)
    ref = ReferenceRack(config)
    for index in range(config.num_servers):
        for flow in range(config.num_flows):
            assert fast.servers[index].queue_for_flow(flow) == ref.servers[
                index
            ].queue_for_flow(flow)


def test_queue_for_flow_is_memoised():
    config = ClusterConfig(
        num_servers=1, notification="spinning", queues_per_server=8, num_flows=16
    )
    server = Rack(config).servers[0]
    assert server._flow_queue_map == {}
    first = server.queue_for_flow(7)
    assert server._flow_queue_map == {7: first}
    # A poisoned memo entry being returned proves the hit path is taken.
    server._flow_queue_map[7] = (first + 1) % config.queues_per_server
    assert server.queue_for_flow(7) == server._flow_queue_map[7]


def test_queue_for_flow_stable_across_crash_restart_epochs():
    config_kwargs = dict(
        num_servers=2,
        notification="spinning",
        queues_per_server=8,
        num_flows=32,
        flow_skew=0.5,
        seed=13,
    )
    rack = Rack(ClusterConfig(**config_kwargs))
    server = rack.servers[0]
    before = {flow: server.queue_for_flow(flow) for flow in range(32)}
    rack.attach_open_loop(load=0.5)
    rack.controller = ClusterController(
        rack, [FaultEvent(0.0004, "crash", 0, duration=0.0004)]
    )
    rack.controller.start()
    rack.run(duration=0.0015, warmup=0.0)
    assert server.epoch > 0
    after = {flow: server.queue_for_flow(flow) for flow in range(32)}
    assert after == before
    reference = ReferenceRack(ClusterConfig(**config_kwargs)).servers[0]
    assert after == {flow: reference.queue_for_flow(flow) for flow in range(32)}


# -- satellite: interned cumulative-weight tables ----------------------------


def test_homogeneous_servers_share_one_weight_table():
    rack = Rack(
        ClusterConfig(num_servers=4, notification="spinning", queues_per_server=16)
    )
    first = rack.servers[0]._weight_table
    assert all(server._weight_table is first for server in rack.servers)
    # Distinct per-server seeds mean distinct flow memos on that table.
    maps = [id(server._flow_queue_map) for server in rack.servers]
    assert len(set(maps)) == len(maps)


def test_same_seed_servers_share_the_flow_memo():
    class SameSeedConfig(ClusterConfig):
        def server_config(self, index):
            base = super().server_config(index)
            base.seed = 123
            return base

    rack = Rack(
        SameSeedConfig(num_servers=2, notification="spinning", queues_per_server=8)
    )
    assert rack.servers[0]._flow_queue_map is rack.servers[1]._flow_queue_map


def test_heterogeneous_server_overrides_get_their_own_table():
    class LopsidedConfig(ClusterConfig):
        """Index 0 runs a different queue count than the rest."""

        def server_config(self, index):
            base = super().server_config(index)
            if index == 0:
                base.num_queues = 4
            return base

    rack = Rack(
        LopsidedConfig(num_servers=3, notification="spinning", queues_per_server=8)
    )
    odd, rest = rack.servers[0], rack.servers[1:]
    assert all(s._weight_table is rest[0]._weight_table for s in rest)
    assert odd._weight_table is not rest[0]._weight_table
    assert odd._weight_table.num_queues == 4
    for server in rack.servers:
        for flow in range(16):
            qid = server.queue_for_flow(flow)
            assert 0 <= qid < server.config.num_queues
            assert qid == server._weight_table.compute(server.config.seed, flow)


# -- satellite: unrolled P² estimator ----------------------------------------


def _p2_streams():
    rng = random.Random(99)
    yield "uniform", [rng.random() for _ in range(400)]
    yield "exponential", [rng.expovariate(1e5) for _ in range(400)]
    yield "heavy-tail", [rng.paretovariate(1.3) for _ in range(400)]
    yield "constant", [1.0] * 50
    yield "sorted", sorted(rng.random() for _ in range(200))
    yield "reversed", sorted((rng.random() for _ in range(200)), reverse=True)
    yield "duplicates", [rng.choice((0.1, 0.2, 0.3)) for _ in range(300)]


@pytest.mark.parametrize("quantile", (0.5, 0.99, 0.999))
def test_unrolled_p2_bitwise_matches_reference(quantile):
    for name, values in _p2_streams():
        fast = P2Quantile(quantile)
        ref = ReferenceP2Quantile(quantile)
        for value in values:
            fast.add(value)
            ref.add(value)
            assert fast.value == ref.value, name
        assert fast.count == ref.count
        assert list(fast._heights) == list(ref._heights), name
        assert list(fast._positions) == list(ref._positions), name
        assert list(fast._desired) == list(ref._desired), name


# -- the rack fast-path gate --------------------------------------------------


def test_cluster_scenarios_registered():
    from benchmarks.perf.gates import GATES

    assert GATES["cluster_spin16"].default
    assert GATES["cluster_grid_row"].default
