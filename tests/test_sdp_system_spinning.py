"""End-to-end tests of the shared runtime and the spinning data plane."""

import pytest

from repro.sdp.config import SDPConfig
from repro.sdp.locality import LocalityModel
from repro.sdp.runner import run_spinning
from repro.sdp.system import Cluster, DataPlaneSystem
from repro.mem.costmodel import derive_cost_model
from repro.queueing.locks import SpinLock
from repro.sdp.organizations import ClusterPlan
from repro.sim import Simulator
from tests.oracles.cores import arrival_event, next_ready


def small_config(**overrides):
    defaults = dict(num_queues=8, workload="packet-encapsulation", shape="FB", seed=0)
    defaults.update(overrides)
    return SDPConfig(**defaults)


# -- cluster ready-mask mechanics ------------------------------------------------


def make_cluster(num_queues=8):
    config = small_config(num_queues=num_queues)
    system = DataPlaneSystem(config)
    return system, system.clusters[0]


# The scan and pulse helpers belong to the generator-core oracle; the
# callback core inlines the same scan, pinned by tests/test_core_fastpath.py.


def test_next_ready_none_when_empty():
    _system, cluster = make_cluster()
    assert next_ready(cluster, 0) is None


def test_next_ready_ahead_and_wrap():
    system, cluster = make_cluster()
    cluster.ready_mask = 0b00100100  # queues 2 and 5
    assert next_ready(cluster, 0) == (2, 2)
    assert next_ready(cluster, 3) == (5, 2)
    assert next_ready(cluster, 6) == (2, 4)  # wraps: 6,7 then 0,1 skipped
    assert next_ready(cluster, 2) == (2, 0)


def test_notify_ready_sets_mask_and_pulses():
    system, cluster = make_cluster()
    event = arrival_event(cluster)
    system.doorbells[3].producer_increment()  # fires hook -> notify_ready
    assert cluster.ready_mask & (1 << 3)
    # No waiters: no pulse, same event object.
    assert arrival_event(cluster) is event


def test_pulse_wakes_waiters():
    system, cluster = make_cluster()
    woken = []
    event = arrival_event(cluster)
    event.add_callback(lambda v: woken.append(v))
    system.doorbells[1].producer_increment()
    assert arrival_event(cluster) is not event
    system.sim.run()
    assert woken == [1]


def test_refresh_ready_follows_occupancy():
    system, cluster = make_cluster()
    from repro.queueing.taskqueue import WorkItem

    system.queues[0].enqueue(WorkItem(0, 0, 0.0, 1e-6))
    cluster.refresh_ready(0)
    assert cluster.ready_mask & 1
    system.queues[0].dequeue(0.0)
    cluster.refresh_ready(0)
    assert not (cluster.ready_mask & 1)


# -- locality model ---------------------------------------------------------------


def test_locality_resident_fraction():
    model = LocalityModel(derive_cost_model())
    assert model.llc_resident_fraction(10) == 1.0
    assert 0.0 < model.llc_resident_fraction(10_000) < 0.2


def test_poll_cost_monotone_in_queue_count():
    model = LocalityModel(derive_cost_model())
    costs = [model.empty_poll_cost(n, 1000) for n in (8, 64, 256, 1000)]
    assert all(a <= b for a, b in zip(costs, costs[1:]))
    assert costs[-1] > costs[0]


def test_idle_polls_cheaper_than_loaded():
    model = LocalityModel(derive_cost_model())
    assert model.empty_poll_cost(200, 1000, idle=True) < model.empty_poll_cost(200, 1000)


def test_task_stall_grows_with_footprint():
    model = LocalityModel(derive_cost_model())
    assert model.task_data_stall_cycles(10) == 0.0
    assert model.task_data_stall_cycles(1000) > model.task_data_stall_cycles(500) > 0.0


def test_poll_cost_validation():
    model = LocalityModel(derive_cost_model())
    with pytest.raises(ValueError):
        model.empty_poll_cost(0)


# -- end-to-end spinning runs -----------------------------------------------------


def test_open_loop_run_completes_work():
    metrics = run_spinning(
        small_config(), load=0.3, target_completions=300, max_seconds=1.0
    )
    assert metrics.latency.count >= 300
    assert metrics.throughput_mtps > 0
    # Latency at 30% load is a few service times at most.
    assert metrics.latency.mean_us < 20.0


def test_closed_loop_peak_near_service_rate():
    metrics = run_spinning(
        small_config(shape="SQ"), closed_loop=True, target_completions=1000,
        max_seconds=1.0,
    )
    ideal = 1.0 / 1.4  # Mtask/s for 1.4 us encapsulation
    assert 0.5 * ideal < metrics.throughput_mtps <= ideal


def test_same_seed_is_deterministic():
    a = run_spinning(small_config(seed=5), load=0.4, target_completions=200, max_seconds=1.0)
    b = run_spinning(small_config(seed=5), load=0.4, target_completions=200, max_seconds=1.0)
    assert a.latency.mean == b.latency.mean
    assert a.latency.count == b.latency.count


def test_different_seeds_differ():
    a = run_spinning(small_config(seed=1), load=0.4, target_completions=200, max_seconds=1.0)
    b = run_spinning(small_config(seed=2), load=0.4, target_completions=200, max_seconds=1.0)
    assert a.latency.mean != b.latency.mean


def test_multicore_scale_out_completes():
    config = small_config(num_queues=16, num_cores=4, cluster_cores=1)
    metrics = run_spinning(config, load=0.5, target_completions=500, max_seconds=1.0)
    assert metrics.latency.count >= 500
    busy = [a for a in metrics.activities if a.busy_cycles > 0]
    assert len(busy) == 4  # every core did work


def test_multicore_scale_up_completes_with_sync_costs():
    config = small_config(num_queues=16, num_cores=4, cluster_cores=4)
    metrics = run_spinning(config, load=0.5, target_completions=500, max_seconds=1.0)
    assert metrics.latency.count >= 500
    # The shared-cluster lock saw traffic.
    # (reach into the run by re-running with a system handle)


def test_spinning_idle_accounts_useless_instructions():
    metrics = run_spinning(
        small_config(), load=0.02, target_completions=50, max_seconds=2.0
    )
    chip = metrics.chip_activity
    assert chip.useless_instructions > chip.useful_instructions
    assert chip.halted_cycles == 0  # spinning never halts


def test_zero_load_latency_grows_with_queue_count():
    few = run_spinning(
        small_config(num_queues=4, service_scv=0.0), load=0.01,
        target_completions=150, max_seconds=3.0,
    )
    many = run_spinning(
        small_config(num_queues=1000, service_scv=0.0), load=0.01,
        target_completions=150, max_seconds=3.0,
    )
    assert many.latency.mean > 3.0 * few.latency.mean
    assert many.latency.p99 > many.latency.mean * 1.5


def test_run_validation():
    with pytest.raises(ValueError):
        run_spinning(small_config())  # neither load nor closed loop
    with pytest.raises(ValueError):
        run_spinning(small_config(), load=0.5, closed_loop=True)


def test_system_invariants_after_run():
    config = small_config(num_queues=32)
    system = DataPlaneSystem(config)
    system.attach_open_loop(load=0.5)
    from repro.sdp.spinning import build_spinning_cores

    build_spinning_cores(system)
    system.run(duration=0.01, warmup=0.001)
    system.check_invariants()


def test_config_validation():
    with pytest.raises(ValueError):
        SDPConfig(num_queues=0)
    with pytest.raises(ValueError):
        SDPConfig(num_queues=4, num_cores=4, cluster_cores=3)
    # Zero would divide by zero; negative values divide num_cores evenly
    # (4 % -1 == 0) and gave a negative cluster count.
    for cluster_cores in (0, -1, -2, -4):
        with pytest.raises(ValueError, match="at least one core per cluster"):
            SDPConfig(num_queues=4, num_cores=4, cluster_cores=cluster_cores)
    with pytest.raises(ValueError):
        SDPConfig(num_queues=4, imbalance=1.0)
    config = SDPConfig(num_queues=4, num_cores=4, cluster_cores=2)
    assert config.num_clusters == 2
    assert config.organization == "scale-up-2"
    assert SDPConfig(num_queues=4).organization == "scale-out"
