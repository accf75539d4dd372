"""Extension figure: scale-up queueing's priority support (Section II-B).

The paper's third argument for scale-up: "scale-up organizations provide
better support for queue priorities. With scale-out organizations, each
core can only prioritize over its own subset of queues."

Setup: a high-priority tenant (queue 0, WRR weight 16) whose traffic is
bursty — its bursts momentarily need more than one core — on top of
fully-balanced background load. Under scale-up-4, any core serves the
priority queue the moment it is ready, so bursts are absorbed. Under
scale-out, only queue 0's owning core may serve it; during a burst the
other three cores idle past a backlogged priority tenant.
"""

from repro.core.dataplane import build_hyperplane
from repro.sdp.config import SDPConfig
from repro.sdp.metrics import LatencyRecorder
from repro.sdp.system import DataPlaneSystem
from repro.traffic.bursty import OnOffSource

SERVICE = 1.4e-6
PRIORITY_QID = 0


def run_qos(cluster_cores: int, seed: int = 5, weight: int = 16):
    system = DataPlaneSystem(
        SDPConfig(
            num_queues=64,
            num_cores=4,
            cluster_cores=cluster_cores,
            workload="packet-encapsulation",
            shape="FB",
            seed=seed,
        )
    )
    build_hyperplane(system, policy="wrr", weights={PRIORITY_QID: weight})
    # Background: 50% of aggregate capacity, spread over all queues.
    system.attach_open_loop(load=0.5)
    # The priority tenant: mean 0.3 cores, bursting to ~1.8 cores.
    OnOffSource(
        sim=system.sim,
        queue=system.queues[PRIORITY_QID],
        mean_rate=0.3 / SERVICE,
        burstiness=6.0,
        on_fraction=1.0 / 6.0,
        mean_on_seconds=300e-6,
        service_sampler=system.service_model,
        rng=system.streams.stream("priority-tenant"),
        item_id_base=1 << 30,
    )
    priority = LatencyRecorder(warmup_time=0.001)
    background = LatencyRecorder(warmup_time=0.001)

    def split_completion(item):
        recorder = priority if item.qid == PRIORITY_QID else background
        recorder.record(system.sim.now, item.latency)

    system.completion_hooks.append(split_completion)
    system.run(duration=0.12, warmup=0.001, target_completions=40000)
    return priority, background


def test_scale_up_preserves_priority_tenant_tails(run_once):
    def sweep():
        results = {}
        for label, cluster_cores, weight in (
            ("scale-out", 1, 16),
            ("scale-up-4", 4, 16),
            ("scale-up-4/w=1", 4, 1),
        ):
            priority, background = run_qos(cluster_cores, weight=weight)
            results[label] = {
                "priority_p99_us": priority.p99_us,
                "priority_avg_us": priority.mean_us,
                "background_p99_us": background.p99_us,
                "priority_samples": priority.count,
            }
        return results

    results = run_once(sweep)
    print("\norganisation     priority p99   priority avg   background p99")
    for label, row in results.items():
        print(
            f"{label:<16}{row['priority_p99_us']:>13.2f}{row['priority_avg_us']:>15.2f}"
            f"{row['background_p99_us']:>17.2f}"
        )
    out = results["scale-out"]
    up = results["scale-up-4"]
    unweighted = results["scale-up-4/w=1"]
    assert out["priority_samples"] > 2000 and up["priority_samples"] > 2000
    # Scale-up absorbs the priority tenant's bursts with the whole pool
    # (the paper's point: scale-out priorities are per-core only, so a
    # burst beyond one core's capacity strands a prioritised tenant).
    assert up["priority_p99_us"] < 0.5 * out["priority_p99_us"]
    assert up["priority_avg_us"] < out["priority_avg_us"]
    # The WRR weight itself matters: without it the bursting tenant's
    # backlog drains at plain round-robin pace.
    assert up["priority_avg_us"] < unweighted["priority_avg_us"]
