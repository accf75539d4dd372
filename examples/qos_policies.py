#!/usr/bin/env python
"""Service policies and QWAIT-ENABLE/DISABLE rate limiting.

Demonstrates the ready set's three service policies on a shared tenant
mix, then uses QWAIT-DISABLE / QWAIT-ENABLE to rate-limit one queue for
a window — the congestion-control use case from Section III-A.

Run:  python examples/qos_policies.py
"""

from repro.core.dataplane import build_hyperplane
from repro import SDPConfig
from repro.sdp.system import DataPlaneSystem


def run_policy(policy: str, weights=None):
    """One closed-loop run; returns per-queue completion counts."""
    config = SDPConfig(num_queues=4, workload="packet-encapsulation", shape="FB", seed=0)
    system = DataPlaneSystem(config)
    accelerator, _cores = build_hyperplane(system, policy=policy, weights=weights)
    system.attach_closed_loop(depth=4)
    completions = {qid: 0 for qid in range(4)}

    def count_completion(item):
        completions[item.qid] += 1

    system.completion_hooks.append(count_completion)
    system.run(duration=0.004, warmup=0.0005)
    return completions


def policies_demo():
    print("per-queue completions for each service policy (4 saturated tenants):")
    for policy, weights in (("rr", None), ("wrr", {0: 6, 1: 2}), ("strict", None)):
        counts = run_policy(policy, weights)
        label = policy + (f" weights={weights}" if weights else "")
        total = sum(counts.values())
        shares = "  ".join(f"q{q}:{c / total:5.1%}" for q, c in counts.items())
        print(f"  {label:<24} {shares}")
    print(
        "\nwrr honours tenant weights; strict starves everything behind "
        "queue 0 (why the paper advises wrr for prioritisation).\n"
    )


def rate_limit_demo():
    config = SDPConfig(num_queues=2, workload="packet-encapsulation", shape="FB", seed=0)
    system = DataPlaneSystem(config)
    accelerator, _cores = build_hyperplane(system)
    system.attach_closed_loop(depth=4)
    completions = {0: 0, 1: 0}
    window = {"limited": 0}

    def count_completion(item):
        completions[item.qid] += 1

    system.completion_hooks.append(count_completion)

    # Rate-limit queue 1 for the middle millisecond (timer-driven, as the
    # paper suggests for congestion control).
    system.sim.schedule(0.001, accelerator.qwait_disable, 1)
    system.sim.schedule(0.002, accelerator.qwait_enable, 1)
    checkpoint = {}
    system.sim.schedule(0.001, lambda: checkpoint.update(at_1ms=dict(completions)))
    system.sim.schedule(0.002, lambda: checkpoint.update(at_2ms=dict(completions)))
    system.run(duration=0.003, warmup=0.0)

    during = {
        q: checkpoint["at_2ms"][q] - checkpoint["at_1ms"][q] for q in completions
    }
    after = {q: completions[q] - checkpoint["at_2ms"][q] for q in completions}
    print("QWAIT-DISABLE rate limiting (queue 1 inhibited from 1 ms to 2 ms):")
    print(f"  completions during the limited window: q0={during[0]}, q1={during[1]}")
    print(f"  completions after re-enable:           q0={after[0]}, q1={after[1]}")
    assert during[1] == 0, "disabled queue must not be served"
    assert after[1] > 0, "re-enabled queue must resume"


def main():
    policies_demo()
    rate_limit_demo()


if __name__ == "__main__":
    main()
