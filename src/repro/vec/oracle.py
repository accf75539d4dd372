"""The exact-simulator oracle and the documented agreement contract.

The event backend (:mod:`repro.sdp` / :mod:`repro.core`) is the ground
truth; the vec backend and any surrogate fitted on top of it must agree
with it within the tolerances below. This mirrors the role the frozen
models in ``tests/oracles/mem.py`` play for the structural fast paths —
except those are bit-identical, while vec is a *statistical* twin: it draws its
own service/arrival randomness and approximates scan ordering with a
FCFS multi-server station, so agreement is per-metric relative error,
not equality.

Tolerances were calibrated against seeded sweeps over all four traffic
shapes (FB/PC/NC/SQ), queue counts 1..1000, spinning/HyperPlane
mechanisms, and the Fig. 10 organizations at loads 0.2-0.8 (see
tests/test_vec_oracle.py, which CI-enforces them). Worst observed
errors were ~9% (closed-loop throughput), ~38% (open-loop p99) and
~28% (open-loop mean); the contract adds margin for sampling noise on
both sides. ``interrupts`` lanes are supported best-effort (coalescing
is approximated) and carry no CI-enforced tolerance.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.sdp.config import SDPConfig
from repro.sdp.metrics import RunMetrics
from repro.sim.rng import derive_seed
from repro.vec.arrays import SweepPoint

# The documented vec-vs-event agreement contract (relative error).
# P99 is the loosest: shared-cluster spinning tails carry both vec
# model error (~38% worst observed) and event-side p99 sampling noise.
THROUGHPUT_RTOL = 0.12
P99_RTOL = 0.50
MEAN_LATENCY_RTOL = 0.35

TOLERANCES: Dict[str, float] = {
    "throughput_mtps": THROUGHPUT_RTOL,
    "p99_us": P99_RTOL,
    "mean_us": MEAN_LATENCY_RTOL,
}

# Default oracle sampling: how many grid points the exact simulator
# re-runs when validating a surrogate, and how hard each run tries.
DEFAULT_ORACLE_SAMPLES = 4
DEFAULT_ORACLE_COMPLETIONS = 1500
DEFAULT_ORACLE_MAX_SECONDS = 3.0


def _runner(mechanism: str):
    if mechanism == "spinning":
        from repro.sdp.runner import run_spinning

        return run_spinning
    if mechanism == "hyperplane":
        from repro.core.runner import run_hyperplane

        return run_hyperplane
    if mechanism == "interrupts":
        from repro.sdp.runner import run_interrupts

        return run_interrupts
    raise ValueError(f"unknown mechanism {mechanism!r}")


def simulate_point_exact(
    point: SweepPoint,
    seed: int = 0,
    target_completions: int = DEFAULT_ORACLE_COMPLETIONS,
    max_seconds: float = DEFAULT_ORACLE_MAX_SECONDS,
) -> Dict[str, float]:
    """Run one sweep point on the exact event simulator.

    Returns ``{"throughput_mtps", "p99_us", "mean_us"}`` — the same
    metrics the vec engine reports, so callers can compute relative
    errors directly.
    """
    config = SDPConfig(
        num_queues=point.num_queues,
        workload=point.workload,
        shape=point.shape,
        num_cores=point.num_cores,
        cluster_cores=point.cluster_cores,
        imbalance=point.imbalance,
        service_scv=point.service_scv,
        seed=seed,
    )
    runner = _runner(point.mechanism)
    metrics: RunMetrics
    if point.closed_loop:
        metrics = runner(
            config,
            closed_loop=True,
            target_completions=target_completions,
            max_seconds=max_seconds,
        )
    else:
        metrics = runner(
            config,
            load=point.load,
            target_completions=target_completions,
            max_seconds=max_seconds,
        )
    return {
        "throughput_mtps": metrics.throughput_mtps,
        "p99_us": metrics.latency.p99_us,
        "mean_us": metrics.latency.mean_us,
    }


def oracle_sample_indices(
    num_points: int,
    samples: int = DEFAULT_ORACLE_SAMPLES,
    seed: int = 0,
) -> List[int]:
    """Deterministic subsample of grid indices for oracle validation.

    Derived from the root seed via the same :func:`derive_seed` scheme
    as every other stream in the repo, so a manifest recording the seed
    pins down exactly which points were validated.
    """
    if num_points <= 0:
        raise ValueError("need at least one grid point")
    count = min(samples, num_points)
    rng = random.Random(derive_seed(seed, "vec.oracle.sample"))
    return sorted(rng.sample(range(num_points), count))
