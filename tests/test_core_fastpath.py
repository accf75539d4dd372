"""Differential fuzz: the callback cores vs. the generator oracles.

:class:`repro.sdp.spinning.SpinningCore` and its MWAIT subclass must be
*bit-identical* to the generator loops they replaced, preserved in
:mod:`tests.oracles.cores`: the same latency samples, per-core cycle
and instruction accounting, per-queue counters, lock statistics, final
iterator positions, heap-event count, metrics registry and trace spans.
The one deliberate difference is ``sim.process_wakes``, which counts
generator-process resumptions and so reads zero for the callback core.

The grid crosses traffic shape, queue count, core organisation and
traffic (closed loop and three open-loop loads); spinning runs also
cross observability (none, an enabled registry, a 10%-sampling tracer)
and MWAIT runs two seeds: 960 pairs of runs, each duration-bounded at a
few hundred tasks per core.

:class:`repro.core.dataplane.HyperPlaneCore` is held to the same
contract against the generator HyperPlane loop, over the same grid
crossed with observability, plus batch-4, in-order, work-stealing,
spurious-wake and power-optimised variants: 1,440 pairs. It skips the
heap events its fold rules prove unobservable, so its event count may
only be lower; everything else must match, monitoring-set snoop
counters included. A last case advances both cores in many tiny
``sim.run(until=...)`` steps and compares their state at every bound.
"""

import dataclasses
import itertools

import pytest

from repro.core.dataplane import build_hyperplane
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import active_registry
from repro.obs.trace import Tracer, active_tracer
from repro.sdp.config import SDPConfig
from repro.sdp.metrics import RunMetrics
from repro.sdp.mwait import MwaitCore, build_mwait_cores
from repro.sdp.spinning import SpinningCore, build_spinning_cores
from repro.sdp.system import DataPlaneSystem
from tests.oracles.cores import (
    ReferenceHyperPlaneCore,
    ReferenceMwaitCore,
    ReferenceSpinningCore,
    build_reference_hyperplane,
    build_reference_mwait_cores,
    build_reference_spinning_cores,
)

MECHANISMS = {
    "spinning": (build_spinning_cores, build_reference_spinning_cores),
    "mwait": (build_mwait_cores, build_reference_mwait_cores),
}
SHAPES = ("FB", "PC", "NC", "SQ")
QUEUE_COUNTS = (8, 64, 400)
ORGANISATIONS = ((1, 1), (4, 1), (4, 2), (4, 4))  # (num_cores, cluster_cores)
TRAFFIC = ("closed", 0.01, 0.5, 0.95)
OBSERVABILITY = ("none", "registry", "tracer")
# Tasks per run: the duration is sized so each core serves about this
# many at the offered load (closed loop: at saturation).
TASKS_PER_RUN = 300
# HyperPlane variants: (SDPConfig overrides, build_hyperplane kwargs).
# Stealing runs only where there is another cluster to steal from.
HYPERPLANE_VARIANTS = {
    "batch4": ({}, {"batch_size": 4}),
    "in-order": ({}, {"in_order": True}),
    "stealing": ({}, {"work_stealing": True}),
    "spurious": ({"spurious_wake_rate": 0.2}, {}),
    "power": ({"power_optimized": True}, {}),
}

_OTHER_RUN_FIELDS = tuple(
    field.name
    for field in dataclasses.fields(RunMetrics)
    if field.name not in ("latency", "activities")
)


def _observed_run(config, build, traffic, observability, excluded_gauges):
    """Build and run one standalone system under the given observers.

    Returns ``(system, built, metrics, registry snapshot, spans)``; the
    snapshot leaves out ``excluded_gauges``.
    """
    registry = MetricsRegistry(enabled=True) if observability == "registry" else None
    tracer = (
        Tracer(seed=config.seed, sample_rate=0.1) if observability == "tracer" else None
    )
    mean = config.workload.mean_service_seconds
    with active_registry(registry), active_tracer(tracer):
        system = DataPlaneSystem(config)
        built = build(system)
        if traffic == "closed":
            system.attach_closed_loop()
            rate = config.num_cores
        else:
            system.attach_open_loop(load=traffic)
            rate = traffic * config.num_cores
        metrics = system.run(duration=TASKS_PER_RUN * mean / rate, warmup=20 * mean)
        system.check_invariants()
    snapshot = None
    if registry is not None:
        snapshot = registry.as_dict()
        for name in excluded_gauges:
            del snapshot[name]
    spans = None
    if tracer is not None:
        tracer.finalize()
        spans = [span.to_dict() for span in tracer.spans]
    return system, built, metrics, snapshot, spans


def _common(system, metrics, snapshot, spans):
    return dict(
        latency=list(metrics.latency._samples),
        run=tuple(getattr(metrics, name) for name in _OTHER_RUN_FIELDS),
        activities=[dataclasses.astuple(a) for a in metrics.activities],
        queues=[dataclasses.astuple(queue.stats) for queue in system.queues],
        now=system.sim.now,
        pending=system.sim.pending,
        registry=snapshot,
        spans=spans,
    )


def _run(build, shape, num_queues, organisation, traffic, observability, seed):
    """One standalone scan-and-serve run; returns everything the contract covers."""
    num_cores, cluster_cores = organisation
    config = SDPConfig(
        num_queues=num_queues,
        shape=shape,
        num_cores=num_cores,
        cluster_cores=cluster_cores,
        seed=seed,
    )
    # Generator-process resumptions: the one metric the cores differ on.
    system, cores, metrics, snapshot, spans = _observed_run(
        config, build, traffic, observability, ("sim.process_wakes",)
    )
    return dict(
        _common(system, metrics, snapshot, spans),
        locks=[
            (c.lock.acquisitions, c.lock.contended_acquisitions, c.lock.last_owner)
            for c in system.clusters
        ],
        positions=[core.pos for core in cores],
        events=system.sim.events_dispatched,
    )


def _assert_grid_identical(mechanism, shape, num_queues, observabilities, seeds):
    build, build_reference = MECHANISMS[mechanism]
    for organisation, traffic, observability, seed in itertools.product(
        ORGANISATIONS, TRAFFIC, observabilities, seeds
    ):
        case = (organisation, traffic, observability, seed)
        args = (shape, num_queues, organisation, traffic, observability, seed)
        fast = _run(build, *args)
        reference = _run(build_reference, *args)
        assert fast["latency"], case
        for key, value in reference.items():
            assert fast[key] == value, (key, case)


@pytest.mark.parametrize("num_queues", QUEUE_COUNTS)
@pytest.mark.parametrize("shape", SHAPES)
def test_spinning_core_matches_reference(shape, num_queues):
    _assert_grid_identical("spinning", shape, num_queues, OBSERVABILITY, seeds=(7,))


@pytest.mark.parametrize("num_queues", QUEUE_COUNTS)
@pytest.mark.parametrize("shape", SHAPES)
def test_mwait_core_matches_reference(shape, num_queues):
    # MWAIT shares everything but the idle branch (arm, halt, wake-up),
    # which the observers do not touch: a second seed, moving every
    # park and wake instant, buys more than observing it again.
    _assert_grid_identical("mwait", shape, num_queues, ("none",), seeds=(7, 8))


def test_mwait_core_only_overrides_the_idle_branch():
    overridden = {
        name
        for name, value in vars(MwaitCore).items()
        if callable(value) and not name.startswith("__")
    }
    inherited = set(vars(SpinningCore))
    assert overridden & inherited == {"_idle"}


# -- HyperPlane ----------------------------------------------------------------


def _hyperplane_state(system, accelerator, cores):
    """Core, ready-set and monitoring-set state the fold rules must keep."""
    monitoring = accelerator.monitoring
    return dict(
        cores=[(core.spurious_filtered, core.steals, core.servicing) for core in cores],
        ready_sets=[
            (rs.activations, rs.selections, rs.ready_mask)
            for rs in accelerator.ready_sets.values()
        ],
        monitoring=(
            monitoring.snoop_hits,
            monitoring.snoop_misses,
            accelerator.spurious_injected,
        ),
    )


def _run_hyperplane(build, shape, num_queues, organisation, traffic, observability, variant):
    num_cores, cluster_cores = organisation
    overrides, kwargs = HYPERPLANE_VARIANTS.get(variant, ({}, {}))
    config = SDPConfig(
        num_queues=num_queues,
        shape=shape,
        num_cores=num_cores,
        cluster_cores=cluster_cores,
        seed=7,
        **overrides,
    )
    # Folds skip heap events, so the event gauges differ too.
    system, (accelerator, cores), metrics, snapshot, spans = _observed_run(
        config,
        lambda system: build(system, **kwargs),
        traffic,
        observability,
        ("sim.process_wakes", "sim.events_dispatched", "sim.events_total"),
    )
    accelerator.check_no_lost_wakeups(
        being_serviced={c.servicing for c in cores if c.servicing is not None}
    )
    return dict(
        _common(system, metrics, snapshot, spans),
        **_hyperplane_state(system, accelerator, cores),
        events=system.sim.events_dispatched,
    )


def _hyperplane_cases():
    for organisation, traffic in itertools.product(ORGANISATIONS, TRAFFIC):
        for observability in OBSERVABILITY:
            yield organisation, traffic, observability, "base"
        for variant in HYPERPLANE_VARIANTS:
            if variant == "stealing" and organisation[1] == organisation[0]:
                continue
            yield organisation, traffic, "none", variant


@pytest.mark.parametrize("num_queues", QUEUE_COUNTS)
@pytest.mark.parametrize("shape", SHAPES)
def test_hyperplane_core_matches_reference(shape, num_queues):
    for organisation, traffic, observability, variant in _hyperplane_cases():
        case = (organisation, traffic, observability, variant)
        args = (shape, num_queues, organisation, traffic, observability, variant)
        fast = _run_hyperplane(build_hyperplane, *args)
        reference = _run_hyperplane(build_reference_hyperplane, *args)
        assert fast["latency"], case
        assert fast.pop("events") <= reference.pop("events"), case
        for key, value in reference.items():
            assert fast[key] == value, (key, case)


@pytest.mark.parametrize(
    "organisation, traffic", [((1, 1), "closed"), ((4, 2), 0.5), ((2, 1), 0.95)]
)
def test_hyperplane_core_matches_reference_at_every_run_bound(organisation, traffic):
    # A bound every 37 ns, commensurate with no cycle cost: folds keep
    # meeting a run bound, and both cores must agree at each one.
    num_cores, cluster_cores = organisation
    config = SDPConfig(
        num_queues=16, shape="PC", num_cores=num_cores, cluster_cores=cluster_cores
    )
    sides = []
    for build in (build_hyperplane, build_reference_hyperplane):
        system = DataPlaneSystem(config)
        accelerator, cores = build(system)
        if traffic == "closed":
            system.attach_closed_loop()
        else:
            system.attach_open_loop(load=traffic)
        sides.append((system, accelerator, cores))
    for step in range(1, 6001):
        states = []
        for system, accelerator, cores in sides:
            system.sim.run(until=step * 37e-9)
            states.append(
                dict(
                    _hyperplane_state(system, accelerator, cores),
                    activities=[dataclasses.astuple(a) for a in system.metrics.activities],
                    latency=list(system.metrics.latency._samples),
                    queues=[len(queue) for queue in system.queues],
                    pending=system.sim.pending,
                )
            )
        assert states[0] == states[1], step
    assert sides[0][0].metrics.completed > 100
    assert sides[0][0].sim.events_dispatched < sides[1][0].sim.events_dispatched


def test_oracle_cores_are_generator_processes():
    config = SDPConfig(num_queues=8, num_cores=2, cluster_cores=1)
    for build, cls in (
        (build_reference_spinning_cores, ReferenceSpinningCore),
        (build_reference_mwait_cores, ReferenceMwaitCore),
        (lambda system: build_reference_hyperplane(system)[1], ReferenceHyperPlaneCore),
    ):
        cores = build(DataPlaneSystem(config))
        assert [type(core) for core in cores] == [cls, cls]
        assert all(core.process.alive for core in cores)
