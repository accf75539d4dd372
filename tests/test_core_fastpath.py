"""Differential fuzz: the callback spinning and MWAIT cores vs. the oracles.

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
"""

import dataclasses
import itertools

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import active_registry
from repro.obs.trace import Tracer, active_tracer
from repro.sdp.config import SDPConfig
from repro.sdp.metrics import RunMetrics
from repro.sdp.mwait import MwaitCore, build_mwait_cores
from repro.sdp.spinning import SpinningCore, build_spinning_cores
from repro.sdp.system import DataPlaneSystem
from tests.oracles.cores import (
    ReferenceMwaitCore,
    ReferenceSpinningCore,
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

_OTHER_RUN_FIELDS = tuple(
    field.name
    for field in dataclasses.fields(RunMetrics)
    if field.name not in ("latency", "activities")
)


def _run(build, shape, num_queues, organisation, traffic, observability, seed):
    """One standalone run; returns everything the contract covers."""
    num_cores, cluster_cores = organisation
    config = SDPConfig(
        num_queues=num_queues,
        shape=shape,
        num_cores=num_cores,
        cluster_cores=cluster_cores,
        seed=seed,
    )
    registry = MetricsRegistry(enabled=True) if observability == "registry" else None
    tracer = Tracer(seed=seed, sample_rate=0.1) if observability == "tracer" else None
    mean = config.workload.mean_service_seconds
    with active_registry(registry), active_tracer(tracer):
        system = DataPlaneSystem(config)
        cores = build(system)
        if traffic == "closed":
            system.attach_closed_loop()
            rate = num_cores
        else:
            system.attach_open_loop(load=traffic)
            rate = traffic * num_cores
        metrics = system.run(duration=TASKS_PER_RUN * mean / rate, warmup=20 * mean)
        system.check_invariants()
    snapshot = None
    if registry is not None:
        snapshot = registry.as_dict()
        # Generator-process resumptions: the one metric the cores differ on.
        del snapshot["sim.process_wakes"]
    spans = None
    if tracer is not None:
        tracer.finalize()
        spans = [span.to_dict() for span in tracer.spans]
    return dict(
        latency=list(metrics.latency._samples),
        run=tuple(getattr(metrics, name) for name in _OTHER_RUN_FIELDS),
        activities=[dataclasses.astuple(a) for a in metrics.activities],
        queues=[dataclasses.astuple(queue.stats) for queue in system.queues],
        locks=[
            (c.lock.acquisitions, c.lock.contended_acquisitions, c.lock.last_owner)
            for c in system.clusters
        ],
        positions=[core.pos for core in cores],
        events=system.sim.events_dispatched,
        now=system.sim.now,
        pending=system.sim.pending,
        registry=snapshot,
        spans=spans,
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


def test_oracle_cores_are_generator_processes():
    config = SDPConfig(num_queues=8, num_cores=2, cluster_cores=1)
    for build, cls in (
        (build_reference_spinning_cores, ReferenceSpinningCore),
        (build_reference_mwait_cores, ReferenceMwaitCore),
    ):
        cores = build(DataPlaneSystem(config))
        assert [type(core) for core in cores] == [cls, cls]
        assert all(core.process.alive for core in cores)
