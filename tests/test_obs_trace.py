"""Causal span tracing: observation-only probes, bit-exact attribution.

The two contracts everything else rests on:

1. A traced run's *simulated* results are bit-identical to an untraced
   run — probes observe, they never schedule. Checked against the fast
   model (all four notification mechanisms), the execution-driven
   structural model (spin fast-forward batching active), and the rack
   simulation.
2. Every request span's cycle breakdown sums *bit-exactly* (fixed
   category order) to the span's duration in cycles.
"""

import pytest

from repro.obs.trace import (
    CATEGORIES,
    NULL_TRACER,
    Span,
    Tracer,
    active_tracer,
    attribute_residual,
    breakdown_sum,
    get_active_tracer,
    set_active_tracer,
)
from repro.obs.trace_report import decomposition_rows, sum_problems
from repro.sdp.config import SDPConfig
from repro.sdp.runner import run_interrupts, run_mwait, run_spinning
from repro.sdp.system import DataPlaneSystem


def latency_fingerprint(metrics):
    """The simulated-result fields a probe could plausibly perturb."""
    return (
        metrics.latency.count,
        metrics.latency.mean_us,
        metrics.latency.p99_us,
        metrics.throughput_mtps,
    )


# -- attribution arithmetic ---------------------------------------------------


def test_attribute_residual_is_bit_exact():
    # Values chosen so naive float summation does not telescope.
    cases = [
        (1234.5678, {"notify_wait": 0.1, "queueing": 0.2, "service": 1000.1}),
        (3.0e9 * 1.7e-6, {"notify_wait": 1e-9, "service": 5099.999999}),
        (7.0, {}),
        (0.0, {}),
        (1e18, {"queueing": 1.0, "coherence": 3.0}),
    ]
    for total, partial in cases:
        closed = attribute_residual(total, partial)
        assert breakdown_sum(closed) == total  # bit-exact, not approx
        for category, value in partial.items():
            assert closed[category] == value


def test_attribute_cycles_rejects_unknown_categories():
    span = Span(trace_id=0, span_id=0, name="request", start=0.0)
    with pytest.raises(ValueError, match="unknown cycle categories"):
        span.attribute_cycles(100.0, waiting=5.0)
    breakdown = span.attribute_cycles(100.0, service=40.0)
    assert breakdown_sum(breakdown) == 100.0
    assert set(breakdown) == set(CATEGORIES)


def test_span_dict_roundtrip_preserves_everything():
    span = Span(trace_id=3, span_id=7, name="request", start=1.5e-6, parent_id=2)
    span.end = 2.5e-6
    span.set_attribute("item_id", 42)
    span.add_event(1.6e-6, "doorbell_ready", qid=5)
    span.attribute_cycles(3000.0, service=2000.0)
    restored = Span.from_dict(span.to_dict())
    assert restored.to_dict() == span.to_dict()
    assert restored.duration == span.duration
    assert restored.events == span.events


# -- tracer mechanics ---------------------------------------------------------


def test_tracer_span_tree_and_queries():
    tracer = Tracer(seed=0)
    root = tracer.begin("request", 0.0, item_id=1)
    child = tracer.begin("queue.wait", 0.1, parent=root)
    tracer.end(child, 0.4)
    tracer.end(root, 1.0)
    assert len(tracer) == 2
    assert tracer.roots() == [root]
    assert tracer.children(root) == [child]
    assert child.trace_id == root.trace_id
    assert tracer.trace(root.trace_id) == [child, root]


def test_tracer_span_cap_drops_and_counts():
    tracer = Tracer(seed=0, max_spans=3)
    for i in range(5):
        tracer.end(tracer.begin("request", float(i)), float(i) + 0.5)
    assert len(tracer.spans) == 3
    assert tracer.dropped_traces == 2


def test_record_requires_ended_span():
    tracer = Tracer(seed=0)
    open_span = tracer.begin("request", 0.0)
    with pytest.raises(ValueError, match="must be ended"):
        tracer.record(open_span)


def test_finalizers_drain_once_but_finalize_is_repeatable():
    tracer = Tracer(seed=0)
    calls = []
    tracer.add_finalizer(lambda: calls.append("a"))
    tracer.finalize()
    tracer.finalize()
    assert calls == ["a"]
    tracer.add_finalizer(lambda: calls.append("b"))
    tracer.finalize()
    assert calls == ["a", "b"]


def test_sampling_is_deterministic_and_rate_sensitive():
    tracer = Tracer(seed=11, sample_rate=0.5)
    decisions = [tracer.sampled(f"item:{i}") for i in range(400)]
    # Same seed, same keys -> same decisions, in any order.
    again = Tracer(seed=11, sample_rate=0.5)
    assert [again.sampled(f"item:{i}") for i in reversed(range(400))] == list(
        reversed(decisions)
    )
    kept = sum(decisions)
    assert 120 < kept < 280  # ~50%, loose bounds
    assert any(decisions) and not all(decisions)
    # A different seed samples a different subset.
    other = Tracer(seed=12, sample_rate=0.5)
    assert [other.sampled(f"item:{i}") for i in range(400)] != decisions
    # Rate extremes short-circuit.
    assert Tracer(seed=0, sample_rate=1.0).sampled("x")
    assert not Tracer(seed=0, sample_rate=0.0).sampled("x")


def test_tracer_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Tracer(sample_rate=1.5)
    with pytest.raises(ValueError):
        Tracer(max_spans=0)


# -- ambient context ----------------------------------------------------------


def test_active_tracer_scoping_and_disabled_tracers():
    assert get_active_tracer() is None
    tracer = Tracer(seed=0)
    with active_tracer(tracer):
        assert get_active_tracer() is tracer
        with active_tracer(None):
            assert get_active_tracer() is None
        assert get_active_tracer() is tracer
    assert get_active_tracer() is None
    # A disabled tracer is never handed to components.
    with active_tracer(NULL_TRACER):
        assert get_active_tracer() is None


def test_set_active_tracer_returns_previous():
    tracer = Tracer(seed=0)
    assert set_active_tracer(tracer) is None
    try:
        assert set_active_tracer(None) is tracer
    finally:
        set_active_tracer(None)


def test_null_tracer_is_inert():
    span = NULL_TRACER.begin("request", 0.0)
    assert NULL_TRACER.begin("other", 1.0) is span  # shared, no alloc
    NULL_TRACER.end(span, 2.0)
    NULL_TRACER.add_finalizer(lambda: (_ for _ in ()).throw(AssertionError))
    NULL_TRACER.finalize()
    assert NULL_TRACER.spans == []
    assert not NULL_TRACER.sampled("anything")


def test_untraced_system_installs_no_probes():
    system = DataPlaneSystem(SDPConfig(num_queues=16, seed=0))
    assert system._trace_probe is None
    assert system.doorbell_write_hooks == []
    assert system.on_dequeue_hooks == []
    assert system.completion_hooks == []


# -- traced == untraced, fast model -------------------------------------------

CONFIG = SDPConfig(num_queues=64, seed=3)
RUN_KWARGS = dict(load=0.3, target_completions=400, max_seconds=2.0)


@pytest.mark.parametrize(
    "runner", [run_spinning, run_mwait, run_interrupts], ids=lambda r: r.__name__
)
def test_traced_run_bit_identical_and_exact_all_mechanisms(runner):
    baseline = latency_fingerprint(runner(CONFIG, **RUN_KWARGS))
    tracer = Tracer(seed=3)
    with active_tracer(tracer):
        traced = runner(CONFIG, **RUN_KWARGS)
    tracer.finalize()
    assert latency_fingerprint(traced) == baseline
    roots = tracer.roots()
    # Probes see every completion, including warmup ones the latency
    # recorder excludes.
    assert len(roots) >= traced.latency.count
    assert sum_problems(tracer) == []  # every breakdown bit-exact
    for root in roots[:20]:
        assert root.attributes["mechanism"] == traced.label
        names = sorted(child.name for child in tracer.children(root))
        assert names == ["queue.wait", "service"]
        assert root.cycles is not None


def test_traced_hyperplane_bit_identical_and_exact():
    from repro.core.runner import run_hyperplane

    baseline = latency_fingerprint(run_hyperplane(CONFIG, **RUN_KWARGS))
    tracer = Tracer(seed=3)
    with active_tracer(tracer):
        traced = run_hyperplane(CONFIG, **RUN_KWARGS)
    tracer.finalize()
    assert latency_fingerprint(traced) == baseline
    assert len(tracer.roots()) >= traced.latency.count
    assert sum_problems(tracer) == []
    assert tracer.roots()[0].attributes["mechanism"] == traced.label


def test_hand_composed_system_feeds_every_completion_subscriber():
    # docs/api.md "Composing a system by hand", as written: the system is
    # built inside the tracer scope (probes attach only at build time),
    # so its span probe subscribes first, then the tenant and TX sides.
    from repro.core.dataplane import build_hyperplane
    from repro.sdp import attach_tenant_side, attach_tx_side
    from repro.traffic.bursty import attach_bursty_traffic

    with active_tracer(Tracer(seed=0, sample_rate=0.1)) as tracer:
        system = DataPlaneSystem(SDPConfig(num_queues=64, seed=0))
        tenants = attach_tenant_side(system, 4)
        tx = attach_tx_side(system, num_devices=2)
        accelerator, cores = build_hyperplane(system)
        attach_bursty_traffic(system, load=0.6, burstiness=8.0)
        subscribers = [
            system._trace_probe.on_complete,
            tenants._on_complete,
            tx._on_complete,
        ]
        assert system.completion_hooks == subscribers
        seen = []

        def recording(index, hook):
            def record(item):
                seen.append((index, item.item_id))
                hook(item)

            return record

        system.completion_hooks[:] = [
            recording(index, hook) for index, hook in enumerate(subscribers)
        ]
        system.run(duration=0.01, warmup=0.002)
    tracer.finalize()

    assert tracer.roots()
    assert sum_problems(tracer) == []
    completed = system.metrics.completed
    assert completed > 0 and len(seen) == 3 * completed
    for start in range(0, len(seen), 3):
        (first, item), (second, same), (third, again) = seen[start:start + 3]
        assert (first, second, third) == (0, 1, 2)
        assert item == same == again
    assert tenants.delivered > 0 and tx.transmitted > 0
    accelerator.check_no_lost_wakeups()


def test_sampled_tracing_keeps_results_identical_and_subset_stable():
    baseline = latency_fingerprint(run_spinning(CONFIG, **RUN_KWARGS))

    def traced_items(seed):
        tracer = Tracer(seed=seed, sample_rate=0.3)
        with active_tracer(tracer):
            traced = run_spinning(CONFIG, **RUN_KWARGS)
        tracer.finalize()
        assert latency_fingerprint(traced) == baseline
        assert sum_problems(tracer) == []
        return {root.attributes["item_id"] for root in tracer.roots()}

    first = traced_items(21)
    assert 0 < len(first) < 400  # a strict subset was kept
    assert traced_items(21) == first  # deterministically the same subset
    assert traced_items(22) != first


# -- traced == untraced, structural model (spin fast-forward) -----------------


def _run_structural(tracer=None):
    from repro.structural.machine import StructuralMachine
    from repro.structural.spinning import StructuralSpinningCore

    def build():
        machine = StructuralMachine(
            num_queues=8, num_producers=1, num_consumers=1, seed=7
        )
        core = StructuralSpinningCore(machine)
        return machine, core

    if tracer is not None:
        with active_tracer(tracer):
            machine, core = build()
    else:
        machine, core = build()
    machine.start_producers(total_rate=100_000.0, max_items=40)
    metrics = machine.run(duration=0.05, target_completions=40)
    return machine, core, metrics


def test_traced_structural_bit_identical_under_fast_forward():
    machine, core, metrics = _run_structural()
    baseline = (
        latency_fingerprint(metrics),
        core.polls,
        machine.sim.events_dispatched,
    )
    tracer = Tracer(seed=7)
    machine, core, traced = _run_structural(tracer=tracer)
    tracer.finalize()
    assert (
        latency_fingerprint(traced),
        core.polls,
        machine.sim.events_dispatched,
    ) == baseline
    roots = tracer.roots()
    assert len(roots) >= traced.latency.count
    assert sum_problems(tracer) == []
    # Structural coherence is *measured* per dequeue, not a constant.
    assert any(root.cycles["coherence"] > 0 for root in roots)


# -- traced == untraced, rack scale -------------------------------------------


def _run_rack(tracer=None):
    from repro.cluster import ClusterConfig, run_cluster

    config = ClusterConfig(
        num_servers=2,
        notification="spinning",
        queues_per_server=64,
        num_flows=8,
        seed=5,
    )
    kwargs = dict(load=0.3, duration=0.02, warmup=0.004, target_completions=300)
    if tracer is not None:
        with active_tracer(tracer):
            return run_cluster(config, **kwargs)
    return run_cluster(config, **kwargs)


def test_traced_rack_bit_identical_with_causal_links():
    baseline = _run_rack().metrics.summary()
    tracer = Tracer(seed=5)
    rack = _run_rack(tracer=tracer)
    tracer.finalize()
    assert rack.metrics.summary() == baseline
    assert sum_problems(tracer) == []

    rpcs = [span for span in tracer.roots() if span.name == "rpc"]
    assert rpcs
    linked = requests = 0
    for rpc in rpcs[:50]:
        kinds = [child.name for child in tracer.children(rpc)]
        linked += kinds.count("dispatch.link")
        requests += kinds.count("request")
        assert rpc.attributes["mechanism"] == "cluster/spinning"
    assert linked > 0 and requests > 0
    # Server-side request trees still carry queue.wait/service children.
    request = next(
        span for span in tracer.spans
        if span.name == "request" and span.parent_id is not None
    )
    names = sorted(child.name for child in tracer.children(request))
    assert names == ["queue.wait", "service"]


def test_traced_rack_closes_rejected_rpcs():
    # Four-slot rings at load 0.9 reject requests: the delivery hook
    # closes each rejected rpc at its link arrival, with the link span.
    from repro.cluster import ClusterConfig, run_cluster

    config = ClusterConfig(
        num_servers=3,
        notification="spinning",
        queues_per_server=4,
        queue_capacity=4,
        num_flows=16,
        seed=4,
    )
    kwargs = dict(load=0.9, duration=0.004, warmup=0.0005)
    baseline = run_cluster(config, **kwargs).metrics.summary()
    tracer = Tracer(seed=2, sample_rate=0.5)
    with active_tracer(tracer):
        rack = run_cluster(config, **kwargs)
    tracer.finalize()
    assert rack.metrics.summary() == baseline
    assert rack.metrics.rejected > 0
    rejected = [span for span in tracer.roots() if span.attributes.get("rejected")]
    assert rejected
    for rpc in rejected:
        links = tracer.children(rpc)
        assert [link.name for link in links] == ["dispatch.link"]
        assert links[0].end == rpc.end


# -- decomposition report -----------------------------------------------------


def test_decomposition_rows_shares_sum_to_one():
    tracer = Tracer(seed=3)
    with active_tracer(tracer):
        run_spinning(CONFIG, **RUN_KWARGS)
    tracer.finalize()
    rows = decomposition_rows(tracer)
    assert [row["mechanism"] for row in rows] == ["spinning/scale-out"]
    row = rows[0]
    assert row["requests"] == len(tracer.roots())
    shares = sum(row[f"{category}_share"] for category in CATEGORIES)
    assert shares == pytest.approx(1.0)
    assert row["mean_us"] == pytest.approx(
        sum(row[f"{category}_us"] for category in CATEGORIES)
    )


# -- experiment wiring --------------------------------------------------------


def test_run_with_tracing_appends_breakdown_notes():
    from dataclasses import dataclass

    from repro.experiments.base import ExperimentConfig, ExperimentResult, run_with_tracing

    @dataclass(frozen=True)
    class TracedConfig(ExperimentConfig):
        trace: bool = True

    def body():
        run_spinning(CONFIG, **RUN_KWARGS)
        return ExperimentResult("tiny", "tiny traced run")

    result = run_with_tracing(TracedConfig(seed=3), body)
    assert any(note.startswith("trace[spinning/scale-out]") for note in result.notes)
    assert get_active_tracer() is None  # scope did not leak

    untraced = run_with_tracing(TracedConfig(seed=3, trace=False), body)
    assert untraced.notes == []
