"""Guards for the simulation-core fast paths.

Three optimisations trade event count or repeated derivation work for
speed while promising *identical results*; these tests hold them to it:

- the cost-curve memo (:mod:`repro.mem.costmodel`) must return the same
  curve and replay the same ``mem.*`` metrics as a fresh derivation;
- structural spin batching (:mod:`repro.structural.spinning`) must be
  bit-identical to the per-poll-event loop it replaces;
- the perf gate table (``benchmarks/perf/gates.py``) must actually gate.
"""

import json

import pytest

from repro.mem.costmodel import (
    clear_curve_cache,
    curve_cache_info,
    empty_poll_cost_curve,
)
from repro.mem.hierarchy import MemConfig
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import active_registry


@pytest.fixture(autouse=True)
def _fresh_curve_cache():
    clear_curve_cache()
    yield
    clear_curve_cache()


def _mem_series(registry):
    return sorted(
        (record["name"], record["value"])
        for record in registry.collect()
        if record["name"].startswith("mem.") and record["type"] == "counter"
    )


# -- cost-curve memo ---------------------------------------------------------


def test_curve_cache_hit_returns_equal_curve():
    counts = (1, 4, 16, 64)
    cfg = MemConfig(num_cores=1)
    first = empty_poll_cost_curve(counts, cfg, 0.8)
    second = empty_poll_cost_curve(counts, cfg, 0.8)
    assert first == second
    assert second is not first  # callers get a private copy
    info = curve_cache_info()
    assert info["hits"] == 1 and info["misses"] == 1


def test_curve_cache_distinguishes_inputs():
    # Different resident fractions are distinct cache entries, never a
    # false hit — even when the resulting curves happen to coincide.
    empty_poll_cost_curve((1, 4), llc_doorbell_resident_fraction=1.0)
    empty_poll_cost_curve((1, 4), llc_doorbell_resident_fraction=0.5)
    info = curve_cache_info()
    assert info["misses"] == 2 and info["entries"] == 2 and info["hits"] == 0


def test_curve_cache_hit_replays_identical_metrics():
    counts = (1, 8, 64, 512)
    miss_registry = MetricsRegistry(enabled=True)
    with active_registry(miss_registry):
        derived = empty_poll_cost_curve(counts, llc_doorbell_resident_fraction=0.9)
    hit_registry = MetricsRegistry(enabled=True)
    with active_registry(hit_registry):
        cached = empty_poll_cost_curve(counts, llc_doorbell_resident_fraction=0.9)
    assert cached == derived
    assert curve_cache_info()["hits"] == 1
    miss_series = _mem_series(miss_registry)
    assert miss_series == _mem_series(hit_registry)
    assert any(name == "mem.l1.hits" and value > 0 for name, value in miss_series)
    # The hit-rate gauges the CI metrics smoke asserts on exist either way.
    assert hit_registry.get("mem.l1.hit_rate").read() > 0


def test_system_build_uses_curve_cache():
    from repro.sdp import locality
    from repro.sdp.config import SDPConfig
    from repro.sdp.system import DataPlaneSystem

    locality.clear_shared_curves()
    DataPlaneSystem(SDPConfig(num_queues=64, seed=1))
    misses = curve_cache_info()["misses"]
    assert misses > 0
    DataPlaneSystem(SDPConfig(num_queues=64, seed=2))  # same geometry, new seed
    info = curve_cache_info()
    # The second build derives nothing new: the fleet-interned curves
    # (repro.sdp.locality._SHARED_CURVES) satisfy it before the
    # derivation layer is even consulted.
    assert info["misses"] == misses
    assert locality._SHARED_CURVES


def test_rejected_curve_call_derives_nothing():
    # Validation runs before any derivation, so a bad count late in the
    # list neither records a memo miss nor folds mem.* counters.
    registry = MetricsRegistry(enabled=True)
    rejected = (
        {"queue_counts": [4, 0]},
        {"queue_counts": [4, -2], "llc_doorbell_resident_fraction": 0.5},
        {"queue_counts": [4], "llc_doorbell_resident_fraction": 1.5},
        {"queue_counts": [4], "measure_rounds": 0},
        {"queue_counts": [4], "warmup_rounds": -1},
    )
    with active_registry(registry):
        for kwargs in rejected:
            with pytest.raises(ValueError):
                empty_poll_cost_curve(**kwargs)
    assert curve_cache_info() == {"entries": 0, "hits": 0, "misses": 0}
    assert registry.collect() == []


def test_curve_cache_switch_reaches_locality_intern(monkeypatch):
    from repro.mem.costmodel import derive_cost_model
    from repro.sdp import locality

    derivations = []
    derive = locality.empty_poll_cost_curve

    def counting(*args, **kwargs):
        derivations.append(args[0])
        return derive(*args, **kwargs)

    monkeypatch.setattr(locality, "empty_poll_cost_curve", counting)

    def build_two_models():
        locality.clear_shared_curves()
        derivations.clear()
        for _ in range(2):
            locality.LocalityModel(derive_cost_model()).empty_poll_cost(64)
        return len(derivations)

    assert build_two_models() == 1  # the second model reuses the interned curve
    assert locality._SHARED_CURVES
    locality.clear_shared_curves()


# -- cold derivation ---------------------------------------------------------


def test_hierarchy_state_tracks_residency_not_counters():
    from repro.mem.hierarchy import MemoryHierarchy

    hierarchy = MemoryHierarchy(MemConfig(num_cores=2))
    cold = hierarchy.state()
    hierarchy.read(0, 0x1000)
    warm = hierarchy.state()
    assert warm != cold  # a detached copy, not a view
    hierarchy.read(0, 0x1000)  # an MRU hit moves counters only
    assert hierarchy.state() == warm
    hierarchy.write(1, 0x1000)  # ownership moves to core 1
    assert hierarchy.state() != warm


def _count_rounds(monkeypatch, drift=False):
    """Derive a curve, returning how many polling rounds actually ran.

    With ``drift``, every round also reads one line never read before,
    so the hierarchy's state never repeats.
    """
    from repro.mem.hierarchy import MemoryHierarchy

    rounds = []
    stream = MemoryHierarchy.access_stream
    fresh = iter(range(0x2000_0000, 0x3000_0000, 64))

    def counting(self, core, addrs, *args, **kwargs):
        rounds.append(len(addrs))
        results = stream(self, core, addrs, *args, **kwargs)
        if drift:
            self.read(core, next(fresh))
        return results

    monkeypatch.setattr(MemoryHierarchy, "access_stream", counting)
    clear_curve_cache()
    empty_poll_cost_curve((16, 256, 1024), warmup_rounds=2, measure_rounds=3)
    monkeypatch.undo()
    return rounds


def test_curve_rounds_stop_at_a_proven_fixed_point(monkeypatch):
    # A cyclic LRU scan ends its second round in the state its first
    # left, so the other three of the five rounds are replayed, not run.
    assert _count_rounds(monkeypatch) == [16, 16, 256, 256, 1024, 1024]
    # A state that never repeats runs every round.
    assert _count_rounds(monkeypatch, drift=True) == [16] * 5 + [256] * 5 + [1024] * 5


# -- structural spin batching ------------------------------------------------


def _run_structural(max_batch, consumers=1, producers=1, false_sharing=False, seed=5):
    import repro.structural.spinning as spinning
    from repro.structural.machine import StructuralMachine
    from repro.structural.spinning import StructuralSpinningCore

    original = spinning.MAX_BATCH_POLLS
    spinning.MAX_BATCH_POLLS = max_batch
    try:
        machine = StructuralMachine(
            num_queues=8,
            num_producers=producers,
            num_consumers=consumers,
            seed=seed,
            shape="FB",
            false_sharing=false_sharing,
        )
        cores = [StructuralSpinningCore(machine, i) for i in range(consumers)]
        machine.start_producers(total_rate=1e5, max_items=120)
        metrics = machine.run(duration=0.05, target_completions=120)
    finally:
        spinning.MAX_BATCH_POLLS = original
    return {
        "now": machine.sim.now,
        "completed": metrics.completed,
        "latency_count": metrics.latency.count,
        "latency_mean": metrics.latency.mean,
        "latency_p99": metrics.latency.p99,
        "measure_end": metrics.measure_end,
        "polls": tuple(core.polls for core in cores),
        "activities": tuple(
            (a.busy_cycles, a.useless_instructions, a.useful_instructions, a.tasks)
            for a in metrics.activities
        ),
        "l1_hits": sum(l1.stats.hits for l1 in machine.hierarchy.l1s),
        "l1_misses": sum(l1.stats.misses for l1 in machine.hierarchy.l1s),
        "llc_hits": machine.hierarchy.llc.stats.hits,
        "llc_misses": machine.hierarchy.llc.stats.misses,
        "coherence": tuple(
            sorted(
                (kind.name, count)
                for kind, count in machine.hierarchy.directory.transactions.items()
            )
        ),
        "events": machine.sim.events_dispatched,
    }


def test_spin_batching_bit_identical_to_per_poll():
    # MAX_BATCH_POLLS=1 is the per-poll-event reference behaviour.
    reference = _run_structural(max_batch=1)
    batched = _run_structural(max_batch=4096)
    events_ref = reference.pop("events")
    events_batched = batched.pop("events")
    assert batched == reference
    # ... and the batching actually collapsed events.
    assert events_batched < events_ref / 10


def test_spin_batching_bit_identical_with_contending_consumers():
    reference = _run_structural(
        max_batch=1, consumers=2, producers=2, false_sharing=True, seed=11
    )
    batched = _run_structural(
        max_batch=4096, consumers=2, producers=2, false_sharing=True, seed=11
    )
    reference.pop("events")
    batched.pop("events")
    assert batched == reference


# -- perf gate table (benchmarks/perf/gates.py) -----------------------------


def test_bench_quick_report_shape(tmp_path):
    from benchmarks.perf.gates import format_report, run_bench

    report = run_bench(quick=True, scenario_ids=["structural_spin16", "structural_hp16"])
    assert report["mode"] == "quick"
    assert set(report["scenarios"]) == {"structural_spin16", "structural_hp16"}
    for measured in report["scenarios"].values():
        assert measured["wall_seconds"] > 0
        assert measured["events"] > 0
        assert measured["events_per_sec"] > 0
    json.dumps(report)  # JSON-serialisable as written by --out
    assert "structural_hp16" in format_report(report)


def test_bench_unknown_scenario_rejected():
    from benchmarks.perf.gates import run_bench

    with pytest.raises(ValueError):
        run_bench(quick=True, scenario_ids=["no_such_scenario"])


def _clean_reports():
    """A measured report and committed baselines passing every floor."""
    from benchmarks.perf.gates import GATES

    def report(scenarios):
        return {"schema": 1, "mode": "quick", "scenarios": scenarios}

    measured, baselines = {}, {}
    for sid, gate in GATES.items():
        fields = {name: 2 * minimum for name, minimum in gate.measured.items()}
        fields.update({name: 1 for name in gate.nonzero}, bit_exact=True)
        measured[sid] = dict(fields, wall_seconds=1.0, events=1000, events_per_sec=1000.0)
        if gate.baseline:
            committed = {name: 2 * minimum for name, minimum in gate.committed.items()}
            committed.update(bit_exact=True, events_per_sec=1000.0)
            baselines.setdefault(gate.baseline, report({}))["scenarios"][sid] = committed
    return report(measured), baselines


def test_compare_reports_flags_regressions_only():
    from benchmarks.perf.gates import check

    current, baselines = _clean_reports()
    assert check(current, baselines) == []
    scenarios = current["scenarios"]
    scenarios["structural_spin16"]["events_per_sec"] = 800.0  # -20%: inside the 25% tolerance
    scenarios["structural_hp16"]["events_per_sec"] = 700.0  # -30%: fails
    scenarios["vec_fig8_grid"]["events_per_sec"] = 600.0  # -40%: inside vec's 50%
    failures = check(current, baselines)
    assert len(failures) == 1 and failures[0].startswith("structural_hp16: measured events_per_sec")


def test_compare_reports_refuses_cross_mode():
    from benchmarks.perf.gates import check

    current, baselines = _clean_reports()
    current["mode"] = "full"
    with pytest.raises(ValueError, match="mode"):
        check(current, baselines)


@pytest.mark.parametrize(
    "side, sid, name, value",
    [
        ("measured", "cluster_grid_row", "events_per_sec", 100.0),
        ("committed", "dist_replay_8w", "speedup_vs_lockstep", 2.9),
        ("measured", "cluster_spin16", "speedup_vs_reference", 1.4),
        ("committed", "cluster_grid_row", "bit_exact", False),
        ("measured", "telemetry_overhead", "bit_exact", False),
        ("measured", "sdp_trace_overhead", "traced_spans", 0),
        ("measured", "telemetry_overhead", "telemetry_frames", 0),
    ],
    ids=["rate", "committed-ratio", "measured-ratio", "committed-bit_exact",
         "measured-bit_exact", "zero-spans", "zero-frames"],
)
def test_gate_table_check_names_scenario_and_field(side, sid, name, value):
    from benchmarks.perf.gates import GATES, check

    current, baselines = _clean_reports()
    if side == "measured":
        current["scenarios"][sid][name] = value
    else:
        baselines[GATES[sid].baseline]["scenarios"][sid][name] = value
    failures = check(current, baselines)
    assert len(failures) == 1, failures
    assert failures[0].startswith(f"{sid}: {side} {name} ")


def test_committed_baselines_match_schema():
    from benchmarks.perf.gates import BENCH_SCHEMA_VERSION, GATES, check, load_baselines

    with open("benchmarks/perf/BENCH_engine.json") as handle:
        full = json.load(handle)
    assert full["schema"] == BENCH_SCHEMA_VERSION and full["mode"] == "full"
    # The committed before/after record must show the headline speedup.
    assert full["speedup_vs_before"]["fig8_shapes_1000"] >= 3.0
    baselines = load_baselines()
    for name, report in baselines.items():
        assert report["schema"] == BENCH_SCHEMA_VERSION, name
        assert report["mode"] == "quick", name
    # Every gated scenario has a committed rate, and every committed floor
    # holds for the committed files themselves.
    committed = {
        "mode": "quick",
        "scenarios": {
            sid: baselines[gate.baseline]["scenarios"][sid]
            for sid, gate in GATES.items()
            if gate.baseline
        },
    }
    assert not [line for line in check(committed, baselines) if ": committed " in line]


# -- instrumented experiments stay parallel ----------------------------------


def test_run_experiment_metrics_identical_across_worker_counts(monkeypatch):
    from repro.experiments.registry import run_experiment

    def signature(processes):
        monkeypatch.setenv("REPRO_PROCESSES", str(processes))
        registry = MetricsRegistry(enabled=True)
        result = run_experiment("fig9a", fast=True, seed=0, metrics=registry)
        series = sorted(
            (record["name"], record["value"])
            for record in registry.collect()
            if record["type"] == "counter"
        )
        return result.rows, series

    rows_serial, counters_serial = signature(1)
    rows_parallel, counters_parallel = signature(3)
    assert rows_serial == rows_parallel
    assert counters_serial == counters_parallel
    assert any(name == "sim.events_total" for name, _ in counters_serial)
