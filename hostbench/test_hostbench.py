"""Self-tests of the benchmark's own code.

    python3 -m pytest hostbench -q
"""

import importlib
import json
import math
import re
from pathlib import Path

import pytest

from hostbench import boundaries, run, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def test_benchmark_json_follows_the_benchmark_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(SPEC["command"]) <= 32 and all(len(arg) <= 200 for arg in SPEC["command"])
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"] + SPEC["command"][1:]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    names = [item["name"] for key in ("workloads", "end_to_end", "per_layer") for item in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_emitted_metric_names_are_the_declared_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    emitted = list(boundaries.layer_metrics([], [], {"misses": 0, "hits": 0}))
    assert emitted + ["bench.trace_overhead"] == [m["name"] for m in SPEC["per_layer"]]


def _record(key, value):
    record = workloads.new_record(key)
    record["digest"] = workloads.digest(value)
    return record


def test_digest_check_fails_on_a_perturbed_output():
    fingerprint = (22284, 1.2345678901234567e-05, 3.1e-05, 4, (1, 2))
    perturbed = (22284, math.nextafter(fingerprint[1], 1.0)) + fingerprint[2:]
    assert workloads.digest(perturbed) != workloads.digest(fingerprint)

    good, bad = _record("hp-rss", fingerprint), _record("hp-rss", perturbed)
    committed = {"hp-rss": good["digest"]}
    assert run.check_runs([{"records": [good]}], committed, {}) == (1, 0, [])
    assert run.check_runs([{"records": [bad]}], committed, {})[1] == 1
    # Without committed digests, a repetition that disagrees with the
    # first one fails, and so does a mismatch against a reference.
    assert run.check_runs([{"records": [good]}, {"records": [bad]}], None, {})[1] == 1
    assert run.check_runs([{"records": [good]}], None, {"hp-rss": bad["digest"]})[1] == 1
    # A committed run that never reported is a failed run too.
    assert run.check_runs([{"records": []}], committed, {})[:2] == (1, 1)


@pytest.fixture
def shrunken(monkeypatch):
    """The workloads' mix at a size that runs in seconds."""
    for name, value in (
        ("RACK_SERVERS", 2),
        ("RACK_QUEUES", 16),
        ("RACK_FLOWS", 8),
        ("RACK_WARMUP_S", 0.0002),
        ("RACK_DURATION_S", 0.0008),
        ("REPLAY_WARMUP_S", 0.001),
        ("REPLAY_DURATION_S", 0.01),
    ):
        monkeypatch.setattr(workloads, name, value)


def _boundary_targets():
    targets = {}
    for _name, module_name, attribute in boundaries.BOUNDARIES:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        targets[(module_name, attribute)] = vars(owner)[leaf]
    return targets


def _repetition(name, trace_path, traced):
    from repro.mem.costmodel import clear_curve_cache
    from repro.sdp.locality import clear_shared_curves

    clear_curve_cache()
    clear_shared_curves()
    workload = workloads.make(name, 3, trace_path)
    tracer = boundaries.BoundaryTracer(workload.current_run).install() if traced else None
    workload.setup()
    try:
        workload.run()
    finally:
        if tracer is not None:
            tracer.restore()
    return workload, tracer


@pytest.mark.parametrize("name", ["rack", "observed", "replay"])
def test_traced_and_untraced_digests_match(shrunken, tmp_path, name):
    trace = tmp_path / "trace.jsonl"
    workloads.write_replay_trace(str(trace), 3)
    originals = _boundary_targets()

    plain, _ = _repetition(name, str(trace), traced=False)
    traced, tracer = _repetition(name, str(trace), traced=True)

    assert _boundary_targets() == originals
    keys = [(r["key"], r["digest"]) for r in plain.records]
    assert all(digest for _key, digest in keys)
    assert keys == [(r["key"], r["digest"]) for r in traced.records]
    layers = boundaries.layer_metrics(tracer.spans, traced.records, {"misses": 0, "hits": 0})
    busy = {"rack": "cluster.run_s", "observed": "obs.instrument_s", "replay": "dist.exchanges"}
    assert layers[busy[name]] > 0
