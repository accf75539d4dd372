"""Live telemetry: snapshot deltas, samplers, the bus, sinks, recorder.

The contract under test (docs/live-telemetry.md):

- ``snapshot_delta`` produces a valid snapshot that, merged onto the
  previous state, reproduces the current state — for all four
  instrument kinds — and omits unchanged instruments;
- ``TelemetrySampler`` emits keyframe-first incremental frames on a
  simulated-time cadence, buffers events, and prices to nothing when
  disabled;
- ``TelemetryBus`` folds frames associatively, so the merged fleet
  view is independent of how the same work was sharded across
  workers; gauges sum across workers instead of newest-wins;
- the flight-recorder ring is bounded and its dump round-trips
  through ``parse_telemetry_jsonl``;
- the JSONL sink and the Prometheus textfile reuse (and parse back
  through) the PR 2 exporters.
"""

import io
import json
import math

import pytest

from repro.obs.export import parse_prometheus
from repro.obs.live import (
    DEFAULT_TELEMETRY_INTERVAL_S,
    JsonlTelemetrySink,
    TelemetryBus,
    TelemetryError,
    TelemetrySampler,
    parse_telemetry_jsonl,
    validate_frame,
    write_prometheus_textfile,
)
from repro.obs.registry import MetricsRegistry, snapshot_delta


def build_registry():
    registry = MetricsRegistry(enabled=True)
    registry.counter("c", help="a counter").inc(3)
    registry.gauge("g", help="a gauge").set(7.0)
    registry.histogram("h", help="a histogram", buckets=(1e-6, 1e-5, 1e-4))
    registry.get("h").observe(5e-6)
    registry.timeseries("ts", help="a timeseries").sample(0.0, 1.0)
    return registry


# -- snapshot_delta ----------------------------------------------------------


def test_snapshot_delta_round_trips_every_kind():
    registry = build_registry()
    previous = registry.snapshot()
    registry.counter("c").inc(5)
    registry.gauge("g").set(2.5)
    registry.get("h").observe(3e-5)
    registry.get("h").observe(2.0)  # overflow bucket
    registry.timeseries("ts").sample(1.0, 4.0)
    current = registry.snapshot()

    delta = snapshot_delta(current, previous)
    receiver = MetricsRegistry(enabled=True)
    receiver.merge_snapshot(previous)
    receiver.merge_snapshot(delta)
    assert receiver.snapshot() == current


def test_snapshot_delta_omits_unchanged_instruments():
    registry = build_registry()
    previous = registry.snapshot()
    registry.counter("c").inc()
    delta = snapshot_delta(registry.snapshot(), previous)
    assert list(delta) == ["c"]
    assert delta["c"]["value"] == 1.0


def test_snapshot_delta_against_empty_is_keyframe():
    registry = build_registry()
    current = registry.snapshot()
    assert snapshot_delta(current, {}) == current


def test_snapshot_delta_rejects_kind_change():
    before = {"x": {"kind": "counter", "help": "", "value": 1.0}}
    after = {"x": {"kind": "gauge", "help": "", "value": 1.0}}
    with pytest.raises(TypeError, match="changed kind"):
        snapshot_delta(after, before)


def test_snapshot_delta_timeseries_redownsample_falls_back_to_full():
    registry = MetricsRegistry(enabled=True)
    series = registry.timeseries("ts", help="", capacity=8)
    for i in range(6):
        series.sample(float(i), float(i))
    previous = registry.snapshot()
    # Overflow capacity so the stream re-downsamples (stride changes):
    # the delta cannot be replayed as an append and must carry the
    # full sample set.
    for i in range(6, 20):
        series.sample(float(i), float(i))
    current = registry.snapshot()
    delta = snapshot_delta(current, previous)
    assert delta["ts"] == current["ts"]


# -- validate_frame ----------------------------------------------------------


def make_frame(**overrides):
    frame = {
        "v": 1,
        "worker": 0,
        "seq": 0,
        "t": 0.001,
        "metrics": {"live.completions": {"kind": "counter", "value": 1.0}},
        "events": [],
    }
    frame.update(overrides)
    return frame


def test_validate_frame_accepts_well_formed():
    assert validate_frame(make_frame()) == make_frame()


@pytest.mark.parametrize(
    "overrides",
    [
        {"v": 2},
        {"worker": -1},
        {"worker": True},
        {"seq": "0"},
        {"t": -0.5},
        {"metrics": [1]},
        {"metrics": {"x": {"kind": "mystery"}}},
        {"events": {}},
        {"events": [{"no_kind": 1}]},
    ],
)
def test_validate_frame_rejects_malformed(overrides):
    with pytest.raises(TelemetryError):
        validate_frame(make_frame(**overrides))


def test_validate_frame_rejects_non_dict():
    with pytest.raises(TelemetryError):
        validate_frame([1, 2, 3])


# -- TelemetrySampler --------------------------------------------------------


def test_sampler_first_frame_is_keyframe_with_full_instrument_set():
    sampler = TelemetrySampler(3, interval_s=1e-3, queue_depth_fn=lambda: 4.0)
    sampler.completions.inc(2)
    frames = sampler.flush(5e-4)
    assert len(frames) == 1
    frame = validate_frame(frames[0])
    assert frame["worker"] == 3 and frame["seq"] == 0
    assert set(frame["metrics"]) == {
        "live.completions", "live.dispatches", "live.losses",
        "live.rejects", "live.redispatches", "live.latency_s",
        "live.queue_depth",
    }


def test_sampler_cadence_and_idle_skip():
    sampler = TelemetrySampler(0, interval_s=1e-3)
    sampler.maybe_sample(5e-4)  # before the first boundary
    assert sampler.drain() == []
    sampler.maybe_sample(1e-3)
    assert len(sampler.drain()) == 1
    # A long idle gap emits one frame and skips ahead, not a burst.
    sampler.maybe_sample(0.0105)
    frames = sampler.drain()
    assert len(frames) == 1
    assert math.isclose(sampler._next_sample_t, 0.011)


def test_sampler_emits_one_frame_per_cadence_instant():
    # A clock stopped exactly at each instant k * interval_s (as a dist
    # worker stops it) samples once there; asking again at the same
    # instant emits nothing. Deriving the next instant from now by
    # division lands back on now at k = 2001 (2.001 / 0.001 rounds
    # below 2001), which sampled that instant twice.
    interval = 1e-3
    sampler = TelemetrySampler(0, interval_s=interval)
    per_instant = []
    for k in range(1, 20_001):
        now = k * interval
        sampler.maybe_sample(now)
        sampler.maybe_sample(now)
        frames = sampler.drain()
        per_instant.append(len(frames))
        assert all(frame["t"] == now for frame in frames)
    assert per_instant == [1] * 20_000


def test_sampler_frames_are_incremental_and_seq_numbered():
    sampler = TelemetrySampler(0, interval_s=1e-3)
    sampler.completions.inc(4)
    first = sampler.flush(1e-3)[0]
    sampler.completions.inc(6)
    second = sampler.flush(2e-3)[0]
    assert (first["seq"], second["seq"]) == (0, 1)
    assert first["metrics"]["live.completions"]["value"] == 4.0
    assert second["metrics"]["live.completions"]["value"] == 6.0


def test_sampler_buffers_events_into_next_frame_only():
    sampler = TelemetrySampler(0, interval_s=1e-3)
    sampler.record_event("fault:crash", server=2, t=4e-4)
    first = sampler.flush(1e-3)[0]
    assert first["events"] == [{"kind": "fault:crash", "server": 2, "t": 4e-4}]
    second = sampler.flush(2e-3)[0]
    assert second["events"] == []


def test_disabled_sampler_is_inert():
    sampler = TelemetrySampler(0, interval_s=0.0)
    assert not sampler.enabled
    sampler.completions.inc(100)
    sampler.record_event("fault:crash")
    sampler.maybe_sample(10.0)
    assert sampler.sample(10.0) is None
    assert sampler.flush(10.0) == []


def test_default_interval_is_one_simulated_millisecond():
    assert DEFAULT_TELEMETRY_INTERVAL_S == 1e-3


# -- TelemetryBus ------------------------------------------------------------


def synthetic_workload():
    """Deterministic stream of (latency_s, queue_depth) work items."""
    return [((i % 13 + 1) * 2e-6, float(i % 5)) for i in range(200)]


def shard_and_ingest(num_workers):
    """Shard the same workload over N workers; return the fed bus."""
    bus = TelemetryBus()
    samplers = []
    for worker_id in range(num_workers):
        depth = {"value": 0.0}
        sampler = TelemetrySampler(
            worker_id, interval_s=1e-3,
            queue_depth_fn=lambda depth=depth: depth["value"],
        )
        samplers.append((sampler, depth))
    for i, (latency, depth_value) in enumerate(synthetic_workload()):
        sampler, depth = samplers[i % num_workers]
        sampler.completions.inc()
        sampler.latency.observe(latency)
        depth["value"] = depth_value
        sampler.maybe_sample((i + 1) * 1e-4)
    for worker_id, (sampler, _depth) in enumerate(samplers):
        bus.ingest_all(sampler.flush(0.021))
    return bus


@pytest.mark.parametrize("num_workers", [2, 4])
def test_fleet_fold_is_worker_count_independent(num_workers):
    reference = shard_and_ingest(1).fleet_registry().snapshot()
    sharded = shard_and_ingest(num_workers).fleet_registry().snapshot()
    assert sharded["live.completions"] == reference["live.completions"]
    histogram, base = sharded["live.latency_s"], reference["live.latency_s"]
    # Bucket counts are integers and must match exactly; the float
    # 'sum' accumulates in shard order, so it matches to rounding only.
    assert histogram["counts"] == base["counts"]
    assert histogram["overflow"] == base["overflow"]
    assert histogram["count"] == base["count"]
    assert histogram["sum"] == pytest.approx(base["sum"], rel=1e-12)


def test_fleet_gauges_sum_across_workers():
    bus = TelemetryBus()
    for worker_id, depth in ((0, 3.0), (1, 8.0)):
        bus.ingest(make_frame(
            worker=worker_id,
            metrics={"live.queue_depth": {"kind": "gauge", "help": "", "value": depth}},
        ))
    assert bus.fleet_summary()["queue_depth"] == 11.0


def test_fleet_summary_counts_frames_and_events():
    bus = shard_and_ingest(2)
    summary = bus.fleet_summary()
    assert summary["workers"] == 2
    assert summary["frames"] == bus.frames_seen > 0
    assert summary["completions"] == 200.0
    assert summary["p99_us"] > 0


def test_bus_events_are_tagged_with_worker_and_time():
    bus = TelemetryBus()
    bus.ingest(make_frame(
        worker=5, t=0.002, metrics={},
        events=[{"kind": "fault:straggler", "server": 1}],
    ))
    event = bus.events[-1]
    assert event["worker"] == 5 and event["t"] == 0.002
    assert event["kind"] == "fault:straggler"


def test_bus_rejects_invalid_frames():
    bus = TelemetryBus()
    with pytest.raises(TelemetryError):
        bus.ingest(make_frame(v=99))
    assert bus.frames_seen == 0


def test_bus_fans_frames_out_to_consumers():
    bus = TelemetryBus()
    seen = []
    bus.subscribe(seen.append)
    frame = make_frame()
    bus.ingest(frame)
    assert seen == [frame]


def test_flight_ring_is_bounded_and_keeps_newest(tmp_path):
    bus = TelemetryBus(ring_frames=4)
    for seq in range(10):
        bus.ingest(make_frame(seq=seq, t=seq * 1e-3, metrics={}))
    window = bus.flight_window(0)
    assert [frame["seq"] for frame in window] == [6, 7, 8, 9]
    assert bus.flight_window(42) == []


def test_flight_recorder_dump_round_trips(tmp_path):
    bus = shard_and_ingest(2)
    path = str(tmp_path / "flight.jsonl")
    bus.dump_flight_recorder(path, reason="test-crash")
    lines = open(path).read().splitlines()
    header = json.loads(lines[0])
    assert header["record"] == "flight-recorder"
    assert header["reason"] == "test-crash"
    assert header["workers"] == [0, 1]
    assert "no_telemetry_workers" not in header
    assert sum(header["frames"].values()) == len(lines) - 1
    frames = parse_telemetry_jsonl(open(path).read())
    assert len(frames) == len(lines) - 1
    assert all(validate_frame(frame) for frame in frames)


# -- sinks -------------------------------------------------------------------


def test_jsonl_sink_round_trips_through_parser(tmp_path):
    path = str(tmp_path / "telemetry.jsonl")
    bus = TelemetryBus()
    sink = JsonlTelemetrySink(path)
    bus.subscribe(sink)
    frames = [make_frame(seq=i, t=i * 1e-3) for i in range(5)]
    bus.ingest_all(frames)
    sink.close()
    assert sink.frames == 5
    assert parse_telemetry_jsonl(open(path).read()) == frames


def test_jsonl_sink_accepts_streams_without_closing_them():
    stream = io.StringIO()
    sink = JsonlTelemetrySink(stream)
    sink(make_frame())
    sink.close()
    assert not stream.closed
    assert parse_telemetry_jsonl(stream.getvalue()) == [make_frame()]


def test_parse_telemetry_jsonl_rejects_malformed_lines():
    with pytest.raises(TelemetryError):
        parse_telemetry_jsonl(json.dumps(make_frame(v=3)))


def test_prometheus_textfile_parses_back(tmp_path):
    bus = shard_and_ingest(2)
    path = str(tmp_path / "fleet.prom")
    write_prometheus_textfile(bus, path)
    parsed = {record["name"]: record for record in parse_prometheus(open(path).read())}
    assert parsed["live.completions"]["value"] == 200.0
    assert "live.latency_s" in parsed
