"""The dist fast path: backoff, window batching, and the binary codec.

- ``backoff_delay`` grows exponentially with jitter and a cap, and
  ``Channel.await_reply`` actually sleeps those growing delays between
  retries;
- ``take_window`` half-open boundary semantics (a record exactly on the
  bound belongs to the *next* window, and the one-record lookahead is
  never lost across consecutive windows);
- the binary step/step_ok codec round-trips every message shape to the
  same dict a JSON round-trip gives (fuzzed);
- ``DistOptions`` validates the ``lookahead`` / ``backoff_cap_s`` knobs
  and has no ``wire`` knob, and the ``--workers`` / ``--transport`` CLI
  boundary keeps the listed-choices UsageError -> exit 2 contract.
"""

import json
import random
import socket

import pytest

from repro.dist.coordinator import DistOptions
from repro.dist.replay import TraceRecord, take_window
from repro.dist.wire import (
    Channel,
    ChannelTimeout,
    backoff_delay,
    decode_body,
    encode_frame,
)


def channel_pair():
    left, right = socket.socketpair()
    return Channel(left, name="left"), Channel(right, name="right")


# -- exponential backoff ------------------------------------------------------


def test_backoff_delay_grows_and_caps():
    rng = random.Random(7)
    raws = [backoff_delay(a, base_s=0.05, cap_s=2.0, rng=rng) for a in range(12)]
    # Jitter bounds: every delay lands in [raw/2, raw].
    for attempt, delay in enumerate(raws):
        raw = min(2.0, 0.05 * 2.0 ** attempt)
        assert raw / 2 <= delay <= raw
    # Growth dominates jitter: the lower bound for attempt n+1 equals
    # the upper bound for attempt n, so the sequence of bounds (and the
    # capped tail) is non-decreasing.
    assert max(raws) <= 2.0
    assert raws[-1] >= 1.0  # capped region: raw == cap_s == 2.0
    # The uncapped prefix doubles: compare de-jittered raws exactly.
    for attempt in range(5):
        assert 0.05 * 2.0 ** attempt == min(2.0, 0.05 * 2.0 ** attempt)


def test_backoff_delay_rejects_negative_attempt():
    with pytest.raises(ValueError):
        backoff_delay(-1)


def test_rpc_sleeps_growing_backoff_between_retries(monkeypatch):
    import repro.dist.wire as wire

    slept = []
    monkeypatch.setattr(wire.time, "sleep", slept.append)
    left, right = channel_pair()
    try:
        # Nobody ever replies: every attempt times out, and the sleeps
        # between attempts are the capped exponential schedule.
        message = {"type": "step", "seq": left.next_seq(), "windows": []}
        left.send(message)
        with pytest.raises(ChannelTimeout):
            left.await_reply(
                message,
                expect="step_ok",
                timeout=0.01,
                retries=6,
                backoff_s=0.05,
                backoff_cap_s=0.4,
            )
    finally:
        left.close()
        right.close()
    assert len(slept) == 6
    for attempt, delay in enumerate(slept):
        raw = min(0.4, 0.05 * 2.0 ** attempt)
        assert raw / 2 <= delay <= raw
    # Observable growth: the later (capped) delays are strictly larger
    # than the first, and nothing exceeds the cap.
    assert min(slept[3:]) > slept[0]
    assert max(slept) <= 0.4


# -- take_window boundary semantics -------------------------------------------


def _records(*times):
    return iter([TraceRecord(time=t, flow=0) for t in times])


def test_take_window_excludes_record_exactly_on_bound():
    pending = []
    source = _records(0.1, 0.2, 0.3)
    window = take_window(pending, source, until=0.2)
    assert [r.time for r in window] == [0.1]
    # The 0.2 record was read ahead and parked, not dropped.
    assert [r.time for r in pending] == [0.2]
    window = take_window(pending, source, until=0.3)
    assert [r.time for r in window] == [0.2]
    window = take_window(pending, source, until=0.4)
    assert [r.time for r in window] == [0.3]
    assert take_window(pending, source, until=99.0) == []


def test_take_window_lookahead_survives_empty_windows():
    pending = []
    source = _records(0.5)
    for bound in (0.1, 0.2, 0.3, 0.4, 0.5):
        assert take_window(pending, source, until=bound) == []
        assert len(pending) <= 1
    window = take_window(pending, source, until=0.6)
    assert [r.time for r in window] == [0.5]
    assert pending == []


def test_take_window_never_buffers_more_than_one_record():
    pending = []
    seen = []

    def counting_source():
        for i in range(10):
            record = TraceRecord(time=i * 0.01, flow=i)
            seen.append(record)
            yield record

    source = counting_source()
    window = take_window(pending, source, until=0.035)
    assert [r.flow for r in window] == [0, 1, 2, 3]
    # Exactly one record beyond the bound has been pulled.
    assert len(seen) == 5 and len(pending) == 1


# -- binary codec vs. a JSON round-trip --------------------------------------


def roundtrip(message):
    return decode_body(encode_frame(message)[4:])


def json_roundtrip(message):
    return json.loads(json.dumps(message))


def json_frame(message):
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return len(body).to_bytes(4, "big") + body


def fuzz_step(rng):
    # Only windows with a dispatch are listed; ``until`` bounds the step.
    windows = []
    for _ in range(rng.randrange(4)):
        dispatches = []
        for _ in range(rng.randrange(1, 5)):
            record = {
                "id": rng.randrange(2 ** 53),
                "t": rng.random() * 10,
                "flow": rng.randrange(2 ** 31),
                "server": rng.randrange(2 ** 16),
            }
            if rng.random() < 0.5:
                record["arr"] = rng.random()
            if rng.random() < 0.5:
                record["svc"] = rng.random() * 1e-5
            dispatches.append(record)
        windows.append({"start": rng.random() * 10, "dispatches": dispatches})
    message = {
        "type": "step",
        "seq": rng.randrange(2 ** 31),
        "until": rng.random() * 10,
        "windows": windows,
    }
    if rng.random() < 0.3:
        message["collect"] = {"measure_end": rng.random() * 10}
    return message


def fuzz_telemetry_frame(rng):
    """One schema-valid live-telemetry frame (see repro.obs.live)."""
    metrics = {}
    if rng.random() < 0.8:
        metrics["live.completions"] = {
            "kind": "counter", "help": "c", "value": float(rng.randrange(1000)),
        }
    if rng.random() < 0.5:
        metrics["live.queue_depth"] = {
            "kind": "gauge", "help": "g", "value": rng.random() * 64,
        }
    if rng.random() < 0.5:
        count = rng.randrange(50)
        metrics["live.latency_s"] = {
            "kind": "histogram", "help": "h",
            "bounds": [1e-6, 1e-5, 1e-4],
            "counts": [rng.randrange(20) for _ in range(3)],
            "overflow": rng.randrange(5),
            "sum": rng.random() * 1e-3,
            "count": count,
        }
    events = []
    if rng.random() < 0.3:
        events.append({
            "kind": rng.choice(["fault:crash", "fault:straggler"]),
            "server": rng.randrange(8),
            "t": rng.random(),
        })
    return {
        "v": 1,
        "worker": rng.randrange(64),
        "seq": rng.randrange(2 ** 31),
        "t": rng.random() * 100,
        "metrics": metrics,
        "events": events,
    }


def fuzz_step_ok(rng):
    # One outcome block per exchange.
    message = {
        "type": "step_ok",
        "seq": rng.randrange(2 ** 31),
        "worker_id": rng.randrange(64),
        "t": rng.random() * 100,
        "completions": [
            [rng.randrange(2 ** 53), rng.random(), rng.random() * 1e-4,
             rng.randrange(2 ** 16)]
            for _ in range(rng.randrange(6))
        ],
        "losses": [
            [rng.randrange(2 ** 53), rng.random(), rng.randrange(2 ** 16)]
            for _ in range(rng.randrange(3))
        ],
        "rejects": [
            [rng.randrange(2 ** 53), rng.random(), rng.randrange(2 ** 16)]
            for _ in range(rng.randrange(3))
        ],
        "redispatches": [
            [rng.randrange(2 ** 53), rng.random(), rng.randrange(2 ** 31),
             rng.random(), rng.random() * 1e-5]
            for _ in range(rng.randrange(3))
        ],
    }
    if rng.random() < 0.3:
        message["collected"] = {
            "type": "collected",
            "worker_id": message["worker_id"],
            "node": {"sim_events": rng.randrange(10 ** 9)},
            "metrics": None,
        }
    if rng.random() < 0.4:
        # Piggybacked live-telemetry frames ride a length-prefixed JSON
        # trailer in the binary frame; it must round-trip as JSON does,
        # with or without a collected payload in front.
        message["telemetry"] = [
            fuzz_telemetry_frame(rng) for _ in range(rng.randrange(1, 4))
        ]
    return message


@pytest.mark.parametrize("fuzzer", [fuzz_step, fuzz_step_ok])
def test_wire_v2_roundtrip_matches_v1_fuzzed(fuzzer):
    rng = random.Random(2024)
    for _ in range(200):
        message = fuzzer(rng)
        via_json = json_roundtrip(message)
        via_binary = roundtrip(message)
        assert via_binary == via_json, message


def test_wire_v2_frames_are_binary_and_smaller_on_hot_messages():
    rng = random.Random(5)
    message = fuzz_step(rng)
    while not message["windows"]:
        message = fuzz_step(rng)
    as_json = json_frame(message)
    binary = encode_frame(message)
    assert binary[4:5] == b"\x00"  # binary magic: never a valid JSON start
    assert as_json[4:5] != b"\x00"
    assert len(binary) < len(as_json)


def test_wire_v2_leaves_cold_messages_as_json():
    message = {"type": "hello", "worker_id": 3, "pid": 4242}
    assert encode_frame(message) == json_frame(message)


def test_truncated_v2_frame_raises_protocol_error():
    from repro.dist.wire import ProtocolError

    message = fuzz_step(random.Random(11))
    body = encode_frame(message)[4:]
    with pytest.raises(ProtocolError):
        decode_body(body[: len(body) // 2] if len(body) > 20 else body[:5])


# -- DistOptions validation ---------------------------------------------------


def test_dist_options_validates_wire_and_lookahead():
    # One encoding per message type: there is no wire knob to pick.
    with pytest.raises(TypeError, match="wire"):
        DistOptions(wire="v1")
    assert DistOptions(lookahead=5).lookahead == 5
    with pytest.raises(ValueError, match="lookahead"):
        DistOptions(lookahead=0)
    with pytest.raises(ValueError, match="backoff"):
        DistOptions(backoff_cap_s=0.0)
    # Feeds the worker's run(max_events=...), which rejects < 1.
    with pytest.raises(ValueError, match="heartbeat_events"):
        DistOptions(heartbeat_events=0)


# -- CLI boundary: --workers / --transport ------------------------------------


def test_workers_out_of_range_is_listed_choices_usage_error():
    from repro.experiments.base import UsageError
    from repro.experiments.cluster_scaleout import ClusterScaleoutConfig
    from repro.experiments.dist_replay import DistReplayConfig

    for bad in (0, -1, 9):
        with pytest.raises(UsageError, match="expected one of"):
            DistReplayConfig(workers=bad, servers=8)
    for bad in (0, -2, 65):
        with pytest.raises(UsageError, match="expected one of"):
            ClusterScaleoutConfig(workers=bad)
    # In-range values construct fine (the per-point cap handles the rest).
    assert DistReplayConfig(workers=4, servers=4).workers == 4
    assert ClusterScaleoutConfig(workers=64).workers == 64


@pytest.mark.parametrize("workers", [0, -1, 9])
def test_cli_workers_out_of_range_exits_2(capsys, workers):
    from repro.experiments.__main__ import main

    code = main(["dist_replay", "--workers", str(workers)])
    assert code == 2
    err = capsys.readouterr().err
    assert "expected one of" in err


def test_cli_transport_threads_to_dist_experiments():
    from repro.experiments.__main__ import main
    from repro.experiments.registry import run_experiment

    result = run_experiment(
        "dist_replay", fast=True, seed=0, workers=2, transport="tcp"
    )
    assert result.dist_info["transport"] == "tcp"
    # Non-dist experiments reject the flag with the usage contract.
    code = main(["hw_cost", "--transport", "tcp"])
    assert code == 2
