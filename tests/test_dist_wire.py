"""Wire protocol: framing, RPC semantics, and metric snapshots on the wire.

The load-bearing contract here is the one the coordinator's merge step
relies on: a :class:`repro.obs.MetricsRegistry` snapshot survives the
JSON frame round-trip for every instrument kind, and folding worker
snapshots yields the same registry whatever the worker count was.
"""

import socket
import threading

import pytest

from repro.dist.wire import (
    Channel,
    ChannelClosed,
    ChannelTimeout,
    ProtocolError,
    RemoteError,
    decode_body,
    encode_frame,
)
from repro.obs import MetricsRegistry


def channel_pair():
    left, right = socket.socketpair()
    return Channel(left, name="left"), Channel(right, name="right")


# -- framing ------------------------------------------------------------------


def test_frame_roundtrip_preserves_floats_exactly():
    message = {"type": "collected", "t": 0.1 + 0.2, "values": [1e-7, 3.5e9]}
    frame = encode_frame(message)
    assert decode_body(frame[4:]) == message


def test_partial_and_coalesced_frames_reassemble():
    a, b = channel_pair()
    try:
        # Two frames in one send, then one frame split across sends.
        msgs = [{"type": "x", "i": i} for i in range(3)]
        b.sock.sendall(encode_frame(msgs[0]) + encode_frame(msgs[1]))
        frame = encode_frame(msgs[2])
        b.sock.sendall(frame[:3])
        b.sock.sendall(frame[3:])
        assert [a.recv(timeout=2) for _ in range(3)] == msgs
    finally:
        a.close()
        b.close()


def test_undecodable_and_untyped_frames_rejected():
    with pytest.raises(ProtocolError, match="undecodable"):
        decode_body(b"\xff\xfe not json")
    with pytest.raises(ProtocolError, match="typed"):
        decode_body(b'{"no_type": 1}')
    with pytest.raises(ProtocolError, match="typed"):
        decode_body(b"[1, 2]")


def test_peer_close_raises_channel_closed():
    a, b = channel_pair()
    b.close()
    with pytest.raises(ChannelClosed):
        a.recv(timeout=2)
    a.close()


def test_recv_timeout_raises_channel_timeout():
    a, b = channel_pair()
    try:
        with pytest.raises(ChannelTimeout):
            a.recv(timeout=0.05)
    finally:
        a.close()
        b.close()


# -- RPC semantics ------------------------------------------------------------


def send_and_await(channel, **kwargs):
    """Send a collect request stamped with a fresh seq, as
    ``WorkerPool.broadcast`` does, and return the await_reply result."""
    message = {"type": "collect", "seq": channel.next_seq()}
    channel.send(message)
    return channel.await_reply(message, "collected", **kwargs)


def test_rpc_skips_heartbeats_and_matches_seq():
    a, b = channel_pair()

    def worker():
        request = b.recv(timeout=5)
        b.send({"type": "heartbeat", "sim_now": 0.001})
        b.send({"type": "heartbeat", "sim_now": 0.002})
        b.send({"type": "collected", "seq": request["seq"], "done": True})

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        beats = []
        reply = send_and_await(
            a, timeout=5,
            on_heartbeat=lambda hb: beats.append(hb["sim_now"]),
        )
        assert reply["done"] is True
        assert beats == [0.001, 0.002]
    finally:
        thread.join()
        a.close()
        b.close()


def test_rpc_retries_same_seq_and_drops_stale_replies():
    a, b = channel_pair()
    seen = []

    def worker():
        # First delivery: stay silent past the timeout, forcing a retry;
        # then answer the retry, then answer the *first* delivery late
        # (the stale duplicate a real at-most-once worker could emit).
        first = b.recv(timeout=5)
        second = b.recv(timeout=5)
        seen.extend([first["seq"], second["seq"]])
        b.send({"type": "collected", "seq": second["seq"], "n": 1})
        nxt = b.recv(timeout=5)
        b.send({"type": "collected", "seq": nxt["seq"] - 1, "n": "stale"})
        b.send({"type": "collected", "seq": nxt["seq"], "n": 2})

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        reply = send_and_await(a, timeout=0.2, retries=2)
        assert reply["n"] == 1
        assert seen[0] == seen[1]  # the retry re-sent the same seq
        reply = send_and_await(a, timeout=5)
        assert reply["n"] == 2  # the stale frame was dropped, not returned
    finally:
        thread.join()
        a.close()
        b.close()


def test_rpc_surfaces_remote_errors():
    a, b = channel_pair()

    def worker():
        b.recv(timeout=5)
        b.send({"type": "error", "traceback": "ZeroDivisionError: boom"})

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        with pytest.raises(RemoteError, match="boom"):
            send_and_await(a, timeout=5)
    finally:
        thread.join()
        a.close()
        b.close()


# -- metric snapshots across the wire ----------------------------------------


def build_registry(events):
    """A registry exercising all four instrument kinds."""
    registry = MetricsRegistry(enabled=True)
    for time, value in events:
        registry.counter("dist.test_counter", help="c").inc(value)
        registry.gauge("dist.test_gauge", help="g").set(value)
        registry.histogram(
            "dist.test_hist", help="h", buckets=(1.0, 10.0, 100.0)
        ).observe(value)
        registry.timeseries("dist.test_series", help="t").sample(time, value)
    return registry


EVENTS = [(i * 1e-4, float(v)) for i, v in enumerate([3, 7, 0.5, 42, 150, 9, 2])]


def wire_roundtrip(snapshot):
    """Snapshot -> collected frame -> bytes -> snapshot, as workers do."""
    frame = encode_frame({"type": "collected", "snapshot": snapshot})
    return decode_body(frame[4:])["snapshot"]


def merged_over_workers(num_workers):
    """Shard EVENTS over N per-worker registries, merge via the wire."""
    shards = [EVENTS[w::num_workers] for w in range(num_workers)]
    coordinator = MetricsRegistry(enabled=True)
    for shard in shards:
        coordinator.merge_snapshot(wire_roundtrip(build_registry(shard).snapshot()))
    return coordinator


def test_snapshot_roundtrips_all_instrument_kinds_through_the_wire():
    registry = build_registry(EVENTS)
    restored = MetricsRegistry(enabled=True)
    restored.merge_snapshot(wire_roundtrip(registry.snapshot()))

    assert restored.counter("dist.test_counter").value == pytest.approx(
        sum(v for _, v in EVENTS)
    )
    assert restored.gauge("dist.test_gauge").read() == EVENTS[-1][1]
    hist = restored.get("dist.test_hist")
    original = registry.get("dist.test_hist")
    assert hist.counts == original.counts
    assert hist.overflow == original.overflow
    assert hist.sum == pytest.approx(original.sum)
    series = restored.get("dist.test_series")
    assert [tuple(s) for s in series.samples] == [
        tuple(s) for s in registry.get("dist.test_series").samples
    ]


def test_merge_is_worker_count_independent():
    # The coordinator folds per-node snapshots in worker-id order; the
    # result must not depend on how many workers the fleet had.
    single = merged_over_workers(1)
    for workers in (2, 3, 4, 7):
        sharded = merged_over_workers(workers)
        assert sharded.counter("dist.test_counter").value == pytest.approx(
            single.counter("dist.test_counter").value
        )
        assert sharded.get("dist.test_hist").counts == single.get(
            "dist.test_hist"
        ).counts
        assert sharded.get("dist.test_hist").sum == pytest.approx(
            single.get("dist.test_hist").sum
        )
        # Timeseries interleave by simulated time: same sample set.
        assert sorted(
            tuple(s) for s in sharded.get("dist.test_series").samples
        ) == sorted(tuple(s) for s in single.get("dist.test_series").samples)


def test_oversized_frame_rejected():
    import repro.dist.wire as wire

    big = {"type": "x", "blob": "a" * 100}
    original = wire.MAX_FRAME_BYTES
    wire.MAX_FRAME_BYTES = 50
    try:
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame(big)
    finally:
        wire.MAX_FRAME_BYTES = original
