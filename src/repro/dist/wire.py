"""The dist wire protocol: length-prefixed frames over a stream socket.

Every message between the coordinator and a worker is one *frame*: a
4-byte big-endian unsigned length followed by that many bytes of body.
Each message type has exactly one body encoding:

- **binary** — ``struct``-packed frames for the two *hot* messages,
  ``step`` and ``step_ok``, which carry thousands of
  dispatch/completion records per exchange. The body starts with a
  NUL magic byte (never a valid JSON start). Floats travel as
  IEEE-754 doubles, bit-exact both ways.
- **JSON** — UTF-8 JSON for every other message: hello,
  configure/ready, collect/collected, shutdown/bye, heartbeats, and
  errors. JSON keeps those paths stdlib-only and debuggable
  (``repro.obs`` metric snapshots and config dicts pass through
  unchanged); floats round-trip exactly through ``repr``.

Nothing is negotiated: the coordinator spawns its workers from its own
``repro`` package, so both ends always run the same build. The decoder
dispatches on the magic byte.

Message shapes (the ``type`` field selects the handler):

==============  =============================================================
``hello``       worker -> coordinator on connect: worker id, auth token, pid.
``configure``   coordinator -> worker: one episode's cluster config, the
                server indices this worker owns, the run's fault
                schedule, measurement window, and (for tests) an
                optional crash-injection point.
``ready``       worker -> coordinator: episode built, servers listed.
``step``        coordinator -> worker: one exchange — the sim-time
                bound ``until`` to advance to, and only the windows in
                which this worker got a dispatch, each with its opening
                bound ``start`` and its dispatch records; optionally a
                piggybacked ``collect`` request when the exchange is
                known to be the run's last.
``step_ok``     worker -> coordinator: one outcome block for the whole
                exchange — the completions, losses, rejections and
                re-dispatch requests (plus the ``collected`` payload
                when collect was piggybacked, and any pending telemetry
                frames when the coordinator attached a telemetry bus).
``heartbeat``   worker -> coordinator, interleaved while a long ``step``
                is still running: liveness, the worker's current
                simulated time, and pending telemetry frames. Never a
                reply; receivers skip it after surfacing the payload to
                their heartbeat callback.
``collect``     coordinator -> worker: episode over — return the metrics
                snapshot, per-node manifest block, and invariant status.
``collected``   worker -> coordinator: the requested payload.
``shutdown``    coordinator -> worker: exit cleanly.
``bye``         worker -> coordinator: acknowledgement, then the process
                exits.
``error``       worker -> coordinator: the handler raised; carries the
                traceback text. The coordinator surfaces it.
==============  =============================================================

RPC semantics are at-most-once: every coordinator request carries a
monotonically increasing ``seq``, the worker remembers the last ``seq``
it executed together with the reply it sent, and a re-delivered request
(a retry after a timeout) returns the cached reply instead of executing
twice. Dispatch/completion application therefore stays idempotent even
when the coordinator retries with backoff (see
:meth:`Channel.await_reply`).
"""

from __future__ import annotations

import json
import random
import socket
import struct
import time
from typing import Any, Dict, Optional

# Frame header: one network-order u32 length.
_HEADER = struct.Struct("!I")

# A frame larger than this is a protocol error, not a big message: the
# largest legitimate payloads (metric snapshots, full-window dispatch
# batches) are a few hundred KiB.
MAX_FRAME_BYTES = 64 * 1024 * 1024

# Defaults for the retry policy; DistOptions overrides per run.
DEFAULT_TIMEOUT_S = 30.0
DEFAULT_RETRIES = 3
DEFAULT_BACKOFF_S = 0.05
DEFAULT_BACKOFF_CAP_S = 2.0

# Binary layout of step/step_ok. Body = NUL magic, kind byte, then the
# packed message. JSON bodies can never start with NUL, so decode is
# self-describing.
_BINARY_MAGIC = 0
_KIND_STEP = 1
_KIND_STEP_OK = 2

# magic, kind, seq, flags, n_windows, then the exchange's bound ``until``
_STEP_HEAD = struct.Struct("!BBQBId")
_STEP_WINDOW = struct.Struct("!dI")  # start, n_dispatches
_DISPATCH = struct.Struct("!QdIIB")  # id, t, flow, server, opt flags
_F64 = struct.Struct("!d")
_U32 = struct.Struct("!I")
# magic, kind, seq, t, flags, worker id, then the block's record counts:
# completions, losses, rejects, redispatches
_OK_HEAD = struct.Struct("!BBQdBIIIII")
_COMPLETION = struct.Struct("!QddI")  # id, t, latency, server
_LOSS = struct.Struct("!QdI")  # id, t, server  (rejects share the layout)
_REDISPATCH = struct.Struct("!QdIdd")  # id, t, flow, arrival, service

_HAS_ARR = 1
_HAS_SVC = 2
_HAS_COLLECT = 1
_HAS_TELEMETRY = 2


def backoff_delay(
    attempt: int,
    base_s: float = DEFAULT_BACKOFF_S,
    cap_s: float = DEFAULT_BACKOFF_CAP_S,
    rng: Optional[random.Random] = None,
) -> float:
    """Sleep before retry ``attempt`` (0-based): capped exponential
    growth with jitter.

    The raw delay doubles per attempt up to ``cap_s``; the returned
    value is jittered uniformly over [raw/2, raw] so a fleet of
    channels retrying a stalled peer never thunders in phase. Growth
    still dominates the jitter (raw/2 for attempt n+1 equals raw for
    attempt n), so successive delays are non-decreasing in expectation
    and observable in tests.
    """
    if attempt < 0:
        raise ValueError("attempt must be >= 0")
    raw = min(cap_s, base_s * (2.0 ** attempt))
    draw = (rng or random).random()
    return raw * (0.5 + 0.5 * draw)


class WireError(RuntimeError):
    """Base class for wire-protocol failures."""


class ChannelClosed(WireError):
    """The peer closed the connection (EOF or reset) — for a worker
    channel this is how a process crash announces itself."""


class ChannelTimeout(WireError):
    """No frame arrived within the deadline (liveness failure: even an
    idle worker heartbeats while executing a step)."""


class ProtocolError(WireError):
    """A frame arrived but was not a valid message."""


class RemoteError(WireError):
    """The worker's handler raised; carries the remote traceback."""


def _encode_step(message: Dict[str, Any]) -> bytes:
    windows = message.get("windows", [])
    collect = message.get("collect")
    flags = _HAS_COLLECT if collect is not None else 0
    parts = [
        _STEP_HEAD.pack(
            _BINARY_MAGIC, _KIND_STEP, int(message.get("seq", 0)),
            flags, len(windows), float(message.get("until", 0.0)),
        )
    ]
    if collect is not None:
        parts.append(_F64.pack(float(collect["measure_end"])))
    for window in windows:
        dispatches = window["dispatches"]
        parts.append(_STEP_WINDOW.pack(float(window["start"]), len(dispatches)))
        for record in dispatches:
            arr = record.get("arr")
            svc = record.get("svc")
            opt = (_HAS_ARR if arr is not None else 0) | (
                _HAS_SVC if svc is not None else 0
            )
            parts.append(
                _DISPATCH.pack(
                    record["id"], record["t"], record["flow"],
                    record["server"], opt,
                )
            )
            if arr is not None:
                parts.append(_F64.pack(arr))
            if svc is not None:
                parts.append(_F64.pack(svc))
    return b"".join(parts)


def _encode_step_ok(message: Dict[str, Any]) -> bytes:
    completions = message.get("completions", ())
    losses = message.get("losses", ())
    rejects = message.get("rejects", ())
    redispatches = message.get("redispatches", ())
    collected = message.get("collected")
    telemetry = message.get("telemetry")
    flags = _HAS_COLLECT if collected is not None else 0
    if telemetry:
        flags |= _HAS_TELEMETRY
    parts = [
        _OK_HEAD.pack(
            _BINARY_MAGIC, _KIND_STEP_OK, int(message.get("seq", 0)),
            float(message.get("t", 0.0)), flags,
            int(message.get("worker_id", 0)),
            len(completions), len(losses), len(rejects), len(redispatches),
        )
    ]
    for rid, t, latency, server in completions:
        parts.append(_COMPLETION.pack(rid, t, latency, server))
    for rid, t, server in losses:
        parts.append(_LOSS.pack(rid, t, server))
    for rid, t, server in rejects:
        parts.append(_LOSS.pack(rid, t, server))
    for rid, t, flow, arrival, svc in redispatches:
        parts.append(_REDISPATCH.pack(rid, t, flow, arrival, svc))
    if collected is not None:
        blob = json.dumps(collected, separators=(",", ":")).encode("utf-8")
        parts.append(_U32.pack(len(blob)))
        parts.append(blob)
    if telemetry:
        # Telemetry frames are small, structurally rich deltas: an
        # embedded JSON blob (like collected) keeps the packed
        # layout stable as the frame schema evolves.
        blob = json.dumps(list(telemetry), separators=(",", ":")).encode("utf-8")
        parts.append(_U32.pack(len(blob)))
        parts.append(blob)
    return b"".join(parts)


def _decode_binary(body: bytes) -> Dict[str, Any]:
    try:
        kind = body[1]
        if kind == _KIND_STEP:
            return _decode_step(body)
        if kind == _KIND_STEP_OK:
            return _decode_step_ok(body)
        raise ProtocolError(f"unknown binary message kind {kind}")
    except (struct.error, IndexError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable binary frame: {exc}") from exc


def _decode_step(body: bytes) -> Dict[str, Any]:
    _magic, _kind, seq, flags, n_windows, until = _STEP_HEAD.unpack_from(body, 0)
    offset = _STEP_HEAD.size
    message: Dict[str, Any] = {"type": "step", "seq": seq, "until": until}
    if flags & _HAS_COLLECT:
        (measure_end,) = _F64.unpack_from(body, offset)
        offset += _F64.size
        message["collect"] = {"measure_end": measure_end}
    windows = []
    for _ in range(n_windows):
        start, n_dispatches = _STEP_WINDOW.unpack_from(body, offset)
        offset += _STEP_WINDOW.size
        dispatches = []
        for _ in range(n_dispatches):
            rid, t, flow, server, opt = _DISPATCH.unpack_from(body, offset)
            offset += _DISPATCH.size
            record = {"id": rid, "t": t, "flow": flow, "server": server}
            if opt & _HAS_ARR:
                (record["arr"],) = _F64.unpack_from(body, offset)
                offset += _F64.size
            if opt & _HAS_SVC:
                (record["svc"],) = _F64.unpack_from(body, offset)
                offset += _F64.size
            dispatches.append(record)
        windows.append({"start": start, "dispatches": dispatches})
    message["windows"] = windows
    return message


def _decode_step_ok(body: bytes) -> Dict[str, Any]:
    (
        _magic, _kind, seq, t, flags, worker_id,
        n_comp, n_loss, n_rej, n_red,
    ) = _OK_HEAD.unpack_from(body, 0)
    offset = _OK_HEAD.size
    completions = []
    for _ in range(n_comp):
        completions.append(list(_COMPLETION.unpack_from(body, offset)))
        offset += _COMPLETION.size
    losses = []
    for _ in range(n_loss):
        losses.append(list(_LOSS.unpack_from(body, offset)))
        offset += _LOSS.size
    rejects = []
    for _ in range(n_rej):
        rejects.append(list(_LOSS.unpack_from(body, offset)))
        offset += _LOSS.size
    redispatches = []
    for _ in range(n_red):
        redispatches.append(list(_REDISPATCH.unpack_from(body, offset)))
        offset += _REDISPATCH.size
    message = {
        "type": "step_ok", "seq": seq, "worker_id": worker_id, "t": t,
        "completions": completions, "losses": losses,
        "rejects": rejects, "redispatches": redispatches,
    }
    if flags & _HAS_COLLECT:
        (blob_len,) = _U32.unpack_from(body, offset)
        offset += _U32.size
        message["collected"] = json.loads(
            body[offset:offset + blob_len].decode("utf-8")
        )
        offset += blob_len
    if flags & _HAS_TELEMETRY:
        (blob_len,) = _U32.unpack_from(body, offset)
        offset += _U32.size
        message["telemetry"] = json.loads(
            body[offset:offset + blob_len].decode("utf-8")
        )
        offset += blob_len
    return message


# The hot message types, always packed binary.
_BINARY_ENCODERS = {"step": _encode_step, "step_ok": _encode_step_ok}


def encode_frame(message: Dict[str, Any]) -> bytes:
    """Serialise one message to its on-wire form (header + body):
    ``step`` and ``step_ok`` packed binary, everything else JSON."""
    encoder = _BINARY_ENCODERS.get(message.get("type"))
    if encoder is not None:
        body = encoder(message)
    else:
        body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> Dict[str, Any]:
    """Parse a frame body back into a message dict (either encoding)."""
    if body[:1] == b"\x00":
        return _decode_binary(body)
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(f"frame is not a typed message: {message!r}")
    return message


class Channel:
    """One framed, timeout-aware connection to a peer.

    Wraps a connected stream socket (TCP loopback or ``AF_UNIX``) with
    frame send/receive and the coordinator's reply wait. All receive
    paths honour a deadline; send failures and EOF raise
    :class:`ChannelClosed` so callers can treat a dead peer uniformly.
    """

    def __init__(self, sock: socket.socket, name: str = "peer"):
        self.sock = sock
        self.name = name
        self._recv_buffer = b""
        self._seq = 0
        # Keep frames flowing promptly on TCP: windows are small and
        # latency-sensitive, so disable Nagle where the option exists.
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # AF_UNIX has no TCP options

    # -- framing -------------------------------------------------------------

    def send(self, message: Dict[str, Any]) -> None:
        """Send one frame; a broken pipe surfaces as :class:`ChannelClosed`."""
        try:
            self.sock.sendall(encode_frame(message))
        except (BrokenPipeError, ConnectionError, OSError) as exc:
            raise ChannelClosed(f"{self.name}: send failed: {exc}") from exc

    def _recv_exact(self, nbytes: int, deadline: Optional[float]) -> bytes:
        while len(self._recv_buffer) < nbytes:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ChannelTimeout(f"{self.name}: receive timed out")
                self.sock.settimeout(remaining)
            else:
                self.sock.settimeout(None)
            try:
                chunk = self.sock.recv(65536)
            except socket.timeout as exc:
                raise ChannelTimeout(f"{self.name}: receive timed out") from exc
            except (ConnectionError, OSError) as exc:
                raise ChannelClosed(f"{self.name}: connection lost: {exc}") from exc
            if not chunk:
                raise ChannelClosed(f"{self.name}: peer closed the connection")
            self._recv_buffer += chunk
        data, self._recv_buffer = (
            self._recv_buffer[:nbytes],
            self._recv_buffer[nbytes:],
        )
        return data

    def recv(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Receive one frame within ``timeout`` seconds (None = block)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        (length,) = _HEADER.unpack(self._recv_exact(_HEADER.size, deadline))
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"{self.name}: oversized frame ({length} bytes)")
        return decode_body(self._recv_exact(length, deadline))

    # -- coordinator-side RPC ------------------------------------------------

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def await_reply(
        self,
        message: Dict[str, Any],
        expect: str,
        timeout: float = DEFAULT_TIMEOUT_S,
        retries: int = DEFAULT_RETRIES,
        backoff_s: float = DEFAULT_BACKOFF_S,
        backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
        on_heartbeat=None,
    ) -> Dict[str, Any]:
        """Await the typed reply to ``message``, a request already sent
        with its ``seq``; the coordinator's one retry loop.

        On a timeout the same frame (same ``seq``) is re-sent after a
        capped, jittered exponential backoff (:func:`backoff_delay`);
        the worker's at-most-once cache guarantees re-delivery cannot
        re-execute the step. After ``retries`` re-sends the last
        :class:`ChannelTimeout` propagates. Heartbeat frames reset the
        liveness deadline (and are passed to ``on_heartbeat``) without
        counting as replies; stale replies to earlier requests are
        dropped. ``ChannelClosed`` is never retried — a vanished peer
        is a crash fault for the caller's failover logic, not a
        transient.
        """
        attempt = 0
        while True:
            try:
                reply = self.recv(timeout=timeout)
            except ChannelTimeout:
                if attempt >= retries:
                    raise
                time.sleep(backoff_delay(attempt, backoff_s, backoff_cap_s))
                attempt += 1
                self.send(message)
                continue
            kind = reply.get("type")
            if kind == "heartbeat":
                if on_heartbeat is not None:
                    on_heartbeat(reply)
                continue
            if kind == "error":
                raise RemoteError(
                    f"{self.name}: remote handler failed:\n"
                    f"{reply.get('traceback', reply)}"
                )
            if reply.get("seq") not in (None, message["seq"]):
                continue  # stale reply to a retried earlier request
            if kind != expect:
                raise ProtocolError(
                    f"{self.name}: expected {expect!r}, got {kind!r}"
                )
            return reply

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
