"""Transmit-side modelling: SDP -> device TX rings -> the wire.

The paper notes HyperPlane serves "both directions (transmit and
receive)" and that the transmit-side diagram mirrors Fig. 2: tenants
enqueue send requests (those queues' doorbells are what the data plane
monitors — the existing system already models that half), the SDP
performs transport processing, and the result lands in a device TX ring
that the NIC drains at line rate.

:class:`TxSide` adds the device half: bounded TX rings per device,
line-rate drain processes, wire-departure latency, and backpressure
accounting (a full ring at hand-off time is a drop, as on a real NIC
when software outruns the wire).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.queueing.taskqueue import WorkItem
from repro.sdp.metrics import LatencyRecorder
from repro.sdp.system import DataPlaneSystem
from repro.sim.events import Event


class TxDevice:
    """One NIC/accelerator TX engine: a bounded ring drained at line rate."""

    def __init__(
        self,
        system: DataPlaneSystem,
        device_id: int,
        line_rate_items_per_s: float,
        ring_capacity: int,
    ):
        if line_rate_items_per_s <= 0:
            raise ValueError("line rate must be positive")
        if ring_capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.system = system
        self.device_id = device_id
        self.line_rate = line_rate_items_per_s
        self.ring_capacity = ring_capacity
        self._ring: Deque[Tuple[float, WorkItem]] = deque()
        self._doorbell: Optional[Event] = None
        self.transmitted = 0
        self.dropped = 0
        self.wire_latency = LatencyRecorder()
        self.process = system.sim.spawn(self._drain(), name=f"tx-device-{device_id}")

    @property
    def occupancy(self) -> int:
        return len(self._ring)

    def post(self, item: WorkItem) -> bool:
        """SDP hands a processed item to the TX ring; False = ring full."""
        if len(self._ring) >= self.ring_capacity:
            self.dropped += 1
            return False
        self._ring.append((self.system.sim.now, item))
        if self._doorbell is not None:
            doorbell, self._doorbell = self._doorbell, None
            self.system.sim.schedule(0.0, doorbell.trigger, None)
        return True

    def _drain(self):
        sim = self.system.sim
        per_item = 1.0 / self.line_rate
        while True:
            if not self._ring:
                self._doorbell = Event(f"tx-device-{self.device_id}.doorbell")
                yield self._doorbell
                continue
            yield per_item  # serialisation delay on the wire
            posted_at, item = self._ring.popleft()
            self.transmitted += 1
            # Wire latency: device arrival -> bits on the wire.
            self.wire_latency.record(sim.now, sim.now - item.arrival_time)


class TxSide:
    """Routes data-plane completions onto device TX rings."""

    def __init__(
        self,
        system: DataPlaneSystem,
        num_devices: int,
        line_rate_items_per_s: float,
        ring_capacity: int,
    ):
        if num_devices <= 0:
            raise ValueError("need at least one device")
        self.system = system
        self.devices: List[TxDevice] = [
            TxDevice(system, device_id, line_rate_items_per_s, ring_capacity)
            for device_id in range(num_devices)
        ]
        # Queue -> device: queue pairs belong to a tenant-device pair, so
        # slice the queue space contiguously across devices.
        queues_per_device = max(1, system.config.num_queues // num_devices)
        self._device_of_qid: Dict[int, TxDevice] = {
            qid: self.devices[min(qid // queues_per_device, num_devices - 1)]
            for qid in range(system.config.num_queues)
        }
        system.completion_hooks.append(self._on_complete)

    def _on_complete(self, item: WorkItem) -> None:
        self._device_of_qid[item.qid].post(item)

    @property
    def transmitted(self) -> int:
        return sum(device.transmitted for device in self.devices)

    @property
    def dropped(self) -> int:
        return sum(device.dropped for device in self.devices)

    @property
    def wire_latency(self) -> LatencyRecorder:
        """Merged device-arrival-to-wire latency across devices."""
        merged = LatencyRecorder()
        for device in self.devices:
            merged._samples.extend(device.wire_latency._samples)
        return merged


def attach_tx_side(
    system: DataPlaneSystem,
    num_devices: int = 1,
    line_rate_items_per_s: float = 2.0e6,
    ring_capacity: int = 1024,
) -> TxSide:
    """Model the transmit half on an existing system (call before run).

    Default line rate (2 Mitem/s) comfortably exceeds a single core's
    processing rate; lower it to study device-side backpressure.
    """
    return TxSide(system, num_devices, line_rate_items_per_s, ring_capacity)
