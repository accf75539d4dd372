"""Functional-payload mode: real bytes through the simulated data plane.

By default work items carry no payload (timing comes from the
service-time model). :class:`FunctionalAdapter` attaches to a
:class:`~repro.sdp.system.DataPlaneSystem` and

1. stamps every generated item with a real payload for the configured
   workload (an IPv4 packet, a storage fragment, a wire-format request);
2. on completion, executes the actual functional kernel on that payload
   (GRE encapsulation, AES-CBC-256, RS encode, ...) and verifies the
   result (decapsulates/decrypts/decodes back and compares).

Kernel execution happens outside simulated time — timing is still the
calibrated model's job — so this mode changes nothing about the
measured figures; it proves the simulated pipeline corresponds to a
real computation, catches payload corruption bugs, and gives the
examples end-to-end integrity checks inside the simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.queueing.taskqueue import WorkItem
from repro.sdp.system import DataPlaneSystem
from repro.workloads.crypto import AesCbc
from repro.workloads.dispatch import Request, RequestDispatcher, RequestType
from repro.workloads.encapsulation import gre_decapsulate, gre_encapsulate
from repro.workloads.erasure import CauchyReedSolomon
from repro.workloads.packet import Ipv4Packet, Ipv6Packet
from repro.workloads.raid import RaidPQ
from repro.workloads.steering import PacketSteerer

PAYLOAD_BYTES = 128
FRAGMENT_BYTES = 512


@dataclass
class FunctionalStats:
    """Verification counters."""

    produced: int = 0
    processed: int = 0
    verified: int = 0
    failures: int = 0


class _WorkloadKernels:
    """Payload builder + process/verify pair per workload."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.cipher = AesCbc(bytes(range(32)))
        self.steerer = PacketSteerer(num_workers=8)
        self.reed_solomon = CauchyReedSolomon(4, 2)
        self.raid = RaidPQ(4)
        self.dispatcher = RequestDispatcher()

    def _packet(self) -> Ipv4Packet:
        rng = self.rng
        return Ipv4Packet(
            src=rng.randrange(1 << 32),
            dst=rng.randrange(1 << 32),
            identification=rng.randrange(1 << 16),
            payload=bytes(rng.randrange(256) for _ in range(PAYLOAD_BYTES)),
        )

    def _fragment(self) -> bytes:
        return bytes(self.rng.randrange(256) for _ in range(FRAGMENT_BYTES))

    # Each entry: (build_payload, process_and_verify) — the verifier
    # returns True when the kernel's output round-trips correctly.

    def packet_encapsulation(self) -> Tuple[Callable, Callable]:
        def build():
            return self._packet()

        def process(packet: Ipv4Packet) -> bool:
            tunneled = gre_encapsulate(packet, tunnel_src=1, tunnel_dst=2)
            recovered = gre_decapsulate(Ipv6Packet.from_bytes(tunneled.to_bytes()))
            return recovered == packet

        return build, process

    def crypto_forwarding(self) -> Tuple[Callable, Callable]:
        def build():
            return self._packet().to_bytes()

        def process(wire: bytes) -> bool:
            iv = bytes(16)
            ciphertext = self.cipher.encrypt(wire, iv)
            return self.cipher.decrypt(ciphertext, iv) == wire

        return build, process

    def packet_steering(self) -> Tuple[Callable, Callable]:
        def build():
            rng = self.rng
            return (
                rng.randrange(1 << 32), rng.randrange(1 << 32),
                rng.randrange(1 << 16), 443, 6,
            )

        def process(flow) -> bool:
            first = self.steerer.steer(flow)
            return self.steerer.steer(flow) == first  # affinity holds

        return build, process

    def erasure_coding(self) -> Tuple[Callable, Callable]:
        def build():
            return self._fragment()

        def process(data: bytes) -> bool:
            fragments = self.reed_solomon.encode(data)
            fragments[0] = None
            fragments[5] = None
            return self.reed_solomon.decode(fragments)[: len(data)] == data

        return build, process

    def raid_protection(self) -> Tuple[Callable, Callable]:
        def build():
            return [self._fragment() for _ in range(4)]

        def process(stripe) -> bool:
            p, q = self.raid.compute_parity(stripe)
            damaged = list(stripe)
            damaged[1] = None
            damaged[3] = None
            return self.raid.recover_two(damaged, p, q) == stripe

        return build, process

    def request_dispatching(self) -> Tuple[Callable, Callable]:
        def build():
            rng = self.rng
            return Request(
                rng.choice(list(RequestType)),
                rng.randrange(1 << 16),
                rng.randrange(1 << 32),
                b"v" * 32,
            )

        def process(request: Request) -> bool:
            call = self.dispatcher.dispatch(request.to_bytes())
            return (
                call.tenant_id == request.tenant_id
                and call.request_id == request.request_id
            )

        return build, process


_KERNEL_FACTORY = {
    "packet-encapsulation": _WorkloadKernels.packet_encapsulation,
    "crypto-forwarding": _WorkloadKernels.crypto_forwarding,
    "packet-steering": _WorkloadKernels.packet_steering,
    "erasure-coding": _WorkloadKernels.erasure_coding,
    "raid-protection": _WorkloadKernels.raid_protection,
    "request-dispatching": _WorkloadKernels.request_dispatching,
}


class FunctionalAdapter:
    """Wires real payloads + kernel verification into a system.

    ``sample_rate`` bounds the Python cost: payloads are built for every
    item, but the (expensive) kernel verification runs on every k-th
    completion (1.0 = verify everything).
    """

    def __init__(self, system: DataPlaneSystem, sample_rate: float = 1.0):
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        workload = system.config.workload.name
        try:
            factory = _KERNEL_FACTORY[workload]
        except KeyError:
            raise ValueError(f"no functional kernel for workload {workload!r}")
        self.system = system
        self.sample_rate = sample_rate
        self.stats = FunctionalStats()
        kernels = _WorkloadKernels(system.streams.stream("functional-payloads"))
        self._build, self._process = factory(kernels)
        self._sample_rng = system.streams.stream("functional-sampling")
        # Payloads are built from the doorbell write hook (fires once
        # per enqueue, before dispatch) and verified from the completion
        # hook.
        system.doorbell_write_hooks.append(self._on_enqueue)
        system.completion_hooks.append(self._on_complete)

    def _on_enqueue(self, doorbell) -> None:
        queue = self.system.queues[doorbell.qid]
        if queue._items and queue._items[-1].payload is None:
            queue._items[-1].payload = self._build()
            self.stats.produced += 1

    def _on_complete(self, item: WorkItem) -> None:
        self.stats.processed += 1
        if item.payload is None:
            return
        if self.sample_rate < 1.0 and self._sample_rng.random() > self.sample_rate:
            return
        if self._process(item.payload):
            self.stats.verified += 1
        else:
            self.stats.failures += 1

    def assert_clean(self) -> None:
        """Raise unless every sampled item verified."""
        if self.stats.failures:
            raise AssertionError(
                f"{self.stats.failures} payloads failed kernel verification"
            )
        if self.stats.verified == 0:
            raise AssertionError("nothing was verified (no traffic?)")


def attach_functional_payloads(
    system: DataPlaneSystem, sample_rate: float = 1.0
) -> FunctionalAdapter:
    """Attach real-payload generation + kernel verification."""
    return FunctionalAdapter(system, sample_rate)
