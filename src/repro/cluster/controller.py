"""The cluster controller: applies and reverts injected faults.

The controller owns a fault schedule (from
:func:`repro.cluster.faults.fault_schedule`) and drives the rack through
it on the shared simulation timeline: crash -> mark the server down,
re-steer its flows, re-dispatch its backlog; straggler -> inflate the
victim's service times; link-degrade -> slow the victim's access link.
Every fault reverts after its window.

The rack may be a :class:`~repro.cluster.rack.Rack` or a dist worker
host: the controller needs only its ``sim``, its ``servers`` indexable
by server index, and its ``crash_server``/``restart_server``.
Observers subscribe to ``fault_hooks``; each gets ``(event, end)``
after every apply (``end`` false) and every revert (``end`` true).
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.cluster.faults import FaultEvent


class ClusterController:
    """Schedules fault application/reversion for one rack run."""

    def __init__(self, rack, events: Sequence[FaultEvent]):
        self.rack = rack
        self.events = list(events)
        self.applied: List[Tuple[float, FaultEvent]] = []
        self.reverted: List[Tuple[float, FaultEvent]] = []
        self.fault_hooks: List[Callable[[FaultEvent, bool], None]] = []
        self._started = False

    def start(self) -> None:
        """Schedule every event relative to the current simulated time."""
        if self._started:
            raise RuntimeError("controller already started")
        self._started = True
        for event in self.events:
            self.rack.sim.schedule(event.time, self._apply, event)

    def _apply(self, event: FaultEvent) -> None:
        self.applied.append((self.rack.sim.now, event))
        if event.kind == "crash":
            self.rack.crash_server(event.server)
        elif event.kind == "straggler":
            self.rack.servers[event.server].slow_factor = event.magnitude
        else:  # link-degrade
            self.rack.servers[event.server].link.degrade = event.magnitude
        self.rack.sim.schedule(event.duration, self._revert, event)
        for hook in self.fault_hooks:
            hook(event, False)

    def _revert(self, event: FaultEvent) -> None:
        self.reverted.append((self.rack.sim.now, event))
        if event.kind == "crash":
            self.rack.restart_server(event.server)
        elif event.kind == "straggler":
            self.rack.servers[event.server].slow_factor = 1.0
        else:
            self.rack.servers[event.server].link.degrade = 1.0
        for hook in self.fault_hooks:
            hook(event, True)
