"""Trace probes: turn completed work items into causal span trees.

Each ``trace_*`` function wires one model layer into a
:class:`~repro.obs.trace.Tracer`:

=============================  ===========================================
probe                          layer
=============================  ===========================================
:func:`trace_system`           a :class:`~repro.sdp.system.DataPlaneSystem`
:func:`trace_structural_machine`  a :class:`~repro.structural.machine.StructuralMachine`
:func:`trace_rack`             a :class:`~repro.cluster.rack.Rack`
=============================  ===========================================

Layers self-trace when built inside an
:func:`repro.obs.trace.active_tracer` scope, exactly like the metrics
probes in :mod:`repro.obs.probes` self-instrument under
``active_registry``.

The cardinal rule (the bit-identical acceptance criterion): **probes
observe, they never schedule.** Every probe is a subscriber on a
component's hook lists — doorbell write, dequeue and completion hooks
on a system or structural machine, dispatch and delivery hooks on a
rack — and all span construction happens at completion time from
fields the models filled in anyway (``arrival_time``,
``dequeue_time``, ``completion_time``, ``service_time``). No event is
added, removed, or reordered, so a traced run's simulated results are
bit-identical to an untraced run, including across spin fast-forward
batching.

Per-request cycle attribution (all on the root ``request`` span):

``notify_wait``
    Doorbell ring of an idle queue → that item's dequeue (the
    ``ready_since`` bookkeeping of :class:`repro.obs.probes._SystemProbeState`),
    clamped into the item's wait. This is the component the
    notification mechanism (spin / MWAIT / interrupt / HyperPlane)
    determines.
``queueing``
    The rest of the pre-dequeue wait: the item sat behind other work.
``coherence``
    Fast model: the hierarchy-derived ``task_data_stall`` cycles.
    Structural model: the *measured* dequeue memory cycles (doorbell
    write + ring-head write + slot read through the coherence model).
``service``
    The workload model's drawn service time, in cycles.
``overhead``
    The residual, closed by
    :meth:`~repro.obs.trace.Span.attribute_cycles` so the fixed-order
    category sum equals the span's cycle duration bit-exactly.

The mechanism label (``metrics.label``) only exists after a runner
finishes, so probes stamp the ``mechanism`` attribute from a tracer
finalizer — call :meth:`Tracer.finalize` after the run.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.obs.trace import Span, Tracer


def _clamped_wake(wake: float, wait: float) -> float:
    """Notification wait clamped into the item's total pre-dequeue wait."""
    if wait <= 0.0:
        return 0.0
    return min(max(wake, 0.0), wait)


class _SystemTraceState:
    """Hook-side state for one traced data-plane system."""

    __slots__ = (
        "tracer",
        "system",
        "ready_since",
        "pending_wakes",
        "request_spans",
        "parent_resolver",
        "default_label",
    )

    def __init__(self, tracer: Tracer, system):
        self.tracer = tracer
        self.system = system
        self.default_label = "unlabeled"
        # qid -> time its doorbell first rang while it was idle.
        self.ready_since: Dict[int, float] = {}
        # qid -> notification waits of dequeues not yet completed, in
        # dequeue order (bounded by items in flight).
        self.pending_wakes: Dict[int, Deque[float]] = {}
        self.request_spans: list = []
        # Installed by the rack probe: item -> parent span (or None to
        # skip — the enclosing rpc was not sampled).
        self.parent_resolver: Optional[Callable[[Any], Optional[Span]]] = None

    # -- hooks ---------------------------------------------------------------

    def on_doorbell_write(self, doorbell) -> None:
        if doorbell.qid not in self.ready_since:
            self.ready_since[doorbell.qid] = self.system.sim.now

    def on_dequeue(self, qid: int) -> None:
        ready_at = self.ready_since.pop(qid, None)
        now = self.system.sim.now
        wake = now - ready_at if ready_at is not None else 0.0
        self.pending_wakes.setdefault(qid, deque()).append(wake)

    def coherence_cycles(self, item) -> float:
        """Fast model: the constant hierarchy-derived per-task stall."""
        return float(self.system.task_data_stall)

    def on_complete(self, item) -> None:
        # Keep the per-queue wake pairing exact whether or not this
        # item is sampled.
        wakes = self.pending_wakes.get(item.qid)
        wake = wakes.popleft() if wakes else 0.0
        tracer = self.tracer
        parent = None
        if self.parent_resolver is not None:
            parent = self.parent_resolver(item)
            if parent is None:
                return
        elif not tracer.sampled(f"item:{item.item_id}"):
            return
        self._build_spans(item, wake, parent)

    # -- span construction ---------------------------------------------------

    def _build_spans(self, item, wake: float, parent: Optional[Span]) -> None:
        tracer = self.tracer
        arrival = item.arrival_time
        completion = item.completion_time
        dequeue = item.dequeue_time if item.dequeue_time is not None else completion
        root = tracer.begin(
            "request", arrival, parent=parent, item_id=item.item_id, qid=item.qid
        )
        wait_s = dequeue - arrival
        wake_s = _clamped_wake(wake, wait_s)

        queue_span = tracer.begin("queue.wait", arrival, parent=root)
        if wake_s > 0.0:
            queue_span.add_event(dequeue - wake_s, "doorbell_ready")
        tracer.end(queue_span, dequeue)
        service_span = tracer.begin("service", dequeue, parent=root)
        tracer.end(service_span, completion)
        tracer.end(root, completion)

        clock = self.system.clock
        root.attribute_cycles(
            clock.seconds_to_cycles(completion - arrival),
            notify_wait=clock.seconds_to_cycles(wake_s),
            queueing=clock.seconds_to_cycles(max(wait_s - wake_s, 0.0)),
            coherence=self.coherence_cycles(item),
            service=clock.seconds_to_cycles(item.service_time),
        )
        # Only remember spans the tracer actually retained (cap-aware).
        if tracer.spans and tracer.spans[-1] is root:
            self.request_spans.append(root)

    # -- finalization --------------------------------------------------------

    def _mechanism_label(self) -> str:
        return self.system.metrics.label or self.default_label

    def finalize(self) -> None:
        label = self._mechanism_label()
        for span in self.request_spans:
            span.set_attribute("mechanism", label)


def trace_system(tracer: Tracer, system) -> _SystemTraceState:
    """Trace one :class:`~repro.sdp.system.DataPlaneSystem`.

    Subscribes to the doorbell-write, dequeue and completion hooks;
    per completed item a ``request`` root span with ``queue.wait`` /
    ``service`` children and a closed cycle breakdown is recorded,
    subject to the tracer's head sampling by item id.
    """
    state = _SystemTraceState(tracer, system)
    system.doorbell_write_hooks.append(state.on_doorbell_write)
    system.on_dequeue_hooks.append(state.on_dequeue)
    system.completion_hooks.append(state.on_complete)
    tracer.add_finalizer(state.finalize)
    return state


class _StructuralTraceState(_SystemTraceState):
    """Trace state for the execution-driven structural machine.

    Difference from the fast model: the machine's dequeue hook passes
    the dequeue's measured memory cycles (the hook runs once per
    dequeue, at the dequeue instant), so coherence cycles are that
    *measured* latency rather than a derived constant.
    """

    __slots__ = ("pending_coherence", "_coherence_now")

    def __init__(self, tracer: Tracer, machine):
        super().__init__(tracer, machine)
        self.pending_coherence: Dict[int, Deque[float]] = {}
        self._coherence_now = 0.0

    def on_dequeue_memory(self, qid: int, cycles: int) -> None:
        self.on_dequeue(qid)
        self.pending_coherence.setdefault(qid, deque()).append(float(cycles))

    def coherence_cycles(self, item) -> float:
        return self._coherence_now

    def on_complete(self, item) -> None:
        # Pop both per-queue stashes unconditionally (FIFO pairing must
        # stay exact whether or not this item is sampled).
        wakes = self.pending_wakes.get(item.qid)
        wake = wakes.popleft() if wakes else 0.0
        pending = self.pending_coherence.get(item.qid)
        self._coherence_now = pending.popleft() if pending else 0.0
        if self.tracer.sampled(f"item:{item.item_id}"):
            self._build_spans(item, wake, None)

    def _mechanism_label(self) -> str:
        return self.system.metrics.label or "structural"


def trace_structural_machine(tracer: Tracer, machine) -> _StructuralTraceState:
    """Trace one :class:`~repro.structural.machine.StructuralMachine`."""
    state = _StructuralTraceState(tracer, machine)
    for doorbell in machine.doorbells:
        doorbell.add_write_hook(state.on_doorbell_write)
    machine.dequeue_hooks.append(state.on_dequeue_memory)
    machine.completion_hooks.append(state.on_complete)
    tracer.add_finalizer(state.finalize)
    return state


class _RackTraceState:
    """Fleet-level trace state: rpc roots, link spans, redispatches."""

    __slots__ = ("tracer", "rack", "open", "rpc_spans")

    # Entries for requests that never complete (rejections we could not
    # observe, in-flight work at the deadline) are bounded by this.
    MAX_OPEN = 100_000

    def __init__(self, tracer: Tracer, rack):
        self.tracer = tracer
        self.rack = rack
        # (flow, arrival_time) -> {"root": Span, "link": Optional[Span]}
        self.open: Dict[Tuple[int, float], Dict[str, Optional[Span]]] = {}
        self.rpc_spans: list = []

    def on_dispatch(self, flow: int, arrival_time: float, server_id: int) -> None:
        tracer = self.tracer
        key = (flow, arrival_time)
        now = self.rack.sim.now
        entry = self.open.get(key)
        if entry is None:
            if len(self.open) >= self.MAX_OPEN or not tracer.sampled(
                f"rpc:{flow}:{arrival_time!r}"
            ):
                return
            root = tracer.begin("rpc", arrival_time, flow=flow)
            entry = {"root": root, "link": None}
            self.open[key] = entry
        else:
            entry["root"].add_event(now, "redispatch")
        entry["root"].set_attribute("server", server_id)
        entry["link"] = tracer.begin(
            "dispatch.link", now, parent=entry["root"], server=server_id
        )

    def on_delivery(self, flow: int, arrival_time: float, rejected: bool) -> None:
        entry = self.open.get((flow, arrival_time))
        if entry is None:
            return
        now = self.rack.sim.now
        if entry["link"] is not None:
            self.tracer.end(entry["link"], now)
            entry["link"] = None
        if rejected:
            # Dropped at a full ring: close the rpc here — no completion
            # will ever arrive for it.
            root = self.open.pop((flow, arrival_time))["root"]
            root.set_attribute("rejected", True)
            self.tracer.end(root, now)

    def on_complete(self, item) -> None:
        payload = item.payload
        if not (isinstance(payload, tuple) and len(payload) == 3):
            return
        entry = self.open.pop((payload[0], item.arrival_time), None)
        if entry is None:
            return
        now = self.rack.sim.now
        if entry["link"] is not None:
            self.tracer.end(entry["link"], now)
        root = entry["root"]
        self.tracer.end(root, now)
        if self.tracer.spans and self.tracer.spans[-1] is root:
            self.rpc_spans.append(root)

    def parent_for(self, item) -> Optional[Span]:
        payload = item.payload
        if not (isinstance(payload, tuple) and len(payload) == 3):
            return None
        entry = self.open.get((payload[0], item.arrival_time))
        return entry["root"] if entry is not None else None

    def finalize(self) -> None:
        notification = self.rack.config.notification
        for span in self.rpc_spans:
            span.set_attribute("mechanism", f"cluster/{notification}")


def trace_rack(tracer: Tracer, rack) -> _RackTraceState:
    """Trace one :class:`~repro.cluster.rack.Rack`.

    The per-server systems self-traced at build time (same ambient
    tracer); this layer adds what only the fleet sees — an ``rpc`` root
    per sampled request covering dispatch → client-visible completion,
    ``dispatch.link`` child spans per wire transfer (one per
    redispatch), rejection closure — and parents each server-side
    ``request`` span under its rpc, so one trace spans balancer, link,
    queue, notification, and service.
    """
    state = _RackTraceState(tracer, rack)
    rack.dispatch_hooks.append(state.on_dispatch)
    rack.delivery_hooks.append(state.on_delivery)
    for server in rack.servers:
        # Registered after the server's own span probe (subscribed at
        # build time), whose request span must find its rpc still open.
        server.system.completion_hooks.append(state.on_complete)
        probe = getattr(server.system, "_trace_probe", None)
        if probe is not None:
            probe.parent_resolver = state.parent_for
            probe.default_label = f"{rack.config.notification}/server{server.index}"
    tracer.add_finalizer(state.finalize)
    return state


def maybe_trace_system(system) -> Optional[_SystemTraceState]:
    """Self-tracing entry point for :class:`DataPlaneSystem`."""
    from repro.obs.trace import get_active_tracer

    tracer = get_active_tracer()
    if tracer is None:
        return None
    return trace_system(tracer, system)


def maybe_trace_structural_machine(machine) -> Optional[_StructuralTraceState]:
    """Self-tracing entry point for :class:`StructuralMachine`."""
    from repro.obs.trace import get_active_tracer

    tracer = get_active_tracer()
    if tracer is None:
        return None
    return trace_structural_machine(tracer, machine)


def maybe_trace_rack(rack) -> Optional[_RackTraceState]:
    """Self-tracing entry point for :class:`Rack`."""
    from repro.obs.trace import get_active_tracer

    tracer = get_active_tracer()
    if tracer is None:
        return None
    return trace_rack(tracer, rack)
