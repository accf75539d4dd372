"""Standard probes for each model layer.

Each ``instrument_*`` function wires one component into a
:class:`~repro.obs.registry.MetricsRegistry` under a stable prefix:

========  =====================================================
prefix    component
========  =====================================================
``sim``   the discrete-event engine (events, heap depth, wakes)
``sdp``   a data-plane system (occupancy, queue depth, wake latency)
``mem``   the structural memory models (hits, misses, coherence)
``cluster``  a rack (per-server and fleet rollups)
========  =====================================================

Components self-instrument when built inside an
:func:`repro.obs.runtime.active_registry` scope, so these functions are
mostly called by the models themselves; call them directly to
instrument hand-built systems.

Probe naming scheme (see ``docs/observability.md``): dotted lower-case
paths, ``<layer>.<component>.<quantity>``, with per-instance components
numbered (``sdp.core0.busy_cycles``). Pull gauges read their source at
collect time and cost nothing while the simulation runs; counters,
histograms, and timeseries record from hooks that only exist when a
registry is enabled.
"""

from __future__ import annotations

import weakref
from typing import Dict

from repro.obs.registry import MetricsRegistry

# Exponential sim-time latency buckets: 100 ns .. ~0.1 s.
LATENCY_BUCKETS = tuple(1e-7 * (10 ** (i / 2)) for i in range(13))


def instrument_simulator(registry: MetricsRegistry, sim, prefix: str = "sim") -> None:
    """Pull gauges over an engine's native accounting (zero run cost)."""
    registry.gauge(
        f"{prefix}.events_dispatched",
        help="callbacks executed by the event loop",
        fn=lambda: sim.events_dispatched,
    )
    registry.gauge(
        f"{prefix}.heap_depth",
        help="callbacks currently pending in the heap",
        fn=lambda: sim.pending,
    )
    registry.gauge(
        f"{prefix}.process_wakes",
        help="generator-process resumptions",
        fn=lambda: sim.process_wakes,
    )
    registry.gauge(
        f"{prefix}.now_seconds", help="current simulated time", fn=lambda: sim.now
    )


def instrument_system(registry: MetricsRegistry, system, prefix: str = "sdp") -> None:
    """Instrument one :class:`~repro.sdp.system.DataPlaneSystem`.

    Installs doorbell/dequeue hooks (enqueue and dequeue counters, an
    incrementally-tracked queue-depth timeline, and a notification
    wake-latency histogram), per-core occupancy pull gauges, and engine
    gauges for the system's simulator. The queue-depth timeline is
    sampled *on change* from the hooks — no sampler process is
    scheduled, so instrumentation never perturbs event ordering or run
    termination. It samples one running total per simulator timeline,
    so the servers of a rack or a dist worker, which share one, add
    into the same total.
    """
    instrument_simulator(registry, system.sim, prefix="sim")

    enqueues = registry.counter(
        f"{prefix}.enqueues", help="doorbell writes observed (one per enqueue)"
    )
    dequeues = registry.counter(f"{prefix}.dequeues", help="items taken by cores")
    depth_series = registry.timeseries(
        f"{prefix}.queue_depth",
        help="total queued items across all queues (periodic samples)",
    )
    wake_latency = registry.histogram(
        f"{prefix}.notification_wake_latency_seconds",
        help="doorbell write of an idle queue -> first dequeue from it",
        buckets=LATENCY_BUCKETS,
    )
    registry.gauge(
        f"{prefix}.completions",
        help="post-warm-up completions recorded",
        fn=lambda: system.metrics.latency.count,
    )
    registry.gauge(
        f"{prefix}.spurious_wakeups",
        help="QWAIT-VERIFY-filtered wake-ups",
        fn=lambda: system.metrics.spurious_wakeups,
    )

    for index, activity in enumerate(system.metrics.activities):
        core = f"{prefix}.core{index}"
        registry.gauge(
            f"{core}.busy_cycles",
            help="cycles doing task work or polling",
            fn=(lambda a: lambda: a.busy_cycles)(activity),
        )
        registry.gauge(
            f"{core}.halted_cycles",
            help="cycles halted in QWAIT",
            fn=(lambda a: lambda: a.halted_cycles)(activity),
        )
        registry.gauge(
            f"{core}.occupancy",
            help="busy fraction of total cycles",
            fn=(lambda a: lambda: (a.busy_cycles / a.total_cycles if a.total_cycles else 0.0))(
                activity
            ),
        )
        registry.gauge(
            f"{core}.tasks",
            help="tasks completed by this core",
            fn=(lambda a: lambda: a.tasks)(activity),
        )

    depth = _TIMELINE_DEPTHS.setdefault(system.sim, {}).setdefault(depth_series, [0])
    state = _SystemProbeState(
        registry, system, depth_series, depth, wake_latency, enqueues, dequeues
    )
    system.doorbell_write_hooks.append(state.on_doorbell_write)
    system.on_dequeue_hooks.append(state.on_dequeue)


# simulator -> {depth series: [items queued across the instrumented
# systems on that timeline]}. Keyed weakly by the simulator the caller
# created, so the totals live exactly as long as their timeline.
_TIMELINE_DEPTHS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class _SystemProbeState:
    """Hook-side state for one instrumented data-plane system."""

    __slots__ = (
        "registry",
        "system",
        "depth_series",
        "depth",
        "wake_latency",
        "enqueues",
        "dequeues",
        "ready_since",
    )

    def __init__(
        self, registry, system, depth_series, depth, wake_latency, enqueues, dequeues
    ):
        self.registry = registry
        self.system = system
        self.depth_series = depth_series
        # One-item list shared with every system on the same timeline.
        self.depth = depth
        self.wake_latency = wake_latency
        self.enqueues = enqueues
        self.dequeues = dequeues
        # qid -> time its doorbell first rang while it was idle.
        self.ready_since: Dict[int, float] = {}

    def on_doorbell_write(self, doorbell) -> None:
        self.enqueues.inc()
        depth = self.depth
        depth[0] += 1
        self.depth_series.sample(self.system.sim.now, float(depth[0]))
        if doorbell.qid not in self.ready_since:
            self.ready_since[doorbell.qid] = self.system.sim.now

    def on_dequeue(self, qid: int) -> None:
        self.dequeues.inc()
        depth = self.depth
        depth[0] -= 1
        self.depth_series.sample(self.system.sim.now, float(depth[0]))
        ready_at = self.ready_since.pop(qid, None)
        if ready_at is not None:
            self.wake_latency.observe(self.system.sim.now - ready_at)


def hierarchy_stats_snapshot(hierarchy) -> Dict[str, float]:
    """A plain-dict snapshot of a hierarchy's cumulative counters.

    The snapshot is what :func:`instrument_hierarchy` records, detached
    from the live objects — picklable, mergeable by addition, and
    replayable into a registry later. The cost-curve memo
    (:mod:`repro.mem.costmodel`) stores one per derivation so cache
    hits fold in the *same* ``mem.*`` increments a fresh derivation
    would have.
    """
    from repro.mem.coherence import TransactionKind

    stats = {
        "l1.hits": float(sum(l1.stats.hits for l1 in hierarchy.l1s)),
        "l1.misses": float(sum(l1.stats.misses for l1 in hierarchy.l1s)),
        "llc.hits": float(hierarchy.llc.stats.hits),
        "llc.misses": float(hierarchy.llc.stats.misses),
        "llc.evictions": float(hierarchy.llc.stats.evictions),
    }
    for kind in TransactionKind:
        stats[f"coherence.{kind.name.lower()}"] = float(
            hierarchy.directory.transactions[kind]
        )
    return stats


_STATS_HELP = {
    "l1.hits": "L1 hits (all cores)",
    "l1.misses": "L1 misses (all cores)",
    "llc.hits": "LLC hits",
    "llc.misses": "LLC misses",
    "llc.evictions": "LLC evictions",
}


def replay_hierarchy_stats(
    registry: MetricsRegistry, stats: Dict[str, float], prefix: str = "mem"
) -> None:
    """Fold a :func:`hierarchy_stats_snapshot` into ``registry``.

    Registers the same counters and hit-rate gauges as instrumenting the
    live hierarchy would, so memoized and freshly-measured derivations
    are indistinguishable in the collected metrics.
    """
    for name, value in stats.items():
        help_text = _STATS_HELP.get(name)
        if help_text is None and name.startswith("coherence."):
            help_text = f"directory {name.split('.', 1)[1]} transactions"
        registry.counter(f"{prefix}.{name}", help=help_text or "").inc(value)

    def hit_rate(hits_name: str, misses_name: str):
        def read() -> float:
            hits = registry.get(hits_name).value
            misses = registry.get(misses_name).value
            total = hits + misses
            return hits / total if total else 0.0

        return read

    registry.gauge(
        f"{prefix}.l1.hit_rate",
        help="cumulative L1 hit rate over all measured hierarchies",
        fn=hit_rate(f"{prefix}.l1.hits", f"{prefix}.l1.misses"),
    )
    registry.gauge(
        f"{prefix}.llc.hit_rate",
        help="cumulative LLC hit rate over all measured hierarchies",
        fn=hit_rate(f"{prefix}.llc.hits", f"{prefix}.llc.misses"),
    )


def instrument_hierarchy(registry: MetricsRegistry, hierarchy, prefix: str = "mem") -> None:
    """Fold a structural :class:`~repro.mem.hierarchy.MemoryHierarchy`'s
    counters into the registry (cumulative across hierarchies).

    The fast SDP simulation runs on cost curves *derived* from these
    structural models (:mod:`repro.mem.costmodel`), so the derivation
    calls this on every curve it measures: the ``mem.*`` probes describe
    the cache behaviour that produced the cycle costs in use.
    """
    replay_hierarchy_stats(registry, hierarchy_stats_snapshot(hierarchy), prefix=prefix)


def instrument_rack(registry: MetricsRegistry, rack, prefix: str = "cluster") -> None:
    """Fleet rollups and per-server gauges for one :class:`~repro.cluster.rack.Rack`.

    The per-server data planes instrument themselves (shared ``sdp.*``
    aggregates — they run on the rack's shared timeline); this layer adds
    what only the fleet view knows: client-visible tails, loss and
    failover accounting, and per-server health/completion gauges.
    """
    instrument_simulator(registry, rack.sim, prefix="sim")
    metrics = rack.metrics
    fleet = f"{prefix}.fleet"
    registry.gauge(f"{fleet}.p50_latency_us", help="client-visible P2 median",
                   fn=lambda: metrics.p50_us)
    registry.gauge(f"{fleet}.p99_latency_us", help="client-visible P2 99th percentile",
                   fn=lambda: metrics.p99_us)
    registry.gauge(f"{fleet}.p999_latency_us", help="client-visible P2 99.9th percentile",
                   fn=lambda: metrics.p999_us)
    registry.gauge(f"{fleet}.throughput_mtps", help="client-visible completion rate",
                   fn=lambda: metrics.throughput_mtps)
    registry.gauge(f"{fleet}.completed", help="client-visible completions",
                   fn=lambda: metrics.count)
    registry.gauge(f"{fleet}.dispatched", help="requests steered by the balancer",
                   fn=lambda: metrics.dispatched)
    registry.gauge(f"{fleet}.lost", help="responses lost to crashes/staleness",
                   fn=lambda: metrics.lost)
    registry.gauge(f"{fleet}.redispatched", help="failover re-dispatches",
                   fn=lambda: metrics.redispatched)
    registry.gauge(f"{fleet}.rejected", help="requests dropped at full queues",
                   fn=lambda: metrics.rejected)
    registry.gauge(f"{fleet}.hottest_share", help="largest per-server completion share",
                   fn=lambda: metrics.hottest_share)
    for index, server in enumerate(rack.servers):
        base = f"{prefix}.server{index}"
        registry.gauge(f"{base}.up", help="1 while in the balancer pool",
                       fn=(lambda s: lambda: 1.0 if s.up else 0.0)(server))
        registry.gauge(f"{base}.completed", help="client-visible completions served",
                       fn=(lambda s: lambda: s.completed_ok)(server))
        registry.gauge(f"{base}.dispatched", help="requests steered to this server",
                       fn=(lambda s: lambda: s.dispatched)(server))

