"""Cache-locality side models for the fast SDP simulation.

Two effects, both derived from the structural memory models:

1. **Empty-poll cost** — cycles to interrogate one empty queue head,
   as a function of how many doorbell lines a core cycles through
   (L1 -> LLC -> DRAM cliffs). Comes from
   :func:`repro.mem.costmodel.empty_poll_cost_curve`.
2. **Task-data stall** — extra memory-stall cycles per task when the
   aggregate task-buffer + queue-metadata footprint exceeds the LLC
   budget available to the data plane (the paper's Fig. 8 FB/PC droop:
   "the total size of task data and queue metadata exceeds the LLC
   size").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.mem.costmodel import CostModel, empty_poll_cost_curve, interpolate_poll_cost
from repro.mem.hierarchy import MemConfig

# Footprint model: each active queue pins ring descriptors and metadata
# plus in-flight task buffers (MTU-sized packets / storage fragments).
PER_QUEUE_FOOTPRINT_BYTES = 8 * 1024
# LLC capacity effectively available to the data plane; tenants and the
# producers use the rest of the shared LLC. Calibrated against Fig. 8's
# FB/PC throughput droop (at 400 queues the per-task stall is ~0.2 us,
# at 1000 queues ~0.8 us for packet encapsulation).
LLC_BUDGET_BYTES = 3 * 1024 * 1024
# Cache lines of task data touched per work item.
TASK_DATA_LINES = 24
# Lines read per queue-head poll: the doorbell word plus the ring head
# descriptor (matches DPDK poll-mode drivers).
LINES_PER_POLL = 2
# L1 capacity effectively available to queue-head lines. Task data, ring
# metadata, stack traffic, and producer-side invalidations leave only a
# quarter of the 32 KB L1D holding poll-visible lines; calibrated against
# the paper's Fig. 3(b) light-load latency slope (polls start missing
# around 64-128 queues).
EFFECTIVE_L1_BYTES = 8 * 1024
# After processing a task, this many subsequent queue-head polls find
# their lines evicted from L1 by the task's data (drives the Fig. 11(a)
# high-load IPC anomaly).
POST_TASK_COLD_POLLS = 32

_CURVE_POINTS = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 384, 512, 640, 768, 1024, 1536, 2048, 3072, 4096,
)


def _polling_mem_config() -> MemConfig:
    """One core with the poll-visible share of the L1 (see module docs)."""
    from repro.mem.cache import CacheConfig

    return MemConfig(num_cores=1, l1=CacheConfig(size_bytes=EFFECTIVE_L1_BYTES, ways=4))


# Poll-cost curves shared across LocalityModel instances. A rack builds
# one model per server, and homogeneous servers derive the exact same
# curve from the exact same inputs; interning it turns 2 structural
# walks per server into 2 per fleet. Keyed by (resident fraction, idle)
# — the only curve inputs besides the memory geometry, which the key is
# valid for only when that geometry is the module default (idle curves
# always use the fixed ``MemConfig(num_cores=1)``; custom ``mem_config``
# models keep their private per-instance cache). :func:`clear_shared_curves`
# empties it.
_SHARED_CURVES: Dict[tuple, Dict[int, float]] = {}
_DEFAULT_POLLING_CONFIG: Optional[MemConfig] = None


def clear_shared_curves() -> None:
    """Drop the fleet-interned poll-cost curves (tests / cold benchmarks)."""
    _SHARED_CURVES.clear()


@dataclass
class LocalityModel:
    """Caches the derived poll-cost curve and data-stall function."""

    cost_model: CostModel
    mem_config: MemConfig = field(default_factory=_polling_mem_config)
    per_queue_footprint: int = PER_QUEUE_FOOTPRINT_BYTES
    llc_budget: int = LLC_BUDGET_BYTES
    task_data_lines: int = TASK_DATA_LINES
    lines_per_poll: int = LINES_PER_POLL
    _curves: Dict[tuple, Dict[int, float]] = field(default_factory=dict, repr=False)

    def llc_resident_fraction(self, num_queues: int) -> float:
        """Fraction of the working set that stays LLC-resident."""
        footprint = num_queues * self.per_queue_footprint
        if footprint <= 0:
            return 1.0
        return min(1.0, self.llc_budget / footprint)

    def empty_poll_cost(
        self,
        polled_queues: int,
        total_queues: Optional[int] = None,
        idle: bool = False,
    ) -> float:
        """Average cycles per empty-queue-head poll.

        ``polled_queues`` is how many doorbell lines this core cycles
        through (its cluster's share); ``total_queues`` (default: same)
        sets the LLC pressure from the whole system's footprint.

        ``idle=True`` models spinning with *no traffic at all* (the
        paper's Fig. 11 "0% load" point): nothing invalidates the polled
        lines and no task data competes for the L1, so the full L1 holds
        them and the loop commits at high IPC. Active scans (``idle=
        False``) race with producer/DMA writes and task-data pollution
        and use the reduced effective L1.
        """
        if polled_queues <= 0:
            raise ValueError("polled_queues must be positive")
        total = total_queues if total_queues is not None else polled_queues
        resident = 1.0 if idle else round(self.llc_resident_fraction(total), 2)
        key = (resident, idle)
        curve = self._curves.get(key)
        if curve is None:
            global _DEFAULT_POLLING_CONFIG
            if _DEFAULT_POLLING_CONFIG is None:
                _DEFAULT_POLLING_CONFIG = _polling_mem_config()
            # With a metrics registry active, skip the interned lookup:
            # the derivation layer's own memo replays the measured mem.*
            # series into the registry on every hit, so instrumented
            # builds emit identical counters whether curves are cached
            # or freshly derived. The interned short-circuit is for the
            # uninstrumented fast path only.
            from repro.obs.runtime import get_active_registry

            shareable = (
                (idle or self.mem_config == _DEFAULT_POLLING_CONFIG)
                and get_active_registry() is None
            )
            if shareable:
                curve = _SHARED_CURVES.get(key)
            if curve is None:
                config = MemConfig(num_cores=1) if idle else self.mem_config
                curve = empty_poll_cost_curve(
                    _CURVE_POINTS,
                    config,
                    llc_doorbell_resident_fraction=resident,
                )
                if shareable:
                    _SHARED_CURVES[key] = curve
            self._curves[key] = curve
        # Each poll touches ``lines_per_poll`` lines out of a working set
        # of lines_per_poll * polled_queues lines.
        per_line = interpolate_poll_cost(curve, self.lines_per_poll * polled_queues)
        return self.lines_per_poll * per_line + self.cost_model.poll_loop_overhead

    def task_data_stall_cycles(self, total_queues: int) -> float:
        """Extra memory-stall cycles per task from LLC overflow."""
        resident = self.llc_resident_fraction(total_queues)
        miss_fraction = 1.0 - resident
        per_line_penalty = self.cost_model.dram - self.cost_model.llc_hit
        return miss_fraction * self.task_data_lines * per_line_penalty
