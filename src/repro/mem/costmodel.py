"""Cycle-cost extraction from the structural memory models.

The figure sweeps (1000 queues, millions of polls) cannot afford a
structural cache access per poll in Python, so the SDP simulation runs on
a :class:`CostModel`: a table of per-operation cycle costs plus the
*empty-poll cost curve* — average cycles to interrogate one empty queue
head, as a function of the total doorbell count. The curve is derived by
actually running a polling loop through :class:`MemoryHierarchy`, so L1
capacity, associativity conflicts, and LLC pressure come from the model
rather than hand-waving.

Cold derivation
---------------
Each curve point polls ``n`` doorbell lines round after round through a
private, snooper-free hierarchy. After every round the derivation
compares the hierarchy's whole state (:meth:`MemoryHierarchy.state`:
L1 and LLC tag arrays and fill counts, ``last_evicted``, the
directory's line entries) with its state after the previous round. If
they are equal, the round ended where it started, so the next round
starts there too, issues the same addresses, returns the same results
and adds the same counter increments, and so does every round after
it. From that point the derivation re-sums that round's results for
each remaining measure round, in order (so float totals match to the
last bit), and adds its counter deltas once per skipped round. The
check is made after every round, never assumed; a state that has not
repeated runs every round. A cyclic LRU scan, which is what a polling
loop is, repeats after its first round, so a point costs two rounds
instead of four. The differential suite pins the result against a
derivation on the frozen reference models (``tests/oracles/mem.py``)
that runs every round.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace
from typing import Dict, Optional, Tuple

from repro.mem.address import CACHE_LINE_BYTES
from repro.mem.hierarchy import MemConfig, MemoryHierarchy

# Paper constants (Section IV-C / V-D), in cycles at 3 GHz where stated in ns.
QWAIT_LATENCY_CYCLES = 50  # "conservatively considered ... 50 cycles"
MONITORING_LOOKUP_CYCLES = 5  # "within 5 CPU cycles"
READY_SET_SELECT_NS = 12.25  # RTL-reported ready-set latency
C1_WAKEUP_US = 0.5  # C1 -> C0 transition (paper V-D, ~0.5 us)


@dataclass(frozen=True)
class CostModel:
    """Per-operation cycle costs consumed by the fast SDP simulation."""

    l1_hit: int = 4
    llc_hit: int = 50
    dram: int = 210
    remote_transfer: int = 80
    atomic_rmw: int = 20
    # Polling loop bookkeeping per queue visited (index arithmetic,
    # branch) on an aggressive OoO core.
    poll_loop_overhead: int = 2
    # Dequeue of one work item from a ring (head/tail update + item read).
    dequeue: int = 30
    # Doorbell decrement by the consumer (atomic on an L1-resident line).
    doorbell_update: int = 24
    # Spinlock acquire/release given the lock line is already local.
    lock_uncontended: int = 40
    # HyperPlane instruction costs.
    qwait: int = QWAIT_LATENCY_CYCLES
    qwait_verify: int = 12
    qwait_reconsider: int = 12
    monitoring_lookup: int = MONITORING_LOOKUP_CYCLES
    # C1 wake-up penalty, in cycles (filled in by derive_cost_model).
    c1_wakeup: int = 1500

    def scaled(self, factor: float) -> "CostModel":
        """Return a copy with every memory-ish cost scaled by ``factor``."""
        return replace(
            self,
            llc_hit=round(self.llc_hit * factor),
            dram=round(self.dram * factor),
            remote_transfer=round(self.remote_transfer * factor),
        )


def derive_cost_model(
    mem_config: Optional[MemConfig] = None,
    frequency_hz: float = 3.0e9,
) -> CostModel:
    """Build a :class:`CostModel` grounded in a hierarchy's latencies."""
    cfg = mem_config or MemConfig()
    lat = cfg.latencies
    return CostModel(
        l1_hit=lat.l1_hit,
        llc_hit=lat.directory_lookup + lat.llc_hit,
        dram=lat.directory_lookup + lat.dram,
        remote_transfer=lat.directory_lookup + lat.remote_transfer,
        c1_wakeup=round(C1_WAKEUP_US * 1e-6 * frequency_hz),
    )


# -- derivation memo ---------------------------------------------------------
#
# Curve derivation is by far the most expensive step of building a
# data-plane system (hundreds of thousands of structural cache accesses),
# and figure sweeps rebuild systems with identical derivation inputs at
# every grid point. The derivation is a pure function of its inputs, so
# one process-wide memo collapses a sweep's N derivations into one. Each
# memo entry also stores the aggregate hierarchy-counter snapshot, so a
# cache hit folds the same ``mem.*`` increments into an active metrics
# registry that a fresh measurement would have — instrumented runs see
# identical metrics either way. :func:`clear_curve_cache` forces the
# next call to derive afresh.

_CURVE_CACHE: Dict[tuple, Tuple[Dict[int, float], Dict[str, float]]] = {}
_CURVE_CACHE_STATS = {"hits": 0, "misses": 0}


def _mem_config_key(cfg: MemConfig) -> tuple:
    """A hashable identity for a hierarchy geometry + latency table."""
    return (
        cfg.num_cores,
        (cfg.l1.size_bytes, cfg.l1.ways, cfg.l1.line_bytes),
        (cfg.llc_per_core.size_bytes, cfg.llc_per_core.ways, cfg.llc_per_core.line_bytes),
        astuple(cfg.latencies),
    )


def clear_curve_cache() -> None:
    """Drop every memoized curve (tests and calibration sweeps)."""
    _CURVE_CACHE.clear()
    _CURVE_CACHE_STATS["hits"] = 0
    _CURVE_CACHE_STATS["misses"] = 0


def curve_cache_info() -> Dict[str, int]:
    """Memo occupancy and hit/miss counts since the last clear."""
    return {"entries": len(_CURVE_CACHE), **_CURVE_CACHE_STATS}


def empty_poll_cost_curve(
    queue_counts,
    mem_config: Optional[MemConfig] = None,
    llc_doorbell_resident_fraction: float = 1.0,
    warmup_rounds: int = 2,
    measure_rounds: int = 2,
) -> Dict[int, float]:
    """Average cycles per empty-queue poll vs. total doorbell count.

    For each queue count ``n`` this runs a single core round-robin-polling
    ``n`` doorbell lines (one per cache line, as the driver lays them out)
    through the structural hierarchy, and averages the measured read
    latency over the steady-state rounds. Rounds that provably repeat
    the previous one are replayed rather than run (module notes above).

    ``llc_doorbell_resident_fraction`` models competition for LLC capacity
    from task data: the fraction of doorbell-line LLC refs that actually
    hit (Fig. 8's FB/PC droop comes from this fraction falling once task
    data exceeds the LLC).

    Derivations are memoized process-wide by their full input identity;
    see the memo notes above. Every input is checked before any work.
    """
    counts = tuple(queue_counts)
    if not 0.0 <= llc_doorbell_resident_fraction <= 1.0:
        raise ValueError("resident fraction must be within [0, 1]")
    if any(count <= 0 for count in counts):
        raise ValueError("queue counts must be positive")
    if warmup_rounds < 0 or measure_rounds < 1:
        raise ValueError("need warmup_rounds >= 0 and measure_rounds >= 1")
    # The fast simulation never touches the structural models at run
    # time — these derivation runs are where mem.* cache/coherence
    # behaviour is actually measured, so fold each measured hierarchy's
    # counters into the ambient registry (if observability is on).
    from repro.obs.probes import hierarchy_stats_snapshot, replay_hierarchy_stats
    from repro.obs.runtime import get_active_registry

    registry = get_active_registry()
    cfg = mem_config or MemConfig(num_cores=1)

    key = (
        counts,
        _mem_config_key(cfg),
        llc_doorbell_resident_fraction,
        warmup_rounds,
        measure_rounds,
    )
    cached = _CURVE_CACHE.get(key)
    if cached is not None:
        _CURVE_CACHE_STATS["hits"] += 1
        curve, stats = cached
        if registry is not None:
            replay_hierarchy_stats(registry, stats)
        return dict(curve)
    _CURVE_CACHE_STATS["misses"] += 1

    lat = cfg.latencies
    # Expected latency of an LLC doorbell ref when some spill to DRAM.
    llc_latency = (
        llc_doorbell_resident_fraction * (lat.directory_lookup + lat.llc_hit)
        + (1.0 - llc_doorbell_resident_fraction) * (lat.directory_lookup + lat.dram)
    )
    spills = llc_doorbell_resident_fraction < 1.0
    results: Dict[int, float] = {}
    aggregate_stats: Dict[str, float] = {}
    for count in counts:
        hierarchy = MemoryHierarchy(cfg)
        base = 0x1000_0000
        addrs = [base + i * CACHE_LINE_BYTES for i in range(count)]
        state = hierarchy.state()
        stats = hierarchy_stats_snapshot(hierarchy)
        repeat = None  # counter deltas of a round that left the state as it was
        total = 0
        samples = 0
        for round_no in range(warmup_rounds + measure_rounds):
            if repeat is None:
                # One batched call per polling round (identical results
                # to per-address hierarchy.read(0, addr)).
                round_results = hierarchy.access_stream(0, addrs)
                after = hierarchy_stats_snapshot(hierarchy)
                new_state = hierarchy.state()
                if new_state == state:
                    repeat = {name: after[name] - stats[name] for name in after}
                state, stats = new_state, after
            else:
                # Fixed point: this round would replay the last one.
                for name, delta in repeat.items():
                    stats[name] += delta
            if round_no < warmup_rounds:
                continue
            for result in round_results:
                if spills and result.level == "LLC":
                    total += llc_latency
                else:
                    total += result.latency
                samples += 1
        results[count] = total / samples

        for name, value in stats.items():
            aggregate_stats[name] = aggregate_stats.get(name, 0.0) + value
        if registry is not None:
            replay_hierarchy_stats(registry, stats)
    _CURVE_CACHE[key] = (dict(results), aggregate_stats)
    return results


def interpolate_poll_cost(curve: Dict[int, float], count: int) -> float:
    """Piecewise-linear lookup into a poll-cost curve."""
    if count in curve:
        return curve[count]
    keys = sorted(curve)
    if count <= keys[0]:
        return curve[keys[0]]
    if count >= keys[-1]:
        return curve[keys[-1]]
    for low, high in zip(keys, keys[1:]):
        if low < count < high:
            span = high - low
            weight = (count - low) / span
            return curve[low] * (1 - weight) + curve[high] * weight
    raise AssertionError("unreachable")  # pragma: no cover
