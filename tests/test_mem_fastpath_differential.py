"""Differential fuzz: fast memory models vs. the retained references.

The fast implementations in ``repro.mem`` (flat-array caches,
table-driven directory, batched access streams) promise bit-identical
observable behaviour to the originals preserved in
``tests.oracles.mem``. These tests drive both sides with identical
seeded random scripts and compare everything observable after every
operation: results, stats, ``last_evicted``, transaction counters,
snoop-callback sequences, MESI states, and invariants. The curve-level
oracle at the end re-derives whole empty-poll cost curves on the
reference models, running every polling round, and compares them with
:func:`repro.mem.costmodel.empty_poll_cost_curve`.
"""

import random

import pytest

from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.mem.coherence import Directory, LatencyConfig, TransactionKind
from repro.mem.costmodel import clear_curve_cache, empty_poll_cost_curve
from repro.mem.hierarchy import MemConfig, MemoryHierarchy
from repro.obs.probes import hierarchy_stats_snapshot
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import active_registry
from repro.sdp.locality import _CURVE_POINTS, _polling_mem_config
from tests.oracles.mem import (
    ReferenceDirectory,
    ReferenceMemoryHierarchy,
    ReferenceSetAssociativeCache,
    build_reference_pair,
)

LINE = 64


def small_mem_config(num_cores: int = 3) -> MemConfig:
    """Tiny caches so random scripts hit capacity and conflict paths."""
    return MemConfig(
        num_cores=num_cores,
        l1=CacheConfig(size_bytes=512, ways=2),  # 4 sets
        llc_per_core=CacheConfig(size_bytes=1024, ways=4),  # few sets total
    )


def assert_cache_state_equal(fast: SetAssociativeCache, ref: ReferenceSetAssociativeCache):
    assert fast.stats == ref.stats
    assert fast.last_evicted == ref.last_evicted
    assert fast.resident_lines() == ref.resident_lines()


def assert_hierarchy_state_equal(fast: MemoryHierarchy, ref: ReferenceMemoryHierarchy):
    for fast_l1, ref_l1 in zip(fast.l1s, ref.l1s):
        assert_cache_state_equal(fast_l1, ref_l1)
    assert_cache_state_equal(fast.llc, ref.llc)
    assert fast.directory.transactions == ref.directory.transactions


@pytest.mark.parametrize("seed", range(5))
def test_cache_differential(seed):
    rng = random.Random(seed)
    fast = SetAssociativeCache(size_bytes=512, ways=2, name="fast")
    ref = ReferenceSetAssociativeCache(size_bytes=512, ways=2, name="ref")
    # More lines than capacity so evictions and conflicts are common.
    lines = [0x4000 + i * LINE for i in range(24)]
    for _ in range(3000):
        op = rng.random()
        addr = rng.choice(lines) + rng.randrange(LINE)  # unaligned too
        if op < 0.70:
            assert fast.access(addr) == ref.access(addr)
        elif op < 0.85:
            assert fast.invalidate(addr) == ref.invalidate(addr)
        elif op < 0.99:
            assert fast.contains(addr) == ref.contains(addr)
        else:
            fast.flush()
            ref.flush()
        assert_cache_state_equal(fast, ref)


@pytest.mark.parametrize("seed", range(5))
def test_directory_differential(seed):
    rng = random.Random(100 + seed)
    num_cores = 4
    fast = Directory(num_cores)
    ref = ReferenceDirectory(num_cores)
    lines = [0x8000 + i * LINE for i in range(12)]
    snooped = set(lines[::3])
    fast_snoops, ref_snoops = [], []
    fast.add_snooper(snooped.__contains__, lambda *a: fast_snoops.append(a))
    ref.add_snooper(snooped.__contains__, lambda *a: ref_snoops.append(a))
    for _ in range(4000):
        core = rng.randrange(num_cores)
        line = rng.choice(lines)
        in_llc = rng.random() < 0.5
        op = rng.random()
        if op < 0.45:
            assert fast.read(core, line, in_llc) == ref.read(core, line, in_llc)
        elif op < 0.85:
            assert fast.write(core, line, in_llc) == ref.write(core, line, in_llc)
        else:
            fast.evict(core, line)
            ref.evict(core, line)
        assert fast_snoops == ref_snoops
        assert fast.transactions == ref.transactions
        assert fast.sharer_count(line) == ref.sharer_count(line)
        assert fast.state_of(core, line) is ref.state_of(core, line)
    for line in lines:
        for core in range(num_cores):
            assert fast.state_of(core, line) is ref.state_of(core, line)
    fast.check_invariants()
    ref.check_invariants()


def test_directory_custom_latency_table_matches():
    lat = LatencyConfig(l1_hit=3, llc_hit=31, dram=177, remote_transfer=55, directory_lookup=7)
    fast = Directory(2, lat)
    ref = ReferenceDirectory(2, lat)
    line = 0x1000
    ops = [
        ("w", 0, line, False),
        ("r", 1, line, True),
        ("w", 1, line, True),  # upgrade with invalidation
        ("r", 0, line, True),
        ("r", 1, line, True),
        ("w", 0, line, False),  # upgrade from shared
        ("e", 0, line, None),
        ("w", 1, line, True),
    ]
    for op, core, ln, in_llc in ops:
        if op == "r":
            assert fast.read(core, ln, in_llc) == ref.read(core, ln, in_llc)
        elif op == "w":
            assert fast.write(core, ln, in_llc) == ref.write(core, ln, in_llc)
        else:
            fast.evict(core, ln)
            ref.evict(core, ln)
    assert fast.transactions == ref.transactions


@pytest.mark.parametrize("seed", range(4))
def test_hierarchy_differential(seed):
    rng = random.Random(200 + seed)
    cfg = small_mem_config()
    fast, ref = build_reference_pair(cfg)
    snoop_lines = {0x4000 + i * LINE for i in range(0, 40, 5)}
    fast_snoops, ref_snoops = [], []
    fast.add_snooper(snoop_lines.__contains__, lambda *a: fast_snoops.append(a))
    ref.add_snooper(snoop_lines.__contains__, lambda *a: ref_snoops.append(a))
    addrs = [0x4000 + i * LINE for i in range(40)]
    for _ in range(3000):
        core = rng.randrange(cfg.num_cores)
        addr = rng.choice(addrs) + rng.randrange(LINE)
        if rng.random() < 0.6:
            assert fast.read(core, addr) == ref.read(core, addr)
        else:
            assert fast.write(core, addr) == ref.write(core, addr)
        assert fast_snoops == ref_snoops
    assert_hierarchy_state_equal(fast, ref)
    fast.check_invariants()
    ref.check_invariants()


@pytest.mark.parametrize("seed", range(4))
def test_access_stream_differential(seed):
    """access_stream == the same per-call sequence, results and state."""
    rng = random.Random(300 + seed)
    cfg = small_mem_config()
    streamed = MemoryHierarchy(cfg)
    percall, ref = build_reference_pair(cfg)
    addrs = [0x4000 + i * LINE for i in range(40)]
    for _ in range(60):
        core = rng.randrange(cfg.num_cores)
        write = rng.random() < 0.3
        batch = [rng.choice(addrs) for _ in range(rng.randrange(1, 30))]
        got = streamed.access_stream(core, batch, write=write)
        expected = [
            (percall.write(core, a) if write else percall.read(core, a)) for a in batch
        ]
        reference = [(ref.write(core, a) if write else ref.read(core, a)) for a in batch]
        assert got == expected == reference
        assert_hierarchy_state_equal(streamed, percall)
        assert_hierarchy_state_equal(streamed, ref)
    streamed.check_invariants()
    percall.check_invariants()
    ref.check_invariants()


def test_access_stream_steady_state_polling_pattern():
    """The doorbell-scan shape: repeated reads of a fixed line set."""
    cfg = small_mem_config(num_cores=2)
    streamed = MemoryHierarchy(cfg)
    percall, ref = build_reference_pair(cfg)
    doorbells = [0x10000 + i * LINE for i in range(4)]
    sweep = doorbells * 50
    got = streamed.access_stream(0, sweep)
    expected = [percall.read(0, a) for a in sweep]
    reference = [ref.read(0, a) for a in sweep]
    assert got == expected == reference
    # A remote write invalidates; the next sweep must re-diverge identically.
    assert streamed.write(1, doorbells[2]) == percall.write(1, doorbells[2])
    ref.write(1, doorbells[2])
    got = streamed.access_stream(0, sweep)
    expected = [percall.read(0, a) for a in sweep]
    reference = [ref.read(0, a) for a in sweep]
    assert got == expected == reference
    assert_hierarchy_state_equal(streamed, percall)
    assert_hierarchy_state_equal(streamed, ref)


def test_access_stream_cycle_budget_is_a_prefix():
    """A budgeted stream stops early but never diverges: it returns a
    prefix of the unbudgeted result sequence, stopping only after the
    access that reaches the budget."""
    cfg = small_mem_config(num_cores=1)
    budgeted = MemoryHierarchy(cfg)
    unbudgeted = MemoryHierarchy(cfg)
    addrs = [0x4000 + i * LINE for i in range(30)]
    full = unbudgeted.access_stream(0, addrs)
    got = budgeted.access_stream(0, addrs, cycle_budget=300)
    assert 0 < len(got) <= len(full)
    assert got == full[: len(got)]
    spent = sum(r.latency for r in got)
    assert spent >= 300 or len(got) == len(full)
    # All but the last access stayed under budget.
    assert spent - got[-1].latency < 300
    # Continuing from where the budget stopped matches the tail.
    rest = budgeted.access_stream(0, addrs[len(got) :])
    assert rest == full[len(got) :]
    assert_cache_state_equal(budgeted.llc, unbudgeted.llc)


def test_steady_read_probe_and_bulk_commit():
    """all_steady_reads is non-mutating and commit_steady_reads matches
    issuing the reads one by one."""
    cfg = small_mem_config(num_cores=2)
    bulk = MemoryHierarchy(cfg)
    percall = MemoryHierarchy(cfg)
    doorbells = [0x10000 + i * LINE for i in range(3)]
    # Cold: nothing is steady, and probing changes nothing.
    assert not bulk.all_steady_reads(0, doorbells)
    assert bulk.l1s[0].stats.accesses == 0
    for h in (bulk, percall):
        for a in doorbells:
            h.read(0, a)
    assert bulk.all_steady_reads(0, doorbells)
    before = bulk.directory.transactions
    # 5 full sweeps: bulk commit vs. per-call reads.
    bulk.commit_steady_reads(0, 5 * len(doorbells))
    for _ in range(5):
        for a in doorbells:
            result = percall.read(0, a)
            assert result.hit and result.level == "L1"
    assert_cache_state_equal(bulk.l1s[0], percall.l1s[0])
    assert_cache_state_equal(bulk.llc, percall.llc)
    assert bulk.directory.transactions == before == percall.directory.transactions
    # A foreign write breaks steadiness (the probe notices).
    bulk.write(1, doorbells[0])
    assert not bulk.all_steady_reads(0, doorbells)


# -- curve-level oracle -------------------------------------------------------


def reference_curve(counts, cfg, resident, warmup_rounds, measure_rounds):
    """The cost-curve derivation on the reference models, every round run.

    Returns the curve and the aggregate counter snapshot over all its
    hierarchies, as the cost-curve memo stores it.
    """
    lat = cfg.latencies
    curve, aggregate = {}, {}
    for count in counts:
        hierarchy = ReferenceMemoryHierarchy(cfg)
        addrs = [0x1000_0000 + i * LINE for i in range(count)]
        for _ in range(warmup_rounds):
            for addr in addrs:
                hierarchy.read(0, addr)
        total = 0
        samples = 0
        for _ in range(measure_rounds):
            for addr in addrs:
                result = hierarchy.read(0, addr)
                latency = result.latency
                if result.level == "LLC" and resident < 1.0:
                    latency = resident * (lat.directory_lookup + lat.llc_hit) + (
                        1.0 - resident
                    ) * (lat.directory_lookup + lat.dram)
                total += latency
                samples += 1
        curve[count] = total / samples
        for name, value in hierarchy_stats_snapshot(hierarchy).items():
            aggregate[name] = aggregate.get(name, 0.0) + value
    return curve, aggregate


def _mem_counters(registry):
    return {
        record["name"]: record["value"]
        for record in registry.collect()
        if record["name"].startswith("mem.") and record["type"] == "counter"
    }


def _small_llc_config():
    # A 1,024-line LLC under counts up to 2,048: DRAM fills and LLC evictions.
    return MemConfig(
        num_cores=1,
        l1=CacheConfig(size_bytes=8 * 1024, ways=4),
        llc_per_core=CacheConfig(size_bytes=64 * 1024, ways=16),
    )


_CLIFF_COUNTS = (1, 64, 96, 128, 160, 384, 1024)

CURVE_CASES = {
    "active-l1-8k": (_polling_mem_config, _CURVE_POINTS, 1.0, 2, 2),
    "idle-l1-32k": (lambda: MemConfig(num_cores=1), _CURVE_POINTS, 1.0, 2, 2),
    "four-cores": (lambda: MemConfig(num_cores=4), (64, 256, 1024, 4096), 1.0, 2, 2),
    "resident-0.37": (_polling_mem_config, _CLIFF_COUNTS, 0.37, 2, 2),
    "rounds-0-1": (_polling_mem_config, _CLIFF_COUNTS, 0.73, 0, 1),
    "rounds-1-3": (_polling_mem_config, _CLIFF_COUNTS, 0.73, 1, 3),
    "rounds-3-1": (_polling_mem_config, _CLIFF_COUNTS, 0.73, 3, 1),
    "rounds-2-2": (_polling_mem_config, _CLIFF_COUNTS, 0.73, 2, 2),
    "small-llc": (_small_llc_config, (64, 512, 1024, 1536, 2048), 0.5, 2, 2),
}


@pytest.mark.parametrize("case", sorted(CURVE_CASES))
def test_cost_curve_matches_reference_derivation(case):
    """Curves and mem.* counters equal a derivation on the reference
    models that runs every warm-up and measure round."""
    make_config, counts, resident, warmup, measure = CURVE_CASES[case]
    cfg = make_config()
    expected_curve, expected_stats = reference_curve(counts, cfg, resident, warmup, measure)
    expected_counters = {f"mem.{name}": value for name, value in expected_stats.items()}
    if case == "small-llc":
        assert expected_stats["llc.evictions"] > 0

    def derive():
        return empty_poll_cost_curve(
            counts,
            cfg,
            llc_doorbell_resident_fraction=resident,
            warmup_rounds=warmup,
            measure_rounds=measure,
        )

    clear_curve_cache()
    registry = MetricsRegistry(enabled=True)
    with active_registry(registry):
        curve = derive()
    assert {k: repr(v) for k, v in curve.items()} == {
        k: repr(v) for k, v in expected_curve.items()
    }
    assert _mem_counters(registry) == expected_counters

    # What the memo stores is what a later hit replays.
    try:
        registry = MetricsRegistry(enabled=True)
        with active_registry(registry):
            cached = derive()
    finally:
        clear_curve_cache()
    assert {k: repr(v) for k, v in cached.items()} == {
        k: repr(v) for k, v in expected_curve.items()
    }
    assert _mem_counters(registry) == expected_counters
