"""Per-core L1s + shared LLC + directory, wired together.

:class:`MemoryHierarchy` combines the structural caches (which lines are
resident, with LRU capacity pressure) with the MESI directory (who may
read/write what). Every access returns a latency in cycles; the fast SDP
simulation does not call this per-access but uses cost curves derived
from it (:mod:`repro.mem.costmodel`).

Fast-path layout
----------------
:meth:`MemoryHierarchy.access_stream` batches many accesses by one core
into a single Python call — the structural doorbell scan and the
cost-curve derivation both issue one call per sweep instead of ~30
Python-level calls per poll. The steady-state polling case (directory
hit + line already MRU in both its L1 set and the LLC set) is recognised
with non-mutating probes and committed inline: two stat increments and
one interned :class:`AccessResult` append, nothing else. Anything less
common falls back to the general :meth:`read`/:meth:`write` path
*before* any state is touched, so the observable sequence of results,
stats, evictions and snoops is bit-identical to issuing the accesses one
by one (enforced by ``tests/test_mem_fastpath_differential.py`` against
the frozen ``ReferenceMemoryHierarchy`` in ``tests/oracles/mem.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.mem.coherence import (
    AccessResult,
    Directory,
    LatencyConfig,
    SnoopCallback,
    _result,
)


@dataclass(frozen=True)
class MemConfig:
    """Hierarchy geometry + latencies (Table I defaults)."""

    num_cores: int = 16
    l1: CacheConfig = field(default_factory=CacheConfig.l1d)
    llc_per_core: CacheConfig = field(default_factory=CacheConfig.llc_per_core)
    latencies: LatencyConfig = field(default_factory=LatencyConfig)

    @property
    def llc_total_bytes(self) -> int:
        """Shared LLC capacity: 1 MB per core (Table I)."""
        return self.llc_per_core.size_bytes * self.num_cores


class MemoryHierarchy:
    """A CMP memory system for ``config.num_cores`` cores.

    The LLC is modelled as one shared cache of the aggregate capacity
    (Table I: "1 MB per core"); the directory is co-located with it.
    """

    __slots__ = ("config", "l1s", "llc", "directory", "_line_bytes", "_r_llc_refill")

    def __init__(self, config: Optional[MemConfig] = None):
        self.config = config or MemConfig()
        cfg = self.config
        self.l1s: List[SetAssociativeCache] = [
            cfg.l1.build(f"l1-{core}") for core in range(cfg.num_cores)
        ]
        # Real indexed caches need a power-of-two set count; round the
        # aggregate LLC up (e.g. 3 cores x 1 MB indexes as 4 MB of sets).
        ways = cfg.llc_per_core.ways
        line = cfg.l1.line_bytes
        sets = max(1, cfg.llc_total_bytes // (ways * line))
        rounded_sets = 1 << (sets - 1).bit_length()
        self.llc = SetAssociativeCache(rounded_sets * ways * line, ways, line, "llc")
        self.directory = Directory(cfg.num_cores, cfg.latencies)
        self._line_bytes = line
        # Interned "permission hit but structurally evicted" refill result.
        self._r_llc_refill = _result(cfg.latencies.llc_hit, "LLC", False, 0)

    # -- snoop passthrough -------------------------------------------------

    def add_snooper(self, address_filter: Callable[[int], bool], callback: SnoopCallback) -> None:
        """Register a coherence snooper (see :class:`Directory`)."""
        self.directory.add_snooper(address_filter, callback)

    # -- accesses ----------------------------------------------------------

    def read(self, core: int, addr: int) -> AccessResult:
        """Core ``core`` loads ``addr``; returns latency and level."""
        return self._access(core, addr, is_write=False)

    def write(self, core: int, addr: int) -> AccessResult:
        """Core ``core`` stores to ``addr``; returns latency and level."""
        return self._access(core, addr, is_write=True)

    def _access(self, core: int, addr: int, is_write: bool) -> AccessResult:
        line = addr - addr % self._line_bytes
        l1 = self.l1s[core]
        llc = self.llc
        # One scan per level: the slots found here (-1 on a miss) drive
        # the residency updates below. Only the directory runs in
        # between, and it touches no cache (snoop callbacks observe a
        # transaction; they do not issue accesses of their own).
        directory = self.directory
        l1_slot = l1.lookup(line)
        llc_slot = llc.lookup(line)
        if is_write:
            result = directory.write(core, line, llc_slot >= 0)
        else:
            result = directory.read(core, line, llc_slot >= 0)
        if result.hit and l1_slot < 0:
            # Permission said hit but the line was evicted for capacity:
            # treat as an LLC refill (the directory still lists us).
            if result.invalidated:
                result = _result(
                    self.config.latencies.llc_hit, "LLC", False, result.invalidated
                )
            else:
                result = self._r_llc_refill
        # Maintain structural residency (and propagate capacity evictions
        # to the directory so state stays consistent).
        l1.touch(line, l1_slot)
        evicted = l1.last_evicted
        if evicted is not None:
            directory.evict(core, evicted)
        llc.touch(line, llc_slot)
        if result.invalidated:
            self._drop_remote_copies(core, line)
        return result

    def access_stream(
        self,
        core: int,
        addrs: Sequence[int],
        write: bool = False,
        cycle_budget: Optional[int] = None,
    ) -> List[AccessResult]:
        """Issue ``addrs`` for ``core`` in order; one call, many accesses.

        Equivalent — result-for-result and state-for-state — to calling
        :meth:`read` (or :meth:`write`) once per address. Reads that the
        probes prove are steady-state hits (directory permission hit and
        the line already MRU in both its L1 set and LLC set) are
        committed inline; every other access takes the general path
        untouched. Hit counters for a run of consecutive fast-path polls
        are folded in at the run's end — no callback can execute inside
        such a run, so the deferral is unobservable (any fallback access,
        which may fire snoop callbacks, sees fully up-to-date counters).

        When ``cycle_budget`` is given, the stream stops early — after
        the access whose latency makes the cumulative total reach the
        budget — and returns the results so far. At least one access is
        always issued. This lets callers with a time horizon issue one
        call for "as many accesses as provably fit" without knowing the
        individual latencies in advance.
        """
        l1 = self.l1s[core]
        access = self._access
        results: List[AccessResult] = []
        if write:
            for addr in addrs:
                result = access(core, addr, True)
                results.append(result)
                if cycle_budget is not None:
                    cycle_budget -= result.latency
                    if cycle_budget <= 0:
                        break
            return results
        append = results.append
        line_bytes = self._line_bytes
        llc = self.llc
        directory = self.directory
        dir_lines = directory._lines
        r_l1_hit = directory._r_l1_hit
        l1_lat = r_l1_hit.latency
        l1_tags = l1._tags
        l1_fill = l1._fill
        l1_mask = l1._set_mask
        l1_ways = l1.ways
        llc_tags = llc._tags
        llc_fill = llc._fill
        llc_mask = llc._set_mask
        llc_ways = llc.ways
        l1_stats = l1.stats
        llc_stats = llc.stats
        budgeted = cycle_budget is not None
        acc = 0
        pending = 0  # deferred fast-path hit count
        fast_tail = False  # whether the latest access took the fast path
        for addr in addrs:
            line = addr - addr % line_bytes
            line_no = line // line_bytes
            # Non-mutating probes first; fall back before touching state.
            entry = dir_lines.get(line)
            if entry is not None and (entry[0] == core or core in entry[2]):
                set_idx = line_no & l1_mask
                n = l1_fill[set_idx]
                if n and l1_tags[set_idx * l1_ways + n - 1] == line:
                    set_idx = line_no & llc_mask
                    n = llc_fill[set_idx]
                    if n and llc_tags[set_idx * llc_ways + n - 1] == line:
                        # Steady-state poll: both caches hit with the
                        # line already MRU.
                        pending += 1
                        fast_tail = True
                        append(r_l1_hit)
                        if budgeted:
                            acc += l1_lat
                            if acc >= cycle_budget:
                                break
                        continue
            if pending:
                l1_stats.hits += pending
                llc_stats.hits += pending
                pending = 0
            fast_tail = False
            result = access(core, addr, False)
            append(result)
            if budgeted:
                acc += result.latency
                if acc >= cycle_budget:
                    break
        if pending:
            l1_stats.hits += pending
            llc_stats.hits += pending
        if fast_tail:
            l1.last_evicted = None
            llc.last_evicted = None
        return results

    def all_steady_reads(self, core: int, addrs: Sequence[int]) -> bool:
        """Non-mutating: would every read in ``addrs`` take the fast path?

        True iff each address holds a directory permission hit for
        ``core`` with the line MRU in both its L1 set and its LLC set —
        i.e. reading it would change no model state beyond the L1/LLC
        hit counters. Because the fast path mutates nothing the probes
        depend on, a True verdict stays valid for any number of repeated
        reads of these addresses (until some *other* access intervenes);
        :meth:`commit_steady_reads` then folds such reads in wholesale.
        """
        l1 = self.l1s[core]
        line_bytes = self._line_bytes
        llc = self.llc
        dir_lines = self.directory._lines
        l1_tags = l1._tags
        l1_fill = l1._fill
        l1_mask = l1._set_mask
        l1_ways = l1.ways
        llc_tags = llc._tags
        llc_fill = llc._fill
        llc_mask = llc._set_mask
        llc_ways = llc.ways
        for addr in addrs:
            line = addr - addr % line_bytes
            line_no = line // line_bytes
            entry = dir_lines.get(line)
            if entry is None or (entry[0] != core and core not in entry[2]):
                return False
            set_idx = line_no & l1_mask
            n = l1_fill[set_idx]
            if not n or l1_tags[set_idx * l1_ways + n - 1] != line:
                return False
            set_idx = line_no & llc_mask
            n = llc_fill[set_idx]
            if not n or llc_tags[set_idx * llc_ways + n - 1] != line:
                return False
        return True

    def commit_steady_reads(self, core: int, count: int) -> None:
        """Fold in ``count`` reads proven fast-path by :meth:`all_steady_reads`.

        State-identical to issuing them individually: each such read
        increments the L1 and LLC hit counters and leaves
        ``last_evicted`` cleared; nothing else changes.
        """
        l1 = self.l1s[core]
        l1.stats.hits += count
        self.llc.stats.hits += count
        l1.last_evicted = None
        self.llc.last_evicted = None

    def _drop_remote_copies(self, writer: int, line: int) -> None:
        for core, l1 in enumerate(self.l1s):
            if core != writer:
                l1.invalidate(line)

    # -- diagnostics ---------------------------------------------------------

    def state(self) -> tuple:
        """A copy of everything that decides future results; compare with ``==``.

        Cache tag arrays and fill counts, ``last_evicted``, and the
        directory's line entries. Two hierarchies of one geometry in
        equal states return equal results, make equal counter
        increments and reach equal states for any access sequence. The
        counters are not part of it: nothing reads them.
        """
        caches = tuple(
            (cache._tags.copy(), cache._fill.copy(), cache.last_evicted)
            for cache in (*self.l1s, self.llc)
        )
        lines = {
            line: (owner, dirty, frozenset(sharers))
            for line, (owner, dirty, sharers) in self.directory._lines.items()
        }
        return caches, lines

    def check_invariants(self) -> None:
        """Directory SWMR plus L1/directory residency consistency."""
        self.directory.check_invariants()

    def reset_stats(self) -> None:
        for l1 in self.l1s:
            l1.stats.reset()
        self.llc.stats.reset()
