"""Set-associative cache model with LRU replacement.

Structural only: tracks which lines are present, not their timing. The
hierarchy composes these models and assigns latencies; the cost-model
derivation (:mod:`repro.mem.costmodel`) extracts steady-state hit rates
for the fast SDP simulation.

Fast-path layout
----------------
Structural accesses dominate execution-driven simulation (one per
doorbell poll), so the per-set storage is a single preallocated flat
tag array — set ``s`` owns slots ``[s * ways, (s + 1) * ways)`` in LRU
order, least recent first — plus a per-set fill count. An access scans
its set once: :meth:`SetAssociativeCache.lookup` finds the line's slot
and :meth:`SetAssociativeCache.touch` updates from it, so the hierarchy
can ask "is it here?" before the directory lookup and apply the LRU
update after it without a second scan. A hit rotates the tag to the MRU
slot in place (nothing moves when it is already MRU). No
``dict.setdefault``, no ``list.remove`` scan, no per-access allocation.

Behaviour is bit-identical to the dict-of-LRU-lists reference model
(``ReferenceSetAssociativeCache`` in ``tests/oracles/mem.py``), which the
differential fuzz suite enforces: same hits/misses/evictions/
invalidations, same ``last_evicted`` values, same residency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.mem.address import CACHE_LINE_BYTES


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/eviction counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = self.invalidations = 0


# Flat-array empty-slot sentinel; line addresses are always >= 0.
_EMPTY = -1


class SetAssociativeCache:
    """An LRU set-associative cache of line addresses.

    Parameters
    ----------
    size_bytes:
        Total capacity.
    ways:
        Associativity; ``size_bytes / (ways * line_bytes)`` must be a
        power-of-two set count (as in real indexing).
    line_bytes:
        Cache line size (64 B in Table I).
    name:
        Label for diagnostics.
    """

    __slots__ = (
        "size_bytes",
        "ways",
        "line_bytes",
        "name",
        "num_sets",
        "stats",
        "last_evicted",
        "_tags",
        "_fill",
        "_set_mask",
    )

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        line_bytes: int = CACHE_LINE_BYTES,
        name: str = "cache",
    ):
        if size_bytes % (ways * line_bytes):
            raise ValueError("capacity must be a whole number of sets")
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.name = name
        self.num_sets = size_bytes // (ways * line_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("set count must be a power of two")
        self._set_mask = self.num_sets - 1
        # Flat tag array: set s owns slots [s*ways, (s+1)*ways), LRU
        # first / MRU last; _fill[s] slots are occupied from the base.
        self._tags: List[int] = [_EMPTY] * (self.num_sets * ways)
        self._fill: List[int] = [0] * self.num_sets
        self.stats = CacheStats()
        # Address of the line evicted by the most recent access(), or
        # None. Initialised here, not lazily inside access(), so it is
        # safe to inspect a cache that has never been touched.
        self.last_evicted: Optional[int] = None

    @property
    def capacity_lines(self) -> int:
        """Total number of lines the cache can hold."""
        return self.num_sets * self.ways

    def _set_index(self, line: int) -> int:
        return (line // self.line_bytes) & self._set_mask

    def contains(self, addr: int) -> bool:
        """Whether the line holding ``addr`` is resident (no LRU update)."""
        return self.lookup(addr - addr % self.line_bytes) >= 0

    def lookup(self, line: int) -> int:
        """Slot of the resident ``line`` (a line address), or -1; no update.

        Pass the slot to :meth:`touch` to complete the access without
        scanning the set a second time.
        """
        index = (line // self.line_bytes) & self._set_mask
        slot = index * self.ways
        top = slot + self._fill[index]
        tags = self._tags
        while slot < top:
            if tags[slot] == line:
                return slot
            slot += 1
        return -1

    def access(self, addr: int) -> bool:
        """Touch ``addr``: returns True on hit; on miss, fills the line.

        A miss evicts the LRU line of the set if the set is full; the
        evicted line address is recorded in :attr:`last_evicted`.
        """
        line = addr - addr % self.line_bytes
        return self.touch(line, self.lookup(line))

    def touch(self, line: int, slot: int) -> bool:
        """:meth:`access` ``line``, given its :meth:`lookup` slot.

        ``slot`` must be what :meth:`lookup` returned with no other
        access to this cache in between.
        """
        self.last_evicted = None
        stats = self.stats
        index = (line // self.line_bytes) & self._set_mask
        tags = self._tags
        fill = self._fill
        n = fill[index]
        if slot >= 0:
            # Hit: rotate [slot..top] left one place so the line lands
            # in the MRU slot — same reordering as the reference's
            # remove + append (nothing moves if it is already MRU).
            top = index * self.ways + n - 1
            while slot < top:
                tags[slot] = tags[slot + 1]
                slot += 1
            tags[top] = line
            stats.hits += 1
            return True
        stats.misses += 1
        ways = self.ways
        base = index * ways
        if n >= ways:
            self.last_evicted = tags[base]
            stats.evictions += 1
            top = base + ways - 1
            while base < top:
                tags[base] = tags[base + 1]
                base += 1
            tags[top] = line
            return False
        tags[base + n] = line
        fill[index] = n + 1
        return False

    def invalidate(self, addr: int) -> bool:
        """Drop the line holding ``addr``; returns whether it was present."""
        line = addr - addr % self.line_bytes
        slot = self.lookup(line)
        if slot < 0:
            return False
        # Close the gap, preserving LRU order of the rest.
        index = (line // self.line_bytes) & self._set_mask
        n = self._fill[index]
        top = index * self.ways + n - 1
        tags = self._tags
        while slot < top:
            tags[slot] = tags[slot + 1]
            slot += 1
        tags[top] = _EMPTY
        self._fill[index] = n - 1
        self.stats.invalidations += 1
        return True

    def resident_lines(self) -> int:
        """Number of lines currently resident."""
        return sum(self._fill)

    def flush(self) -> None:
        """Empty the cache (stats preserved)."""
        self._tags = [_EMPTY] * (self.num_sets * self.ways)
        self._fill = [0] * self.num_sets


@dataclass
class CacheConfig:
    """Geometry for one cache level."""

    size_bytes: int
    ways: int
    line_bytes: int = CACHE_LINE_BYTES

    def build(self, name: str) -> SetAssociativeCache:
        """Instantiate a cache with this geometry."""
        return SetAssociativeCache(self.size_bytes, self.ways, self.line_bytes, name)

    @property
    def capacity_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    # Table I geometries.

    @classmethod
    def l1d(cls) -> "CacheConfig":
        """Private 32 KB, 4-way, 64 B lines (Table I)."""
        return cls(size_bytes=32 * 1024, ways=4)

    @classmethod
    def llc_per_core(cls) -> "CacheConfig":
        """1 MB per core, 16-way, 64 B lines (Table I)."""
        return cls(size_bytes=1024 * 1024, ways=16)
