"""The monitoring set: a ZCache-style Cuckoo hash of doorbell tags.

Paper, Section IV-A. The structure maps cache-line tags (doorbell line
addresses) to QIDs with a *monitoring bit* (armed = watching for write
transactions). Lookups probe one row per way (2 ways here, as in the
paper's cost analysis: "similar to the tag array of a 2-way associative
cache"); insertions may perform a Cuckoo table walk, displacing entries
between ways. Walks happen only on QWAIT-ADD (tenant connect), never on
arm/disarm.

Conflicts (walk exhaustion) surface to the driver, which reallocates a
different doorbell address for the QID — also as in the paper; 5–10%
over-provisioning makes this negligibly rare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

_GOLDEN64 = 0x9E3779B97F4A7C15


def _mix(value: int, seed: int) -> int:
    """A splitmix64-style mixer for the way hash functions."""
    value = (value + seed + _GOLDEN64) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


@dataclass
class MonitoringEntry:
    """One monitoring-set entry: tag, QID, monitoring bit."""

    tag: int
    qid: int
    armed: bool = True


class CuckooMonitoringSet:
    """A ``ways``-way Cuckoo hash of :class:`MonitoringEntry`.

    Parameters
    ----------
    capacity:
        Total entries (Table I: 1024). Rows per way = capacity / ways.
    ways:
        Hash functions / ways. Data-path lookups still probe only the
        tag's candidate rows (cheap, as in the paper's "2-way lookup"
        cost analysis), but the *walk* needs >= 4 hash choices for the
        5-10% over-provisioning claim to hold: a plain 2-choice Cuckoo
        table saturates near 50% load factor, which is exactly the gap
        ZCache's decoupled ways/associativity closes.
    max_walk:
        Displacement-chain bound before an insert reports a conflict.
    seed:
        Hash seed (determinism across runs).
    """

    def __init__(self, capacity: int = 1024, ways: int = 4, max_walk: int = 64, seed: int = 0):
        if capacity <= 0 or ways <= 0 or capacity % ways:
            raise ValueError("capacity must be a positive multiple of ways")
        self.capacity = capacity
        self.ways = ways
        self.rows = capacity // ways
        self.max_walk = max_walk
        self._seeds = [_mix(seed, way + 1) for way in range(ways)]
        self._table: List[List[Optional[MonitoringEntry]]] = [
            [None] * self.rows for _ in range(ways)
        ]
        self._location: Dict[int, Tuple[int, int]] = {}  # tag -> (way, row)
        self.inserts = 0
        self.failed_inserts = 0
        self.total_walk_length = 0
        self.snoop_hits = 0
        self.snoop_misses = 0

    def _row(self, tag: int, way: int) -> int:
        return _mix(tag, self._seeds[way]) % self.rows

    # -- driver-facing operations (QWAIT-ADD / QWAIT-REMOVE) -----------------

    def insert(self, tag: int, qid: int, armed: bool = True) -> bool:
        """QWAIT-ADD: add a doorbell tag; False on a Cuckoo conflict.

        On conflict the table is restored to its pre-insert state so the
        driver can retry with a different doorbell address.
        """
        if tag in self._location:
            raise ValueError(f"tag {tag:#x} already monitored")
        if len(self._location) >= self.capacity:
            self.failed_inserts += 1
            return False
        entry = MonitoringEntry(tag, qid, armed)
        moves: List[Tuple[int, int, MonitoringEntry]] = []
        walk_state = _mix(tag, 0xA5A5)
        way = walk_state % self.ways
        for step in range(self.max_walk):
            # Prefer any empty candidate row for the entry in hand.
            empty_way = next(
                (w for w in range(self.ways) if self._table[w][self._row(entry.tag, w)] is None),
                None,
            )
            if empty_way is not None:
                way = empty_way
            row = self._row(entry.tag, way)
            occupant = self._table[way][row]
            self._table[way][row] = entry
            self._location[entry.tag] = (way, row)
            moves.append((way, row, entry))
            if occupant is None:
                self.inserts += 1
                self.total_walk_length += step + 1
                return True
            del self._location[occupant.tag]
            entry = occupant
            # Random-walk eviction: displace into a pseudo-random other way
            # (a ZCache-style walk explores instead of cycling).
            walk_state = _mix(walk_state, step)
            way = (way + 1 + walk_state % (self.ways - 1)) % self.ways if self.ways > 1 else 0
        # Walk exhausted: undo the displacement chain exactly. Each
        # displaced occupant's original slot is the slot its displacer
        # took, and the final homeless occupant is `entry`.
        chain = [moved for _, _, moved in moves] + [entry]
        for index in reversed(range(len(moves))):
            way_index, row_index, _ = moves[index]
            occupant = chain[index + 1]
            self._table[way_index][row_index] = occupant
            self._location[occupant.tag] = (way_index, row_index)
        self._location.pop(tag, None)
        self.failed_inserts += 1
        return False

    def remove(self, tag: int) -> bool:
        """QWAIT-REMOVE: drop a tag; returns whether it was present."""
        location = self._location.pop(tag, None)
        if location is None:
            return False
        way, row = location
        self._table[way][row] = None
        return True

    # -- data-path operations -------------------------------------------------

    def lookup(self, tag: int) -> Optional[MonitoringEntry]:
        """Probe the ways for a tag (the 2-way lookup of Section IV-C)."""
        location = self._location.get(tag)
        if location is None:
            return None
        way, row = location
        return self._table[way][row]

    def snoop_write(self, tag: int) -> Optional[int]:
        """A write transaction hit this line: if armed, disarm + return QID."""
        # lookup(), inlined: every doorbell write snoops.
        location = self._location.get(tag)
        entry = None if location is None else self._table[location[0]][location[1]]
        if entry is not None and entry.armed:
            entry.armed = False
            self.snoop_hits += 1
            return entry.qid
        self.snoop_misses += 1
        return None

    def arm(self, tag: int) -> None:
        """Re-arm a tag (QWAIT-VERIFY / QWAIT-RECONSIDER empty path)."""
        entry = self.lookup(tag)
        if entry is None:
            raise KeyError(f"tag {tag:#x} is not monitored")
        entry.armed = True

    def is_armed(self, tag: int) -> bool:
        entry = self.lookup(tag)
        return entry is not None and entry.armed

    # -- diagnostics -----------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return len(self._location)

    @property
    def load_factor(self) -> float:
        return self.occupancy / self.capacity

    @property
    def mean_walk_length(self) -> float:
        if not self.inserts:
            return 0.0
        return self.total_walk_length / self.inserts

    def check_invariants(self) -> None:
        """Location index and table must agree; tags placed at a hash row."""
        seen = 0
        for way, rows in enumerate(self._table):
            for row, entry in enumerate(rows):
                if entry is None:
                    continue
                seen += 1
                if self._location.get(entry.tag) != (way, row):
                    raise AssertionError(f"index out of sync for tag {entry.tag:#x}")
                if self._row(entry.tag, way) != row:
                    raise AssertionError(f"tag {entry.tag:#x} in a non-hash row")
        if seen != len(self._location):
            raise AssertionError("orphaned index entries")
