"""Directory-based MESI coherence.

The directory tracks, per cache line, which core owns it (M/E) or which
cores share it (S). It exposes snoop hooks: callbacks fired when a write
transaction (GetM / upgrade) is observed for a line — this is exactly the
interface HyperPlane's monitoring set uses (paper, Section III-B: "the
monitoring set snoops the write transactions ... conceptually implemented
as part of the directory").

The model is state-exact (who has what, who gets invalidated) with a
simple additive latency model; it is deliberately not a message-level
protocol simulator. Invariants (single owner, owner implies no sharers)
are enforced and property-tested.

Fast-path layout
----------------
The public API keeps :class:`MESIState` / :class:`TransactionKind`
enums, but the hot path never touches them: transactions are counted in
a flat list indexed by small ints, line entries are plain 3-slot lists
``[owner, dirty, sharers]``, and the latency/level outcome of every
transition is read from a table precomputed in ``__init__`` rather than
recomputed from ``LatencyConfig`` per access. `AccessResult` values are
interned — the distinct outcomes of a given latency table are few — so
the common case allocates nothing. The snooper scan is skipped outright
when no snooper is registered; with snoopers, each one memoizes its
per-line filter verdict (filters are pure functions of the line
address). All of it is differentially fuzzed against the frozen
``ReferenceDirectory`` in ``tests/oracles/mem.py`` for bit-identical
results, counters, and snoop-callback order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

# ruff: noqa: E741


class MESIState(enum.Enum):
    """Per-core line state as tracked by the directory."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


class TransactionKind(enum.Enum):
    """Coherence transaction types visible to snoopers."""

    GET_S = "GetS"
    GET_M = "GetM"
    UPGRADE = "Upgrade"
    PUT_M = "PutM"


# Small-int transaction codes used on the hot path; `_KIND_BY_INT`
# recovers the public enum for snoop callbacks and the counter view.
_GET_S, _GET_M, _UPGRADE, _PUT_M = range(4)
_KIND_BY_INT = (
    TransactionKind.GET_S,
    TransactionKind.GET_M,
    TransactionKind.UPGRADE,
    TransactionKind.PUT_M,
)

# Line-entry slots (plain lists beat attribute access here).
_OWNER, _DIRTY, _SHARERS = range(3)

# A snooper receives (line address, requesting core, transaction kind).
SnoopCallback = Callable[[int, int, TransactionKind], None]


@dataclass(frozen=True)
class LatencyConfig:
    """Additive latency components, in core cycles.

    Defaults follow Table I-class machines: 4-cycle L1D, ~40-cycle LLC,
    ~200-cycle DRAM, ~70-cycle dirty remote-L1 transfer through the
    directory.
    """

    l1_hit: int = 4
    llc_hit: int = 40
    dram: int = 200
    remote_transfer: int = 70
    directory_lookup: int = 10


@dataclass(frozen=True, slots=True)
class AccessResult:
    """Outcome of one load/store through the coherence layer.

    Instances are interned (equal outcomes share one object), so
    identity comparisons may succeed where only equality is promised;
    rely on equality.
    """

    latency: int
    level: str  # "L1", "remote-L1", "LLC", "DRAM"
    hit: bool
    invalidated: int = 0  # how many remote copies were invalidated


# Process-wide intern table: the distinct results for any latency table
# are bounded by a handful of levels x invalidation counts <= num_cores.
_RESULT_INTERN: Dict[Tuple[int, str, bool, int], AccessResult] = {}


def _result(latency: int, level: str, hit: bool, invalidated: int = 0) -> AccessResult:
    key = (latency, level, hit, invalidated)
    cached = _RESULT_INTERN.get(key)
    if cached is None:
        cached = _RESULT_INTERN[key] = AccessResult(latency, level, hit, invalidated)
    return cached


# Transition-table row indices for the miss outcomes of read()/write().
# Rows map outcome -> (latency, level); they are precomputed per
# Directory from its LatencyConfig, so the hot path does one tuple
# index instead of re-deriving "directory_lookup + ..." arithmetic.
_T_FILL_LLC, _T_FILL_DRAM, _T_REMOTE, _T_UPG_SILENT, _T_UPG_INV = range(5)


class Directory:
    """MESI directory for ``num_cores`` private L1 caches.

    The directory is purely a permission/ownership tracker; structural
    L1/LLC presence lives in :class:`repro.mem.hierarchy.MemoryHierarchy`,
    which calls :meth:`read` / :meth:`write` and combines the results.
    """

    __slots__ = (
        "num_cores",
        "latencies",
        "_lines",
        "_snoopers",
        "_txn",
        "_table",
        "_r_l1_hit",
        "_r_read_remote",
        "_r_read_llc",
        "_r_read_dram",
    )

    def __init__(self, num_cores: int, latencies: Optional[LatencyConfig] = None):
        if num_cores <= 0:
            raise ValueError("need at least one core")
        self.num_cores = num_cores
        self.latencies = latencies or LatencyConfig()
        self._lines: Dict[int, list] = {}
        # Each snooper: [filter, callback, per-line verdict memo].
        self._snoopers: List[list] = []
        self._txn = [0, 0, 0, 0]
        lat = self.latencies
        look = lat.directory_lookup
        # Precomputed transition table: outcome row -> (latency, level).
        self._table = (
            (look + lat.llc_hit, "LLC"),  # _T_FILL_LLC
            (look + lat.dram, "DRAM"),  # _T_FILL_DRAM
            (look + lat.remote_transfer, "remote-L1"),  # _T_REMOTE
            (look, "L1"),  # _T_UPG_SILENT
            (look + lat.remote_transfer, "L1"),  # _T_UPG_INV
        )
        # Interned results for the fixed-shape outcomes.
        self._r_l1_hit = _result(lat.l1_hit, "L1", True)
        self._r_read_remote = _result(look + lat.remote_transfer, "remote-L1", False)
        self._r_read_llc = _result(look + lat.llc_hit, "LLC", False)
        self._r_read_dram = _result(look + lat.dram, "DRAM", False)

    # -- snooping ---------------------------------------------------------

    @property
    def transactions(self) -> Dict[TransactionKind, int]:
        """Cumulative transaction counts (a snapshot view, enum-keyed)."""
        txn = self._txn
        return {kind: txn[code] for code, kind in enumerate(_KIND_BY_INT)}

    def add_snooper(self, address_filter: Callable[[int], bool], callback: SnoopCallback) -> None:
        """Register ``callback`` for transactions whose line passes the filter."""
        self._snoopers.append([address_filter, callback, {}])

    def _notify(self, line: int, requester: int, kind_code: int) -> None:
        self._txn[kind_code] += 1
        snoopers = self._snoopers
        if not snoopers:
            return
        kind = _KIND_BY_INT[kind_code]
        for snooper in snoopers:
            memo = snooper[2]
            verdict = memo.get(line)
            if verdict is None:
                verdict = memo[line] = 1 if snooper[0](line) else 0
            if verdict:
                snooper[1](line, requester, kind)

    # -- core-visible operations ------------------------------------------

    def state_of(self, core: int, line: int) -> MESIState:
        """The MESI state of ``line`` in ``core``'s L1, per the directory."""
        entry = self._lines.get(line)
        if entry is None:
            return MESIState.INVALID
        if entry[_OWNER] == core:
            return MESIState.MODIFIED if entry[_DIRTY] else MESIState.EXCLUSIVE
        if core in entry[_SHARERS]:
            return MESIState.SHARED
        return MESIState.INVALID

    def read(self, core: int, line: int, in_llc: bool) -> AccessResult:
        """Core ``core`` loads from ``line``.

        ``in_llc`` is whether the structural LLC currently holds the line
        (decides LLC-hit vs DRAM latency on a clean miss).
        """
        if core < 0 or core >= self.num_cores:
            raise ValueError(f"core id {core} out of range")
        entry = self._lines.get(line)
        if entry is not None:
            owner = entry[_OWNER]
            if owner == core or core in entry[_SHARERS]:
                return self._r_l1_hit
            # L1 miss: GetS to the directory.
            self._notify(line, core, _GET_S)
            sharers = entry[_SHARERS]
            if owner is not None:
                # Dirty (or exclusive) remote copy: downgrade owner to
                # sharer (owner != core here — owner hit returned above).
                sharers.add(owner)
                entry[_OWNER] = None
                entry[_DIRTY] = False
                sharers.add(core)
                return self._r_read_remote
            if sharers:
                sharers.add(core)
            else:
                # No other copies: grant Exclusive.
                entry[_OWNER] = core
                entry[_DIRTY] = False
            return self._r_read_llc if in_llc else self._r_read_dram
        self._notify(line, core, _GET_S)
        self._lines[line] = [core, False, set()]
        return self._r_read_llc if in_llc else self._r_read_dram

    def write(self, core: int, line: int, in_llc: bool) -> AccessResult:
        """Core ``core`` stores to ``line`` (obtains M)."""
        if core < 0 or core >= self.num_cores:
            raise ValueError(f"core id {core} out of range")
        entry = self._lines.get(line)
        if entry is None:
            self._notify(line, core, _GET_M)
            self._lines[line] = [core, True, set()]
            latency, level = self._table[_T_FILL_LLC if in_llc else _T_FILL_DRAM]
            return _result(latency, level, False, 0)
        owner = entry[_OWNER]
        if owner == core:
            entry[_DIRTY] = True
            return self._r_l1_hit
        sharers = entry[_SHARERS]
        upgrade = core in sharers
        self._notify(line, core, _UPGRADE if upgrade else _GET_M)
        invalidated = len(sharers) - (1 if upgrade else 0)
        if owner is not None:
            # Remote M/E copy (owner != core): transfer + invalidate.
            invalidated += 1
            outcome = _T_REMOTE
        else:
            outcome = _T_FILL_LLC if in_llc else _T_FILL_DRAM
        if upgrade:
            # Already had the data; only invalidations are needed.
            outcome = _T_UPG_INV if invalidated else _T_UPG_SILENT
        latency, level = self._table[outcome]
        entry[_OWNER] = core
        entry[_DIRTY] = True
        sharers.clear()
        return _result(latency, level, False, invalidated)

    def evict(self, core: int, line: int) -> None:
        """Core ``core``'s L1 drops ``line`` (capacity eviction / PutM)."""
        entry = self._lines.get(line)
        if entry is None:
            return
        if entry[_OWNER] == core:
            if entry[_DIRTY]:
                self._notify(line, core, _PUT_M)
            entry[_OWNER] = None
            entry[_DIRTY] = False
        entry[_SHARERS].discard(core)
        if entry[_OWNER] is None and not entry[_SHARERS]:
            del self._lines[line]

    # -- invariants --------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert SWMR: an owner excludes sharers; owner is a valid core."""
        for line, entry in self._lines.items():
            owner, _dirty, sharers = entry
            if owner is not None:
                if sharers - {owner}:
                    raise AssertionError(
                        f"line {line:#x}: owner {owner} coexists with "
                        f"sharers {sharers}"
                    )
                if not 0 <= owner < self.num_cores:
                    raise AssertionError(f"line {line:#x}: bogus owner {owner}")
            for sharer in sharers:
                if not 0 <= sharer < self.num_cores:
                    raise AssertionError(f"line {line:#x}: bogus sharer {sharer}")

    def sharer_count(self, line: int) -> int:
        """Number of cores with any valid copy of ``line``."""
        entry = self._lines.get(line)
        if entry is None:
            return 0
        return len(entry[_SHARERS]) + (1 if entry[_OWNER] is not None else 0)

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.num_cores:
            raise ValueError(f"core id {core} out of range")
