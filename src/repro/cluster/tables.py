"""Interned flow-steering tables shared across homogeneous servers.

Every :class:`~repro.cluster.rack.ClusterServer`, on the rack and in a
dist worker, needs the same two lookups on its hot path:

* the cumulative queue-weight table for its workload shape — previously
  rebuilt per server via ``list(accumulate(shape.weights(n)))`` even
  though every homogeneous server produces the identical list; and
* the sticky flow -> queue mapping, previously recomputed per *request*
  with a string-formatted ``derive_seed(f"flow-queue:{flow}")`` hash.

Both are deterministic pure functions of ``(weights, seed, flow)``, so
this module interns them: one :class:`WeightTable` per distinct weight
tuple (heterogeneous per-index ``server_config`` overrides hash to
different tuples and therefore get their own table), and one memo dict
per ``(table, seed)`` holding the flows actually seen. The mapping is
epoch-independent — crash/restart cycles reuse the same entries — and
the arithmetic is kept bit-for-bit identical to the original:

    u = derive_seed(seed, f"flow-queue:{flow}") / 2**64
    qid = min(bisect_right(cumulative, u * cumulative[-1]), n - 1)
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Dict, Iterable, List, Tuple

from repro.sim.rng import derive_seed

# derive_seed yields a uniform 64-bit integer; dividing by 2**64 maps it
# onto [0, 1) exactly as random.Random.random's mantissa construction.
TWO_POW_64 = float(1 << 64)

_TABLES: Dict[Tuple[float, ...], "WeightTable"] = {}


class WeightTable:
    """One interned cumulative-weight table plus per-seed flow memos."""

    __slots__ = ("cumulative", "total", "num_queues", "_flow_maps")

    def __init__(self, weights: Tuple[float, ...]):
        self.cumulative: List[float] = list(accumulate(weights))
        self.total: float = self.cumulative[-1]
        self.num_queues: int = len(weights)
        self._flow_maps: Dict[int, Dict[int, int]] = {}

    def compute(self, seed: int, flow: int) -> int:
        """The original per-request arithmetic, unmemoised."""
        u = derive_seed(seed, f"flow-queue:{flow}") / TWO_POW_64
        qid = bisect_right(self.cumulative, u * self.total)
        return min(qid, self.num_queues - 1)

    def flow_map(self, seed: int) -> Dict[int, int]:
        """The (shared, lazily filled) flow -> queue memo for ``seed``.

        Servers memoise into this dict directly on their hot path; two
        servers with the same seed and weights share entries.
        """
        flow_map = self._flow_maps.get(seed)
        if flow_map is None:
            flow_map = self._flow_maps[seed] = {}
        return flow_map


def cumulative_weight_table(weights: Iterable[float]) -> WeightTable:
    """Return the interned :class:`WeightTable` for ``weights``."""
    key = tuple(weights)
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = WeightTable(key)
    return table


def clear_tables() -> None:
    """Drop all interned tables (test isolation hook)."""
    _TABLES.clear()
