"""Streaming quantile estimation (the P² algorithm).

The exact :class:`~repro.sdp.metrics.LatencyRecorder` stores every
sample, which is fine for figure sweeps but not for very long soak
simulations. :class:`P2Quantile` implements Jain & Chlamtac's P²
algorithm: a single quantile estimated online in O(1) memory with five
markers whose positions are adjusted by piecewise-parabolic
interpolation.

Accuracy is typically within a few percent for smooth distributions;
``tests/test_sdp_quantiles.py`` pins it against exact percentiles on
several distributions.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List


class P2Quantile:
    """Online estimator of one quantile via the P² algorithm."""

    __slots__ = (
        "quantile",
        "_initial",
        "_heights",
        "_positions",
        "_desired",
        "_increments",
        "count",
    )

    def __init__(self, quantile: float):
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.quantile = quantile
        self._initial: List[float] = []
        # Marker heights (q), positions (n), and desired positions (n').
        self._heights: List[float] = []
        self._positions: List[int] = []
        self._desired: List[float] = []
        self._increments: List[float] = []
        self.count = 0

    def add(self, value: float) -> None:
        """Feed one observation."""
        self.count += 1
        if self._heights:
            self._update(value)
            return
        self._initial.append(value)
        if len(self._initial) == 5:
            self._initial.sort()
            p = self.quantile
            self._heights = list(self._initial)
            self._positions = [1, 2, 3, 4, 5]
            self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
            self._increments = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]

    def _update(self, value: float) -> None:
        # This runs three times per recorded rack completion (p50, p99,
        # p99.9): the marker bookkeeping is unrolled — same arithmetic in
        # the same order as the loop form, without loop machinery. The
        # loop form, with its ``_parabolic`` / ``_linear`` helpers, is
        # ReferenceP2Quantile in ``tests/oracles/rack.py``.
        heights = self._heights
        positions = self._positions
        # Find the cell and clamp extremes.
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            # Largest i with heights[i] <= value; identical to the linear
            # scan for strictly-increasing and duplicate-height markers
            # (value cannot land inside an empty duplicate interval).
            cell = bisect_right(heights, value) - 1
        # positions[cell+1:5] += 1, unrolled per cell.
        if cell == 0:
            positions[1] += 1
            positions[2] += 1
            positions[3] += 1
            positions[4] += 1
        elif cell == 1:
            positions[2] += 1
            positions[3] += 1
            positions[4] += 1
        elif cell == 2:
            positions[3] += 1
            positions[4] += 1
        else:
            positions[4] += 1
        # desired[i] += increments[i]; increments[0] is 0.0 and desired[0]
        # stays 1.0 forever, so slot 0 is skipped.
        desired = self._desired
        increments = self._increments
        desired[1] += increments[1]
        desired[2] += increments[2]
        desired[3] += increments[3]
        desired[4] += increments[4]
        # Adjust the three middle markers. The two delta branches are the
        # loop form's combined condition split by direction (delta >= 1
        # and delta <= -1 are mutually exclusive), unrolled per marker
        # with ``_parabolic`` / ``_linear`` inlined: the expressions below
        # are the method bodies with ``direction`` substituted as a
        # literal (the integer index arithmetic folded exactly), so every
        # float operation happens in the same order on the same values.
        # Each block re-reads ``positions`` / ``heights`` because the
        # previous marker's adjustment may have changed them.
        delta = desired[1] - positions[1]
        if delta >= 1:
            ni = positions[1]
            np1 = positions[2]
            if np1 - ni > 1:
                nm = positions[0]
                qm = heights[0]
                qi = heights[1]
                qp = heights[2]
                candidate = qi + 1 / (np1 - nm) * (
                    (ni - nm + 1) * (qp - qi) / (np1 - ni)
                    + (np1 - ni - 1) * (qi - qm) / (ni - nm)
                )
                if qm < candidate < qp:
                    heights[1] = candidate
                else:
                    heights[1] = qi + (1 * (qp - qi)) / (np1 - ni)
                positions[1] = ni + 1
        elif delta <= -1:
            nm = positions[0]
            ni = positions[1]
            if nm - ni < -1:
                np1 = positions[2]
                qm = heights[0]
                qi = heights[1]
                qp = heights[2]
                candidate = qi + -1 / (np1 - nm) * (
                    (ni - nm - 1) * (qp - qi) / (np1 - ni)
                    + (np1 - ni + 1) * (qi - qm) / (ni - nm)
                )
                if qm < candidate < qp:
                    heights[1] = candidate
                else:
                    heights[1] = qi + (-1 * (qm - qi)) / (nm - ni)
                positions[1] = ni - 1
        delta = desired[2] - positions[2]
        if delta >= 1:
            ni = positions[2]
            np1 = positions[3]
            if np1 - ni > 1:
                nm = positions[1]
                qm = heights[1]
                qi = heights[2]
                qp = heights[3]
                candidate = qi + 1 / (np1 - nm) * (
                    (ni - nm + 1) * (qp - qi) / (np1 - ni)
                    + (np1 - ni - 1) * (qi - qm) / (ni - nm)
                )
                if qm < candidate < qp:
                    heights[2] = candidate
                else:
                    heights[2] = qi + (1 * (qp - qi)) / (np1 - ni)
                positions[2] = ni + 1
        elif delta <= -1:
            nm = positions[1]
            ni = positions[2]
            if nm - ni < -1:
                np1 = positions[3]
                qm = heights[1]
                qi = heights[2]
                qp = heights[3]
                candidate = qi + -1 / (np1 - nm) * (
                    (ni - nm - 1) * (qp - qi) / (np1 - ni)
                    + (np1 - ni + 1) * (qi - qm) / (ni - nm)
                )
                if qm < candidate < qp:
                    heights[2] = candidate
                else:
                    heights[2] = qi + (-1 * (qm - qi)) / (nm - ni)
                positions[2] = ni - 1
        delta = desired[3] - positions[3]
        if delta >= 1:
            ni = positions[3]
            np1 = positions[4]
            if np1 - ni > 1:
                nm = positions[2]
                qm = heights[2]
                qi = heights[3]
                qp = heights[4]
                candidate = qi + 1 / (np1 - nm) * (
                    (ni - nm + 1) * (qp - qi) / (np1 - ni)
                    + (np1 - ni - 1) * (qi - qm) / (ni - nm)
                )
                if qm < candidate < qp:
                    heights[3] = candidate
                else:
                    heights[3] = qi + (1 * (qp - qi)) / (np1 - ni)
                positions[3] = ni + 1
        elif delta <= -1:
            nm = positions[2]
            ni = positions[3]
            if nm - ni < -1:
                np1 = positions[4]
                qm = heights[2]
                qi = heights[3]
                qp = heights[4]
                candidate = qi + -1 / (np1 - nm) * (
                    (ni - nm - 1) * (qp - qi) / (np1 - ni)
                    + (np1 - ni + 1) * (qi - qm) / (ni - nm)
                )
                if qm < candidate < qp:
                    heights[3] = candidate
                else:
                    heights[3] = qi + (-1 * (qm - qi)) / (nm - ni)
                positions[3] = ni - 1

    @property
    def value(self) -> float:
        """The current quantile estimate."""
        if self._heights:
            return self._heights[2]
        if not self._initial:
            return 0.0
        ordered = sorted(self._initial)
        index = min(len(ordered) - 1, int(self.quantile * len(ordered)))
        return ordered[index]


class StreamingLatencySummary:
    """Bounded-memory latency summary: mean, and P² p50/p99 estimates.

    A drop-in alternative to :class:`LatencyRecorder` for soak runs;
    same ``record`` signature and warm-up semantics.
    """

    def __init__(self, warmup_time: float = 0.0):
        self.warmup_time = warmup_time
        self.count = 0
        self._sum = 0.0
        self._max = 0.0
        self._p50 = P2Quantile(0.50)
        self._p99 = P2Quantile(0.99)

    def record(self, now: float, latency: float) -> None:
        if latency < 0:
            raise ValueError("negative latency")
        if now < self.warmup_time:
            return
        self.count += 1
        self._sum += latency
        self._max = max(self._max, latency)
        self._p50.add(latency)
        self._p99.add(latency)

    @property
    def mean(self) -> float:
        return self._sum / self.count if self.count else 0.0

    @property
    def p50(self) -> float:
        return self._p50.value

    @property
    def p99(self) -> float:
        return self._p99.value

    @property
    def max(self) -> float:
        return self._max
