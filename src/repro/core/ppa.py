"""Programmable Priority Arbiter (PPA) models.

The ready set's selector (paper, Fig. 6/7): given a *ready* bit vector
and a one-hot *current priority* vector, produce a one-hot *select*
vector — the first ready bit at or after the priority position, wrapping
around.

Two implementations are modelled:

- :func:`ripple_ppa` — the bit-slice ripple design of Fig. 7(b):
  priority propagates cell by cell, giving linear delay (and the
  combinational wrap-around loop the paper criticises).
- :func:`brent_kung_ppa` — the modern design (Section IV-B): thermometer
  coding removes the wrap-around, and a Brent–Kung parallel-prefix
  network reduces delay to logarithmic.

Both return ``(select_vector, gate_delay)``; tests assert they agree on
the selection for all inputs. The delay figures feed the hardware cost
model (:mod:`repro.experiments.hwcost`).
"""

from __future__ import annotations

from typing import List, Tuple


def _check_inputs(ready: int, priority: int, width: int) -> None:
    if width <= 0:
        raise ValueError("width must be positive")
    limit = 1 << width
    if not 0 <= ready < limit:
        raise ValueError("ready vector wider than the arbiter")
    if not 0 <= priority < limit:
        raise ValueError("priority vector wider than the arbiter")
    if priority and priority & (priority - 1):
        raise ValueError("priority vector must be one-hot (or zero)")


def ripple_ppa(ready: int, priority: int, width: int) -> Tuple[int, int]:
    """Bit-slice ripple PPA (Fig. 7).

    Each cell selects if its ready bit is set and it holds priority
    (directly or rippled from the previous cell); otherwise it passes
    priority on. Delay is the number of cells the priority traversed —
    linear in ``width`` in the worst case.
    """
    _check_inputs(ready, priority, width)
    if priority == 0:
        priority = 1  # reset state: highest priority at bit 0
    start = priority.bit_length() - 1
    for steps in range(width):
        index = (start + steps) % width
        if ready & (1 << index):
            return 1 << index, steps + 1
    return 0, width


def _prefix_or_brent_kung(bits: List[bool]) -> Tuple[List[bool], int]:
    """Exclusive prefix-OR via an explicit Brent–Kung network.

    Returns (prefix, stage_count): ``prefix[i]`` is the OR of
    ``bits[0..i-1]``. The network is built stage by stage (up-sweep then
    down-sweep) so the returned stage count is the real circuit depth.
    """
    n = len(bits)
    width = 1
    while width < n:
        width <<= 1
    values = list(bits) + [False] * (width - n)
    stages = 0
    # Up-sweep: values[k] accumulates OR of its subtree.
    gap = 1
    while gap < width:
        for right in range(2 * gap - 1, width, 2 * gap):
            values[right] = values[right] or values[right - gap]
        stages += 1
        gap <<= 1
    # Down-sweep for the exclusive prefix.
    values[width - 1] = False
    gap = width >> 1
    while gap >= 1:
        for right in range(2 * gap - 1, width, 2 * gap):
            left = right - gap
            temp = values[left]
            values[left] = values[right]
            values[right] = values[right] or temp
        stages += 1
        gap >>= 1
    return values[:n], stages


def brent_kung_ppa(ready: int, priority: int, width: int) -> Tuple[int, int]:
    """Thermometer-coded PPA with a Brent–Kung prefix network.

    The request vector is conceptually rotated so the priority position
    is bit 0 (thermometer coding eliminates the wrap-around connection);
    the first set bit is then ``request & ~prefix_or(request)`` and the
    select vector is rotated back. Delay is the prefix network's stage
    count (2 log2 width) plus the fixed rotate/mask stages.
    """
    _check_inputs(ready, priority, width)
    if priority == 0:
        priority = 1
    start = priority.bit_length() - 1
    full = (1 << width) - 1
    rotated = ((ready >> start) | (ready << (width - start))) & full
    bits = [(rotated >> i) & 1 == 1 for i in range(width)]
    prefix, stages = _prefix_or_brent_kung(bits)
    select_rotated = 0
    for i in range(width):
        if bits[i] and not prefix[i]:
            select_rotated = 1 << i
            break
    select = ((select_rotated << start) | (select_rotated >> (width - start))) & full
    rotate_and_mask_stages = 3  # barrel rotate in/out + the AND-NOT mask
    return select, stages + rotate_and_mask_stages


def first_ready_at_or_after(ready: int, priority: int) -> int:
    """:func:`ppa_select` without its input checks, for the service
    policies, whose masks always fit their width: the one-hot first
    ready bit at or after ``priority``, wrapping around (0 if none)."""
    if ready == 0:
        return 0
    start = priority.bit_length() - 1 if priority else 0
    ahead = ready >> start
    if ahead:
        return (ahead & -ahead) << start
    behind = ready & ((1 << start) - 1)
    return behind & -behind


def ppa_select(ready: int, priority: int, width: int) -> int:
    """Fast-path selection used by the simulation (no delay modelling).

    Bit-trick equivalent of both hardware models; the property tests in
    ``tests/test_core_ppa.py`` pin all three to identical selections.
    """
    _check_inputs(ready, priority, width)
    return first_ready_at_or_after(ready, priority)
