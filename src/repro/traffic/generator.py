"""Work-item generators: open-loop Poisson producers and closed-loop refill.

Open loop models the latency experiments (Figs. 3b, 9, 10, 12b): items
arrive at an offered rate regardless of the data plane's progress.
Closed loop models peak-throughput experiments (Figs. 3a, 8, 13): the
generator keeps the shape's hot queues saturated, so measured completion
rate is the data plane's capacity.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence

from repro.queueing.taskqueue import TaskQueue, WorkItem
from repro.sim.engine import Simulator
from repro.traffic.arrivals import ArrivalProcess
from repro.traffic.shapes import TrafficShape

ServiceSampler = Callable[[], float]


class OpenLoopGenerator:
    """A producer that enqueues Poisson (or other) arrivals across queues.

    The producer is a chain of plain callbacks, one heap event per
    arrival, not a simulator process. Its first callback takes the slot
    a process spawn would (an event at the construction instant, even
    when ``max_items`` is 0), and it draws each interarrival after the
    previous enqueue, so its schedule and stream draws are those of the
    generator loop it replaced.

    Parameters
    ----------
    sim, queues:
        The simulation and the full set of device-side queues.
    shape:
        Traffic shape deciding the per-arrival destination queue.
    arrivals:
        Inter-arrival process (aggregate across all queues).
    service_sampler:
        Draws the processing time (seconds) for each item.
    rng:
        Stream for destination sampling.
    max_items:
        Stop after this many arrivals (``None`` = unbounded; bound the
        simulation with ``sim.run(until=...)`` instead).
    """

    def __init__(
        self,
        sim: Simulator,
        queues: Sequence[TaskQueue],
        shape: TrafficShape,
        arrivals: ArrivalProcess,
        service_sampler: ServiceSampler,
        rng: random.Random,
        max_items: Optional[int] = None,
    ):
        self.sim = sim
        self.queues = list(queues)
        self.arrivals = arrivals
        self.service_sampler = service_sampler
        self.max_items = max_items
        self._draw_queue = shape.sampler(len(self.queues), rng)
        self.generated = 0
        self.dropped = 0
        sim.schedule(0.0, self._next)

    def _next(self) -> None:
        """Schedule the next arrival, unless ``max_items`` are out."""
        if self.max_items is None or self.generated < self.max_items:
            self.sim.schedule(self.arrivals.next_interarrival(), self._arrive)

    def _arrive(self) -> None:
        qid = self._draw_queue()
        item = WorkItem(
            item_id=self.generated,
            qid=qid,
            arrival_time=self.sim._now,
            service_time=self.service_sampler(),
        )
        self.generated += 1
        if not self.queues[qid].enqueue(item):
            self.dropped += 1
        self._next()


class ClosedLoopRefill:
    """Keeps each hot queue's depth constant for saturation measurements.

    The generator pre-fills every hot queue to ``depth``; the data plane
    calls :meth:`notify_dequeue` after each dequeue, and the item is
    immediately replaced (modelling an I/O device that always has backlog,
    i.e. offered load beyond saturation). Items carry ``arrival_time`` of
    the refill instant; latency is meaningless here — closed loop is for
    throughput only.
    """

    def __init__(
        self,
        sim: Simulator,
        queues: Sequence[TaskQueue],
        shape: TrafficShape,
        service_sampler: ServiceSampler,
        depth: int = 4,
    ):
        if depth < 1:
            raise ValueError("refill depth must be at least 1")
        self.sim = sim
        self.queues = list(queues)
        self.service_sampler = service_sampler
        self.depth = depth
        self.hot_ids: List[int] = shape.hot_queue_ids(len(self.queues))
        self._hot_set = frozenset(self.hot_ids)
        self._next_id = 0
        self.generated = 0
        for qid in self.hot_ids:
            for _ in range(depth):
                self._enqueue(qid)

    def _enqueue(self, qid: int) -> None:
        item = WorkItem(
            item_id=self._next_id,
            qid=qid,
            arrival_time=self.sim.now,
            service_time=self.service_sampler(),
        )
        self._next_id += 1
        self.generated += 1
        if not self.queues[qid].enqueue(item):
            raise RuntimeError(f"closed-loop refill overflowed queue {qid}")

    def notify_dequeue(self, qid: int) -> None:
        """Replace a consumed item on a hot queue (cold queues stay cold)."""
        if qid in self._hot_set:
            self._enqueue(qid)
