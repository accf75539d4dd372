"""The discrete-event scheduler.

:class:`Simulator` owns simulated time and a priority queue of pending
callbacks. Time is a float in *seconds*; architecture components convert
to cycles through :class:`repro.sim.clock.Clock`. Determinism: ties in
time break by insertion sequence number, so a given seed always replays
the exact same schedule. Pending events live in one binary heap,
dispatched by a hoisted-locals loop.

Cancellation is *lazy*: :meth:`Simulator.schedule_handle` returns a
:class:`Handle` whose :meth:`~Handle.cancel` marks the entry dead in
place — no O(n) heap surgery; the dead entry is discarded when its time
comes.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.sim.events import Event


class SimulationError(RuntimeError):
    """Raised for scheduling misuse (negative delays, running twice, ...)."""


class Handle:
    """A cancellable scheduled callback (see :meth:`Simulator.schedule_handle`).

    Cancellation is lazy: the heap entry stays where it is and fires as
    a no-op. It still counts as a dispatched event — accounting follows
    the dispatch loop, not the callback body.
    """

    __slots__ = ("_callback", "_args", "cancelled")

    def __init__(self, callback: Callable[..., None], args: tuple):
        self._callback = callback
        self._args = args
        self.cancelled = False

    def cancel(self) -> bool:
        """Mark the entry dead; returns False if it already fired/cancelled."""
        if self.cancelled or self._callback is None:
            self.cancelled = True
            return False
        self.cancelled = True
        self._callback = None
        self._args = ()
        return True

    def _fire(self) -> None:
        callback = self._callback
        if callback is not None:
            self._callback = None
            args, self._args = self._args, ()
            callback(*args)


class Simulator:
    """A deterministic discrete-event scheduler.

    Examples
    --------
    >>> sim = Simulator()
    >>> hits = []
    >>> sim.schedule(2.0, hits.append, "b")
    >>> sim.schedule(1.0, hits.append, "a")
    >>> sim.run()
    >>> hits
    ['a', 'b']
    """

    __slots__ = (
        "_now",
        "_heap",
        "_sequence",
        "_running",
        "_stopped",
        "_until",
        "events_dispatched",
        "process_wakes",
        # Observers key per-timeline state on the simulator
        # (repro.obs.probes' queue-depth totals).
        "__weakref__",
    )

    def __init__(self):
        self._now = 0.0
        self._heap: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._sequence = 0
        self._running = False
        self._stopped = False
        self._until = math.inf
        self.events_dispatched = 0
        # Generator-process resumptions, incremented by Process._step.
        # Native accounting (like events_dispatched) so observability
        # gauges can read it without installing per-event hooks.
        self.process_wakes = 0

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0 or math.isnan(delay):
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        heapq.heappush(self._heap, (self._now + delay, self._sequence, callback, args))
        self._sequence += 1

    def schedule_at(self, when: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute time ``when``."""
        if when < self._now or math.isnan(when):
            raise SimulationError(
                f"cannot schedule into the past (when={when!r}, now={self._now!r})"
            )
        heapq.heappush(self._heap, (when, self._sequence, callback, args))
        self._sequence += 1

    def schedule_handle(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Handle:
        """Like :meth:`schedule`, returning a cancellable :class:`Handle`.

        Use for timers that are usually cancelled before firing
        (timeouts, watchdogs, coalescing windows): :meth:`Handle.cancel`
        is O(1) and the dead entry is dropped lazily at dispatch time.
        """
        handle = Handle(callback, args)
        self.schedule(delay, handle._fire)
        return handle

    def timeout(self, delay: float, value: Any = None, name: str = "timeout") -> Event:
        """Return an event that triggers after ``delay`` seconds."""
        event = Event(name)
        self.schedule(delay, event.trigger, value)
        return event

    def spawn(self, generator: Generator, name: str = "") -> "Process":
        """Start a generator-based process; see :class:`Process`."""
        # Imported here to avoid a circular import at module load time.
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    def stop(self) -> None:
        """Halt the current :meth:`run` after the in-flight callback.

        Callable from inside a callback (completion targets, error
        budgets). The clock stays at the last dispatched event; a later
        :meth:`run` resumes from the remaining queue.
        """
        self._stopped = True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Dispatch events until the queue drains or a bound is hit.

        Parameters
        ----------
        until:
            Stop once simulated time would exceed this bound; the clock
            is left exactly at ``until`` (even if the queue drained
            earlier — the idle tail is fast-forwarded in one step). A
            bound before :attr:`now` raises :class:`SimulationError`.
        max_events:
            Safety valve for runaway simulations; the clock is left at
            the last dispatched event. Must be at least 1.

        Both bounds may be combined; whichever trips first wins. A
        :meth:`stop` call from a callback also ends the run, leaving the
        clock at that callback's time.

        Returns
        -------
        float
            The simulated time at which the run stopped.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        if until is not None and (until < self._now or math.isnan(until)):
            raise SimulationError(
                f"cannot run into the past (until={until!r}, now={self._now!r})"
            )
        if max_events is not None and max_events < 1:
            raise SimulationError(f"max_events must be >= 1 (got {max_events!r})")
        self._running = True
        self._stopped = False
        self._until = math.inf if until is None else until
        dispatched = 0
        try:
            # The hot path: locals hoisted, heap ops resolved once.
            # ``events_dispatched`` is folded in by the finally block so
            # the loop body touches only locals; ``self._now`` must be
            # written per event (callbacks read the clock constantly).
            heap = self._heap
            heappop = heapq.heappop
            while heap:
                first = heap[0]
                if until is not None and first[0] > until:
                    self._now = until
                    return until
                heappop(heap)
                self._now = first[0]
                first[2](*first[3])
                dispatched += 1
                if self._stopped:
                    return self._now
                if max_events is not None and dispatched >= max_events:
                    return self._now
            if until is not None and until > self._now:
                self._now = until
            return self._now
        finally:
            self.events_dispatched += dispatched
            self._running = False
            self._until = math.inf

    @property
    def run_until(self) -> float:
        """The active :meth:`run` time bound (``inf`` outside a bounded run).

        Lets fast-forwarding callbacks (e.g. the structural spin-batch
        loop) avoid eagerly performing work whose logical time lies past
        the point where this run will stop.
        """
        return self._until

    def peek(self) -> float:
        """Time of the next pending event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else math.inf

    @property
    def pending(self) -> int:
        """Number of callbacks waiting in the queue (cancelled included)."""
        return len(self._heap)
