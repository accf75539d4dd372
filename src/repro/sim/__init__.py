"""Discrete-event simulation engine.

A small, deterministic, generator-based discrete-event kernel in the style
of SimPy, specialised for cycle-approximate architecture simulation:

- :class:`~repro.sim.engine.Simulator` — event scheduler over one
  binary heap.
- :class:`~repro.sim.engine.Handle` — lazily-cancellable timer handle
  from :meth:`~repro.sim.engine.Simulator.schedule_handle`.
- :class:`~repro.sim.events.Event` — one-shot triggerable events.
- :class:`~repro.sim.process.Process` — generator-based concurrent
  processes (yield a delay, an event, or another process to join it).
- :class:`~repro.sim.clock.Clock` — cycle/second conversions for a fixed
  core frequency.
- :class:`~repro.sim.rng.RandomStreams` — named, reproducible substreams
  derived from one root seed.

Everything in the reproduction (cores, producers, accelerator) runs on top
of this kernel, so simulations are deterministic for a given seed.
"""

from repro.sim.clock import Clock
from repro.sim.engine import Handle, SimulationError, Simulator
from repro.sim.events import Event
from repro.sim.process import Process, ProcessKilled
from repro.sim.rng import RandomStreams

__all__ = [
    "Clock",
    "Event",
    "Handle",
    "Process",
    "ProcessKilled",
    "RandomStreams",
    "SimulationError",
    "Simulator",
]
