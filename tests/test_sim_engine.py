"""Tests for the discrete-event scheduler."""

import math

import pytest

from repro.sim import SimulationError, Simulator


def test_events_dispatch_in_time_order():
    sim = Simulator()
    hits = []
    sim.schedule(2.0, hits.append, "late")
    sim.schedule(1.0, hits.append, "early")
    sim.schedule(3.0, hits.append, "last")
    sim.run()
    assert hits == ["early", "late", "last"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    hits = []
    for label in "abc":
        sim.schedule(1.0, hits.append, label)
    sim.run()
    assert hits == ["a", "b", "c"]


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(0.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [0.5]
    assert sim.now == 0.5


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_nan_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    hits = []
    sim.schedule(1.0, hits.append, 1)
    sim.schedule(5.0, hits.append, 5)
    sim.run(until=2.0)
    assert hits == [1]
    assert sim.now == 2.0
    sim.run()
    assert hits == [1, 5]


def test_run_until_with_empty_heap_advances_clock():
    sim = Simulator()
    sim.run(until=3.0)
    assert sim.now == 3.0


def test_run_until_in_the_past_rejected():
    # A bound behind the clock must not rewind it, queue empty or not.
    sim = Simulator()
    hits = []
    sim.schedule(5.0, hits.append, 5)
    sim.schedule(10.0, hits.append, 10)
    sim.run(until=6.0)
    with pytest.raises(SimulationError, match=r"until=2\.0.*now=6\.0"):
        sim.run(until=2.0)
    with pytest.raises(SimulationError, match="until=nan"):
        sim.run(until=float("nan"))
    assert sim.now == 6.0
    assert hits == [5]
    sim.run(until=6.0)  # a bound equal to now is a no-op, not an error
    sim.run()
    assert hits == [5, 10]
    with pytest.raises(SimulationError, match=r"until=9\.0.*now=10\.0"):
        sim.run(until=9.0)
    assert sim.now == 10.0


def test_max_events_bounds_dispatch():
    sim = Simulator()
    hits = []
    for i in range(10):
        sim.schedule(float(i + 1), hits.append, i)
    sim.run(max_events=3)
    assert hits == [0, 1, 2]
    # A bound below one event is a caller bug, not "dispatch one".
    for bad in (0, -1):
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=bad)
    assert hits == [0, 1, 2]
    assert sim.events_dispatched == 3


def test_schedule_at_absolute_time():
    sim = Simulator()
    sim.schedule(1.0, lambda: sim.schedule_at(4.0, marker.append, "x"))
    marker = []
    sim.run()
    assert sim.now == 4.0
    assert marker == ["x"]


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == math.inf
    sim.schedule(7.0, lambda: None)
    sim.schedule(4.0, lambda: None)
    assert sim.peek() == 4.0


def test_pending_counts_heap():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending == 2
    sim.run()
    assert sim.pending == 0


def test_timeout_event_fires_with_value():
    sim = Simulator()
    event = sim.timeout(1.5, value="done")
    assert not event.triggered
    sim.run()
    assert event.triggered
    assert event.value == "done"


def test_callbacks_can_schedule_more_work():
    sim = Simulator()
    hits = []

    def chain(depth):
        hits.append(depth)
        if depth < 3:
            sim.schedule(1.0, chain, depth + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert hits == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_events_dispatched_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_dispatched == 5


def test_reentrant_run_rejected():
    sim = Simulator()
    failures = []

    def recurse():
        try:
            sim.run()
        except SimulationError:
            failures.append(True)

    sim.schedule(1.0, recurse)
    sim.run()
    assert failures == [True]


def test_determinism_same_schedule_same_trace():
    def trace():
        sim = Simulator()
        hits = []
        for i in range(50):
            sim.schedule((i * 37 % 11) / 10.0, hits.append, i)
        sim.run()
        return hits

    assert trace() == trace()


# -- schedule_at diagnostics -------------------------------------------------


def test_schedule_at_error_reports_when_and_now():
    # The error must name the absolute time the caller passed and the
    # current clock, not an internal delay value.
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError, match=r"when=1\.5.*now=2\.0"):
        sim.schedule_at(1.5, lambda: None)


def test_schedule_at_nan_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_at(float("nan"), lambda: None)


# -- until / max_events interplay --------------------------------------------


def test_until_and_max_events_whichever_trips_first():
    # max_events trips first: clock stays at the last dispatched event.
    sim = Simulator()
    hits = []
    for i in range(10):
        sim.schedule(float(i + 1), hits.append, i)
    sim.run(until=100.0, max_events=3)
    assert hits == [0, 1, 2]
    assert sim.now == 3.0

    # until trips first: clock lands exactly on the bound.
    sim = Simulator()
    hits = []
    for i in range(10):
        sim.schedule(float(i + 1), hits.append, i)
    sim.run(until=4.5, max_events=100)
    assert hits == [0, 1, 2, 3]
    assert sim.now == 4.5


def test_peek_and_pending_consistent_after_each_bound():
    sim = Simulator()
    for i in range(6):
        sim.schedule(float(i + 1), lambda: None)
    sim.run(max_events=2)
    assert sim.now == 2.0
    assert sim.pending == 4
    assert sim.peek() == 3.0
    sim.run(until=4.0)
    assert sim.now == 4.0
    assert sim.pending == 2
    assert sim.peek() == 5.0
    sim.run()
    assert sim.pending == 0
    assert sim.peek() == math.inf


def test_event_exactly_at_until_bound_fires():
    sim = Simulator()
    hits = []
    sim.schedule(2.0, hits.append, "on-bound")
    sim.schedule(2.0 + 1e-9, hits.append, "past-bound")
    sim.run(until=2.0)
    assert hits == ["on-bound"]
    assert sim.now == 2.0


def test_tie_break_stable_across_fast_forward_boundary():
    # Events tied at a time past an idle fast-forward (run(until=...)
    # with an empty window) must still fire in insertion order.
    def trace(pre_run):
        sim = Simulator()
        hits = []
        for label in "abc":
            sim.schedule(5.0, hits.append, label)
        if pre_run:
            sim.run(until=4.0)  # fast-forward through the idle window
            assert sim.now == 4.0
        sim.run()
        return hits

    assert trace(pre_run=True) == trace(pre_run=False) == ["a", "b", "c"]


def test_run_until_property_exposed_during_run():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(sim.run_until))
    sim.run(until=5.0)
    assert seen == [5.0]
    assert sim.run_until == math.inf  # cleared outside run()
    sim2 = Simulator()
    sim2.schedule(1.0, lambda: seen.append(sim2.run_until))
    sim2.run()
    assert seen[-1] == math.inf  # unbounded run


# -- stop() ------------------------------------------------------------------


def test_stop_halts_after_inflight_callback_and_resumes():
    sim = Simulator()
    hits = []
    sim.schedule(1.0, hits.append, 1)
    sim.schedule(2.0, lambda: (hits.append(2), sim.stop()))
    sim.schedule(3.0, hits.append, 3)
    sim.run()
    assert hits == [1, 2]
    assert sim.now == 2.0
    assert sim.pending == 1
    sim.run()  # a later run resumes from the remaining queue
    assert hits == [1, 2, 3]


# -- cancellable handles -----------------------------------------------------


def test_handle_cancel_prevents_callback():
    sim = Simulator()
    hits = []
    handle = sim.schedule_handle(1.0, hits.append, "x")
    assert handle.cancel() is True
    assert handle.cancel() is False  # idempotent
    sim.run()
    assert hits == []
    # The dead entry still counts as a dispatched event: accounting
    # follows the dispatch loop, not the callback body.
    assert sim.events_dispatched == 1


def test_handle_fires_when_not_cancelled():
    sim = Simulator()
    hits = []
    handle = sim.schedule_handle(1.0, hits.append, "x")
    sim.run()
    assert hits == ["x"]
    assert handle.cancel() is False  # already fired
