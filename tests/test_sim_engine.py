"""Tests for the discrete-event engine: clock, events, processes."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Timeout


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_runs_in_time_order(sim):
    order = []
    sim.schedule(5.0, lambda _: order.append("b"))
    sim.schedule(1.0, lambda _: order.append("a"))
    sim.schedule(9.0, lambda _: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 9.0


def test_same_time_events_are_fifo(sim):
    order = []
    for tag in range(5):
        sim.schedule(3.0, lambda _t, tag=tag: order.append(tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda _: None)


def test_negative_timeout_rejected(sim):
    with pytest.raises(SimulationError):
        Timeout(-0.5)


def test_process_advances_clock_and_returns_value(sim):
    def worker():
        yield sim.timeout(5.0)
        yield sim.timeout(2.5)
        return "done"

    proc = sim.process(worker())
    sim.run()
    assert sim.now == 7.5
    assert proc.triggered
    assert proc.value == "done"


def test_process_waits_on_event_value(sim):
    gate = sim.event()
    seen = []

    def waiter():
        value = yield gate
        seen.append((sim.now, value))

    sim.process(waiter())
    sim.schedule(4.0, lambda _: gate.succeed("payload"))
    sim.run()
    assert seen == [(4.0, "payload")]


def test_process_waits_on_process(sim):
    def child():
        yield sim.timeout(3.0)
        return 42

    def parent():
        result = yield sim.process(child())
        return result + 1

    proc = sim.process(parent())
    sim.run()
    assert proc.value == 43
    assert sim.now == 3.0


def test_yield_from_composes_generators(sim):
    def inner():
        yield sim.timeout(2.0)
        return "inner"

    def outer():
        value = yield from inner()
        yield sim.timeout(1.0)
        return value + "-outer"

    proc = sim.process(outer())
    sim.run()
    assert proc.value == "inner-outer"
    assert sim.now == 3.0


def test_event_cannot_fire_twice(sim):
    event = sim.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_event_value_before_fire_raises(sim):
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_waiting_on_fired_event_resumes_immediately(sim):
    event = sim.event()
    event.succeed("early")
    got = []

    def late_waiter():
        yield sim.timeout(10.0)
        value = yield event
        got.append((sim.now, value))

    sim.process(late_waiter())
    sim.run()
    assert got == [(10.0, "early")]


def test_all_of_waits_for_every_event(sim):
    events = [sim.event() for _ in range(3)]
    combined = sim.all_of(events)
    sim.schedule(1.0, lambda _: events[2].succeed("c"))
    sim.schedule(2.0, lambda _: events[0].succeed("a"))
    sim.schedule(5.0, lambda _: events[1].succeed("b"))
    sim.run()
    assert combined.triggered
    assert combined.value == ["a", "b", "c"]
    assert sim.now == 5.0


def test_all_of_empty_fires_immediately(sim):
    combined = sim.all_of([])
    assert combined.triggered
    assert combined.value == []


def test_run_until_stops_early(sim):
    hits = []
    sim.schedule(1.0, lambda _: hits.append(1))
    sim.schedule(10.0, lambda _: hits.append(2))
    sim.run(until=5.0)
    assert hits == [1]
    assert sim.now == 5.0
    sim.run()
    assert hits == [1, 2]


def test_yielding_garbage_raises(sim):
    def bad():
        yield "not an event"

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_livelock_guard(sim):
    def forever():
        while True:
            yield sim.timeout(0.0)

    sim.process(forever())
    with pytest.raises(SimulationError):
        sim.run(max_events=1000)
