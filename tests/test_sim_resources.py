"""Tests for Resource (counted semaphore) and Store (FIFO queue)."""

import pytest

from repro.errors import SimulationError
from repro.sim import Resource, Store


def test_resource_grants_up_to_capacity(sim):
    res = Resource(sim, 2)
    grants = []

    def worker(tag):
        yield res.acquire()
        grants.append((sim.now, tag))
        yield sim.timeout(10.0)
        res.release()

    for tag in range(4):
        sim.process(worker(tag))
    sim.run()
    times = [t for t, _ in grants]
    assert times == [0.0, 0.0, 10.0, 10.0]


def test_resource_fifo_order(sim):
    res = Resource(sim, 1)
    order = []

    def worker(tag):
        yield res.acquire()
        order.append(tag)
        yield sim.timeout(1.0)
        res.release()

    for tag in range(5):
        sim.process(worker(tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_resource_counts(sim):
    res = Resource(sim, 3)

    def worker():
        yield res.acquire()

    sim.process(worker())
    sim.run()
    assert res.in_use == 1
    assert res.available == 2
    res.release()
    assert res.in_use == 0


def test_release_without_acquire_raises(sim):
    res = Resource(sim, 1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_requires_positive_capacity(sim):
    with pytest.raises(SimulationError):
        Resource(sim, 0)


def test_store_put_then_get(sim):
    store = Store(sim)
    store.put("x")
    store.put("y")
    got = []

    def consumer():
        a = yield store.get()
        b = yield store.get()
        got.extend([a, b])

    sim.process(consumer())
    sim.run()
    assert got == ["x", "y"]
    assert len(store) == 0


def test_store_get_blocks_until_put(sim):
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((sim.now, item))

    sim.process(consumer())
    sim.schedule(7.0, lambda _: store.put("late"))
    sim.run()
    assert got == [(7.0, "late")]


def test_store_matches_getters_fifo(sim):
    store = Store(sim)
    got = []

    def consumer(tag):
        item = yield store.get()
        got.append((tag, item))

    sim.process(consumer("first"))
    sim.process(consumer("second"))
    sim.schedule(1.0, lambda _: (store.put("a"), store.put("b")))
    sim.run()
    assert got == [("first", "a"), ("second", "b")]
