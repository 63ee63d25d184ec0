"""Tests for the Monitor Bypass and the Requestor."""

from repro.config import RMEConfig, ZCU102
from repro.rme.geometry import TableGeometry
from repro.rme.monitor_bypass import MonitorBypass
from repro.rme.reorg_buffer import ReorganizationBuffer
from repro.rme.requestor import STOP, Requestor
from repro.sim import Store


def make_monitor(sim, projected=128):
    buf = ReorganizationBuffer(capacity=1024)
    buf.reset(projected)
    return MonitorBypass(sim, buf), buf


def drain_write(sim, monitor, offset, data, cost=10.0):
    proc = sim.process(monitor.write(offset, data, cost))
    sim.run()
    return proc.value


def test_wait_line_fires_on_completion(sim):
    monitor, _buf = make_monitor(sim)
    fired = []

    def waiter():
        yield monitor.wait_line(0)
        fired.append(sim.now)

    sim.process(waiter())
    sim.process(monitor.write(0, bytes(64), 10.0))
    sim.run()
    assert fired and fired[0] >= 10.0
    assert monitor.stats.count("lines_completed") == 1


def test_wait_on_ready_line_fires_immediately(sim):
    monitor, _buf = make_monitor(sim)
    drain_write(sim, monitor, 0, bytes(64))
    event = monitor.wait_line(0)
    assert event.triggered


def test_line_ready_lookup_counts(sim):
    monitor, _buf = make_monitor(sim)
    assert not monitor.line_ready(0)
    drain_write(sim, monitor, 0, bytes(64))
    assert monitor.line_ready(0)
    assert monitor.stats.count("lookups_miss") == 1
    assert monitor.stats.count("lookups_hit") == 1


def test_write_port_serialises(sim):
    monitor, _buf = make_monitor(sim)
    ends = []

    def writer(offset, delay):
        result = yield from monitor.write(offset, bytes(32), delay)
        ends.append(sim.now)
        return result

    sim.process(writer(0, 10.0))
    sim.process(writer(32, 10.0))
    sim.run()
    assert ends == [10.0, 20.0]  # second write waits for the port


def test_activation_hook_fires_once(sim):
    monitor, _buf = make_monitor(sim)
    calls = []
    monitor.activation_hook = lambda: calls.append(sim.now)
    assert not monitor.activated
    monitor.notice_access()
    monitor.notice_access()
    assert calls == [0.0]
    assert monitor.activated


def test_reconfigure_rearms_activation(sim):
    monitor, buf = make_monitor(sim)
    calls = []
    monitor.activation_hook = lambda: calls.append(1)
    monitor.notice_access()
    buf.reset(128)
    monitor.reconfigure()
    monitor.notice_access()
    assert len(calls) == 2


def test_requestor_emits_all_descriptors(sim):
    geometry = TableGeometry(RMEConfig(64, 20, ((0, 4),)), 0, 16)
    dispatch = Store(sim)
    requestor = Requestor(sim, ZCU102, dispatch, n_consumers=2)
    received = []

    def consumer():
        while True:
            item = yield dispatch.get()
            if item is STOP:
                return
            received.append(item.row)
            requestor.retire()

    proc = sim.process(requestor.run(geometry))
    sim.process(consumer())
    sim.process(consumer())
    sim.run()
    assert sorted(received) == list(range(20))
    assert proc.value == 20


def test_requestor_paces_one_descriptor_per_cycle(sim):
    geometry = TableGeometry(RMEConfig(64, 10, ((0, 4),)), 0, 16)
    dispatch = Store(sim)
    requestor = Requestor(sim, ZCU102, dispatch, n_consumers=1)
    times = []

    def consumer():
        while True:
            item = yield dispatch.get()
            if item is STOP:
                return
            times.append(sim.now)
            requestor.retire()

    sim.process(requestor.run(geometry))
    sim.process(consumer())
    sim.run()
    # One descriptor per requestor cycle (10 ns at 100 MHz).
    deltas = [b - a for a, b in zip(times, times[1:])]
    assert all(d >= ZCU102.pl_cycles(ZCU102.requestor_cycles) - 1e-9 for d in deltas)


def test_requestor_backpressure_without_consumers(sim):
    """With no one retiring descriptors, the requestor stalls at its credit
    limit instead of flooding the queue."""
    geometry = TableGeometry(RMEConfig(64, 100, ((0, 4),)), 0, 16)
    dispatch = Store(sim)
    requestor = Requestor(sim, ZCU102, dispatch, n_consumers=1)
    sim.process(requestor.run(geometry))
    sim.run()
    assert len(dispatch) == requestor.credits.capacity
