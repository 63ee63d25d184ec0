"""Unit tests for the configuration-port scheduler policies."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.serve import Port, make_scheduler
from repro.serve.workload import Request
from repro.sim import StatSet


def request(index, tenant="t0"):
    return Request(index=index, tenant=tenant, template="q", arrival_ns=0.0)


def build(policy, n_ports=1, queue_depth=8, quantum=2):
    ports = [Port(index=i) for i in range(n_ports)]
    stats = StatSet("scheduler")
    sched = make_scheduler(
        policy, ports, queue_depth, stats,
        descriptor_of=lambda r: r.tenant, quantum=quantum,
    )
    return sched, ports, stats


def drain(sched, port_index=0):
    out = []
    while True:
        req = sched.pop(port_index)
        if req is None:
            return out
        out.append(req)


# -- construction -------------------------------------------------------------------


def test_unknown_policy_rejected():
    with pytest.raises(ConfigurationError):
        build("lifo")


def test_bad_shapes_rejected():
    with pytest.raises(ConfigurationError):
        build("fcfs", queue_depth=0)
    with pytest.raises(ConfigurationError):
        make_scheduler("fcfs", [], 4, StatSet("s"), lambda r: None)
    with pytest.raises(ConfigurationError):
        build("ctx-switch", quantum=0)


# -- admission control (shared by every policy) -------------------------------------


@pytest.mark.parametrize("policy", ["fcfs", "ctx-switch", "multi-port"])
def test_admission_bounds_backlog_and_sheds(policy):
    sched, _ports, stats = build(policy, n_ports=1, queue_depth=3)
    admitted = [sched.admit(request(i, tenant=f"t{i % 2}")) for i in range(5)]
    assert admitted == [True, True, True, False, False]
    assert sched.backlog() == 3
    assert stats.count("admitted") == 3
    assert stats.count("shed") == 2
    assert stats.gauge("backlog").max == 3
    # Draining frees capacity again.
    assert sched.pop(0) is not None
    assert sched.admit(request(9))


def queued(sched):
    """Requests sitting in the policy's own queues, counted one by one."""
    queues = getattr(sched, "_queues", None)
    if queues is None:
        return len(sched._queue)
    if isinstance(queues, dict):
        queues = queues.values()
    return sum(len(queue) for queue in queues)


@pytest.mark.parametrize("policy", ["fcfs", "ctx-switch", "multi-port"])
def test_backlog_count_matches_queues_under_interleaving(policy):
    # Admits (some shed), pops on every port, steals and rotations,
    # interleaved at random: the running count never leaves the queues.
    n_ports = 3 if policy == "multi-port" else 1
    sched, ports, stats = build(policy, n_ports=n_ports, queue_depth=6)
    rng = random.Random(5)
    outstanding = 0
    for step in range(2000):
        if rng.random() < 0.55:
            if sched.admit(request(step, tenant=f"t{rng.randrange(4)}")):
                outstanding += 1
        else:
            port = rng.randrange(n_ports)
            served = sched.pop(port)
            if served is not None:
                outstanding -= 1
                ports[port].descriptor = served.tenant
        assert sched.backlog() == outstanding == queued(sched)
        if stats.count("admitted"):
            assert stats.gauge("backlog").value == outstanding
    assert stats.count("shed") > 0
    if policy == "ctx-switch":
        assert stats.count("rotations") > 0
    if policy == "multi-port":
        assert stats.count("steals") > 0
    drained = sum(len(drain(sched, port)) for port in range(n_ports))
    assert drained == outstanding and sched.backlog() == 0 == queued(sched)


# -- fcfs ---------------------------------------------------------------------------


def test_fcfs_strict_arrival_order():
    sched, _, _ = build("fcfs")
    for i in range(5):
        sched.admit(request(i, tenant=f"t{i % 3}"))
    assert [r.index for r in drain(sched)] == [0, 1, 2, 3, 4]


# -- ctx-switch ---------------------------------------------------------------------


def test_ctx_switch_batches_per_descriptor():
    sched, _, _ = build("ctx-switch", quantum=4)
    # Perfectly interleaved arrivals: a b a b a b a b
    for i in range(8):
        sched.admit(request(i, tenant="ab"[i % 2]))
    order = [r.tenant for r in drain(sched)]
    # The port drains one descriptor's batch before rotating.
    assert order == ["a", "a", "a", "a", "b", "b", "b", "b"]


def test_ctx_switch_quantum_preempts_long_queues():
    sched, _, stats = build("ctx-switch", quantum=2, queue_depth=16)
    for i in range(6):
        sched.admit(request(i, tenant="a"))
    sched.admit(request(6, tenant="b"))
    order = [r.tenant for r in drain(sched)]
    # After two 'a's the port must visit 'b' before finishing the rest.
    assert order[:3] == ["a", "a", "b"]
    assert order.count("a") == 6
    assert stats.count("rotations") >= 2


def test_ctx_switch_skips_empty_descriptors():
    sched, _, _ = build("ctx-switch", quantum=1)
    sched.admit(request(0, tenant="a"))
    assert sched.pop(0).tenant == "a"
    sched.admit(request(1, tenant="b"))
    assert sched.pop(0).tenant == "b"
    assert sched.pop(0) is None


# -- multi-port ---------------------------------------------------------------------


def test_multi_port_prefers_descriptor_affinity():
    sched, ports, _ = build("multi-port", n_ports=2, queue_depth=16)
    ports[0].descriptor = "a"
    ports[1].descriptor = "b"
    for i, tenant in enumerate(["a", "b", "a", "b"]):
        sched.admit(request(i, tenant=tenant))
    assert [r.tenant for r in (sched.pop(0), sched.pop(0))] == ["a", "a"]
    assert [r.tenant for r in (sched.pop(1), sched.pop(1))] == ["b", "b"]


def test_multi_port_idle_port_steals():
    sched, ports, stats = build("multi-port", n_ports=2, queue_depth=16)
    ports[0].descriptor = "a"
    ports[1].descriptor = "b"
    for i in range(4):
        sched.admit(request(i, tenant="a"))  # all routed to port 0
    assert sched.pop(1) is not None  # port 1 has nothing of its own
    assert stats.count("steals") == 1
    assert sched.backlog() == 3


def test_multi_port_balances_unknown_descriptors():
    sched, _, _ = build("multi-port", n_ports=2, queue_depth=16)
    for i in range(4):
        sched.admit(request(i, tenant=f"t{i}"))  # nobody holds these
    assert len(drain(sched, 0)) + len(drain(sched, 1)) == 4
