"""RME schedulers: who gets the configuration port next.

The prototype exposes *one* configuration port: at any instant the engine
holds one ephemeral descriptor, and pointing it somewhere else costs a
register-programming sequence plus a full projection regeneration. With
many tenants in flight this port is the contended resource, and the
policy that multiplexes it dominates tail latency:

* **fcfs** — a single bounded FIFO, requests served strictly in arrival
  order. Interleaved tenants force a descriptor switch on almost every
  request (the worst case the paper's single-query prototype never
  faces).
* **ctx-switch** — round-robin over *descriptors*: requests queue per
  descriptor and the port drains up to ``quantum`` of them before
  rotating, amortising each reconfiguration over a batch — the
  "context-switching the RME" design sketched in the paper's future
  work.
* **multi-port** — ``n_ports`` engine contexts, each holding its own
  descriptor (the multiple-configuration-port extension). Arrivals are
  dispatched to a port already holding their descriptor when possible,
  otherwise to the shortest queue; idle ports steal from the longest
  backlog so the extra capacity is never wasted.

All policies apply the same admission control: when the total backlog
reaches ``queue_depth`` waiting requests, new arrivals are *shed* (the
client gets an immediate rejection instead of an unbounded queueing
delay). The backlog is one running count kept by the base class, so
reading it costs the same whatever the number of queues.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from ..errors import ConfigurationError
from ..sim import Gauge, StatSet
from .workload import Request

#: Policy names accepted by :func:`make_scheduler` and the CLI.
POLICIES = ("fcfs", "ctx-switch", "multi-port")


def policy_names() -> List[str]:
    """Scheduler policy names, for CLI help text and usage errors.

    Mirrors :func:`repro.query.engines.engine_names`: the CLI lists
    policies from here, so a policy added to :data:`POLICIES` and
    :func:`make_scheduler` shows up in ``--help`` and error messages
    without touching the CLI.
    """
    return list(POLICIES)


@dataclass
class Port:
    """One engine context: the descriptor it currently holds."""

    index: int
    descriptor: Optional[object] = None
    served: int = 0
    switches: int = 0

    def reconfigure(self, descriptor: object, stats: StatSet) -> bool:
        """Point the port at ``descriptor``; True when that took a switch.

        A switch re-programs the port and counts a ``context_switches``;
        a port already holding the descriptor serves hot (``hot_hits``).
        """
        if self.descriptor != descriptor:
            self.descriptor = descriptor
            self.switches += 1
            stats.bump("context_switches")
            return True
        stats.bump("hot_hits")
        return False


class SchedulerPolicy:
    """Shared bookkeeping: bounded admission, backlog gauge, shed counts."""

    name = "?"

    def __init__(
        self,
        ports: List[Port],
        queue_depth: int,
        stats: StatSet,
        descriptor_of: Callable[[Request], object],
    ):
        if queue_depth < 1:
            raise ConfigurationError(
                f"queue depth must be >= 1, got {queue_depth}"
            )
        if not ports:
            raise ConfigurationError("scheduler needs at least one port")
        self.ports = ports
        self.queue_depth = queue_depth
        self.stats = stats
        self.descriptor_of = descriptor_of
        self._backlog = 0  #: requests waiting in every queue together
        #: Bound at the first admission: a scheduler that never admits
        #: anything (a cluster node no request reached) has no gauge.
        self._backlog_gauge: Optional[Gauge] = None

    # -- the policy surface --------------------------------------------------
    def admit(self, request: Request) -> bool:
        """Enqueue ``request`` or shed it; returns True when admitted."""
        if self._backlog >= self.queue_depth:
            self.stats.bump("shed")
            return False
        self._enqueue(request)
        self._backlog += 1
        self.stats.bump("admitted")
        gauge = self._backlog_gauge
        if gauge is None:
            gauge = self._backlog_gauge = self.stats.gauge("backlog")
        gauge.set(self._backlog)
        return True

    def pop(self, port_index: int) -> Optional[Request]:
        """The next request port ``port_index`` should serve (or None)."""
        if not self._backlog:
            return None
        request = self._dequeue(port_index)
        self._backlog -= 1
        self._backlog_gauge.set(self._backlog)
        return request

    def backlog(self) -> int:
        """Requests admitted and not yet popped, over every queue."""
        return self._backlog

    def _enqueue(self, request: Request) -> None:
        raise NotImplementedError

    def _dequeue(self, port_index: int) -> Request:
        """Remove and return the request ``port_index`` serves next;
        called only while the backlog is nonzero."""
        raise NotImplementedError


class FCFSScheduler(SchedulerPolicy):
    """One global FIFO; strict arrival order; no descriptor awareness."""

    name = "fcfs"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._queue: Deque[Request] = deque()

    def _enqueue(self, request: Request) -> None:
        self._queue.append(request)

    def _dequeue(self, port_index: int) -> Request:
        return self._queue.popleft()


class CtxSwitchScheduler(SchedulerPolicy):
    """Round-robin over descriptors with a drain quantum.

    Requests queue per descriptor; the port stays on one descriptor for
    up to ``quantum`` consecutive requests (or until its queue drains),
    then rotates to the next descriptor with waiting work. Batching
    amortises the reconfiguration cost the paper identifies as the cost
    of ephemeral context switches.
    """

    name = "ctx-switch"

    def __init__(self, *args, quantum: int = 8, **kwargs):
        super().__init__(*args, **kwargs)
        if quantum < 1:
            raise ConfigurationError(f"quantum must be >= 1, got {quantum}")
        self.quantum = quantum
        self._queues: Dict[object, Deque[Request]] = {}
        self._rotation: List[object] = []  #: descriptors in first-seen order
        self._current: Optional[object] = None
        self._used = 0  #: requests drained from the current descriptor

    def _enqueue(self, request: Request) -> None:
        key = self.descriptor_of(request)
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = deque()
            self._rotation.append(key)
        queue.append(request)

    def _dequeue(self, port_index: int) -> Request:
        current = self._queues.get(self._current)
        if current and self._used < self.quantum:
            self._used += 1
            return current.popleft()
        nxt = self._next_descriptor()
        if nxt != self._current:
            self.stats.bump("rotations")
        self._current = nxt
        self._used = 1
        return self._queues[nxt].popleft()

    def _next_descriptor(self) -> object:
        """The next descriptor (cyclic, after the current one) with work;
        one exists, since the backlog is nonzero."""
        start = 0
        if self._current in self._rotation:
            start = self._rotation.index(self._current) + 1
        n = len(self._rotation)
        return next(
            key for key in (self._rotation[(start + step) % n]
                            for step in range(n))
            if self._queues[key]
        )


class MultiPortScheduler(SchedulerPolicy):
    """Per-port queues with descriptor affinity and work stealing."""

    name = "multi-port"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._queues: List[Deque[Request]] = [deque() for _ in self.ports]

    def _enqueue(self, request: Request) -> None:
        key = self.descriptor_of(request)
        matching = [
            p.index for p in self.ports if p.descriptor == key
        ]
        candidates = matching or [p.index for p in self.ports]
        best = min(candidates, key=lambda i: (len(self._queues[i]), i))
        self._queues[best].append(request)

    def _dequeue(self, port_index: int) -> Request:
        own = self._queues[port_index]
        if own:
            return own.popleft()
        victim = max(
            range(len(self._queues)), key=lambda i: (len(self._queues[i]), -i)
        )
        self.stats.bump("steals")
        return self._queues[victim].popleft()


def make_scheduler(
    policy: str,
    ports: List[Port],
    queue_depth: int,
    stats: StatSet,
    descriptor_of: Callable[[Request], object],
    quantum: int = 8,
) -> SchedulerPolicy:
    """Instantiate the named policy (see :data:`POLICIES`)."""
    if policy == "fcfs":
        return FCFSScheduler(ports, queue_depth, stats, descriptor_of)
    if policy == "ctx-switch":
        return CtxSwitchScheduler(
            ports, queue_depth, stats, descriptor_of, quantum=quantum
        )
    if policy == "multi-port":
        return MultiPortScheduler(ports, queue_depth, stats, descriptor_of)
    raise ConfigurationError(
        f"unknown scheduler policy {policy!r} (choose from {', '.join(POLICIES)})"
    )
