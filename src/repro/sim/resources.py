"""Synchronisation primitives built on the event engine.

:class:`Resource` models a pool of identical slots (DRAM controller queue
entries, outstanding AXI transaction IDs, fetch units). :class:`Store` is a
FIFO hand-off queue between producer and consumer processes (the Requestor
feeding descriptors to Fetch Units, for instance). :class:`Wakeup` is the
idle wake-up of a cluster node's ports.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from ..errors import SimulationError
from .engine import Event, Simulator


class Resource:
    """A counted semaphore with FIFO granting.

    Processes acquire with ``yield resource.acquire()`` and must release
    exactly once per acquisition. The acquire event's value is the resource
    itself, which makes ``slot = yield res.acquire()`` read naturally.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"{name}: capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def acquire(self) -> Event:
        """An event that fires once a slot is granted to the caller."""
        event = self.sim.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return a slot; hands it straight to the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release without acquire")
        if self._waiters:
            # The slot changes hands without ever becoming free.
            self._waiters.popleft().succeed(self)
        else:
            self._in_use -= 1


class Store:
    """An unbounded FIFO queue connecting processes.

    ``put`` never blocks; ``yield store.get()`` blocks until an item is
    available and delivers it as the event value. Items are matched to
    getters in FIFO order on both sides.
    """

    def __init__(self, sim: Simulator, name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = self.sim.event()
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self._items)


class Wakeup:
    """A reusable wake-up for processes that idle until there is work.

    ``yield wakeup.wait()`` blocks until the next :meth:`kick`; every
    waiter of one round shares the pending event. A kick with nobody
    waiting is dropped, so an idle loop re-checks for work before it
    waits.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._event: Optional[Event] = None

    def wait(self) -> Event:
        """The pending wake-up event, a fresh one once the last fired."""
        if self._event is None or self._event.triggered:
            self._event = self.sim.event()
        return self._event

    def kick(self) -> None:
        """Wake every process waiting on the pending event."""
        if self._event is not None and not self._event.triggered:
            self._event.succeed()
