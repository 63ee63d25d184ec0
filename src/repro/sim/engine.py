"""The discrete-event engine: clock, event queue, events and processes.

The design follows the classic generator-based simulation style (as
popularised by SimPy, re-implemented here from scratch so the library has
no runtime dependencies): a *process* is a generator that yields objects
describing what it waits for. The engine resumes the generator when the
awaited thing happens, sending the event's value back into it.

Yieldable objects:

* :class:`Timeout` — resume after a fixed delay (``sim.timeout(ns)``).
* :class:`Event` — resume when someone calls :meth:`Event.succeed`.
* :class:`Process` — resume when another process finishes; the value sent
  back is that process's return value.

Scheduling internals: callbacks with a positive delay go through a binary
heap ordered by ``(time, seq)``; *immediate* callbacks (``delay == 0`` —
event-succeed cascades, store/resource hand-offs, zero-delay timeouts) are
coalesced into a FIFO deque instead, since they all fire at the current
timestamp anyway. The deque is drained in global ``seq`` order relative to
same-time heap entries, so the execution order is exactly the one a pure
heap would produce — it just skips the O(log n) heap churn for the most
common scheduling pattern in the simulator.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from ..errors import SimulationError

#: Sentinel for "the event has not fired yet".
_PENDING = object()

_INF = float("inf")


def _check_delay(delay: float) -> None:
    """Reject negative and non-finite delays with a precise message.

    ``delay < 0`` alone lets ``float('nan')`` through (every comparison
    with NaN is false), and a NaN timestamp corrupts the heap's ordering
    invariant silently; ``inf`` would park a callback at a time that can
    never be reached. Both are always caller bugs.
    """
    if not (0.0 <= delay < _INF):
        if delay != delay or delay == _INF or delay == -_INF:
            raise SimulationError(
                f"cannot schedule a non-finite delay ({delay!r}); NaN/inf "
                "timestamps would corrupt the event-queue ordering"
            )
        raise SimulationError(f"cannot schedule into the past (delay={delay})")


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` (optionally with a
    value) schedules all waiting callbacks at the current simulation time.
    Waiting on an already-succeeded event resumes immediately (at ``now``),
    which makes "check-then-wait" logic race-free.
    """

    __slots__ = ("sim", "_value", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._value: Any = _PENDING
        self._callbacks: Optional[List[Callable[[Any], None]]] = []

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` has been called."""
        return self._value is not _PENDING

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value read before the event fired")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event, waking every waiter at the current time."""
        if self._value is not _PENDING:
            raise SimulationError("event succeeded twice")
        self._value = value
        callbacks, self._callbacks = self._callbacks, None
        for callback in callbacks:
            self.sim.schedule(0.0, callback, value)
        return self

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        """Run ``callback(value)`` when the event fires (immediately if fired)."""
        if self._value is not _PENDING:
            self.sim.schedule(0.0, callback, self._value)
        else:
            self._callbacks.append(callback)


class Timeout:
    """A delay of ``delay`` nanoseconds, yieldable from a process."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if not (0.0 <= delay < _INF):
            _check_delay(delay)
        self.delay = delay
        self.value = value


class Process(Event):
    """A running generator. Also an event that fires when it returns.

    The generator may ``return value``; that value becomes the process
    event's value, and is delivered to any process waiting on it.
    """

    __slots__ = ("_generator", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        sim.schedule(0.0, self._resume, None)

    def _resume(self, value: Any) -> None:
        try:
            target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if type(target) is Timeout:
            self.sim.schedule(target.delay, self._resume, target.value)
        elif isinstance(target, Event):
            target.add_callback(self._resume)
        elif isinstance(target, Timeout):  # a Timeout subclass
            self.sim.schedule(target.delay, self._resume, target.value)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; expected Timeout, "
                "Event or Process"
            )


class Simulator:
    """The event loop: a clock plus a heap of (time, seq, callback) entries.

    Typical use::

        sim = Simulator()

        def worker():
            yield sim.timeout(5.0)
            return "done"

        proc = sim.process(worker())
        sim.run()
        assert sim.now == 5.0 and proc.value == "done"
    """

    __slots__ = ("now", "_queue", "_immediate", "_seq", "tracer")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, Callable, Any]] = []
        #: Same-time FIFO: (seq, callback, arg) entries due at ``now``.
        self._immediate: deque = deque()
        self._seq = 0  #: tie-breaker to keep same-time events FIFO
        #: Optional event log; attach a :class:`repro.sim.trace.Tracer`.
        self.tracer = None

    # -- scheduling ---------------------------------------------------------
    def schedule(self, delay: float, callback: Callable, arg: Any = None) -> None:
        """Run ``callback(arg)`` after ``delay`` ns of simulated time."""
        if not (0.0 <= delay < _INF):
            _check_delay(delay)
        self._seq += 1
        if delay == 0.0:
            self._immediate.append((self._seq, callback, arg))
        else:
            heapq.heappush(self._queue, (self.now + delay, self._seq, callback, arg))

    def schedule_at(self, time: float, callback: Callable, arg: Any = None) -> None:
        """Run ``callback(arg)`` at the absolute timestamp ``time``.

        Unlike ``schedule(time - now, ...)``, this lands on ``time``
        *bit-exactly*: float addition is not associative, so
        ``now + (time - now)`` can differ from ``time`` in the last ulp —
        a difference the fast-forward replay is not allowed to introduce.
        """
        if not (self.now <= time < _INF):
            if time != time or time == _INF or time == -_INF:
                raise SimulationError(
                    f"cannot schedule at a non-finite time ({time!r})"
                )
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        self._seq += 1
        if time == self.now:
            self._immediate.append((self._seq, callback, arg))
        else:
            heapq.heappush(self._queue, (time, self._seq, callback, arg))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A yieldable delay of ``delay`` nanoseconds."""
        return Timeout(delay, value)

    def event(self) -> Event:
        """A fresh pending event."""
        return Event(self)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start ``generator`` as a simulation process."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that fires once every event in ``events`` has fired.

        The combined event's value is the list of individual values, in the
        order the events were given.
        """
        events = list(events)
        combined = self.event()
        if not events:
            combined.succeed([])
            return combined
        remaining = [len(events)]
        values: List[Any] = [None] * len(events)

        def make_callback(index: int) -> Callable[[Any], None]:
            def callback(value: Any) -> None:
                values[index] = value
                remaining[0] -= 1
                if remaining[0] == 0:
                    combined.succeed(values)

            return callback

        for index, event in enumerate(events):
            event.add_callback(make_callback(index))
        return combined

    # -- execution ----------------------------------------------------------
    def step(self) -> bool:
        """Run the earliest scheduled callback. Returns False when idle."""
        immediate = self._immediate
        queue = self._queue
        if immediate:
            # A same-time heap entry scheduled *earlier* (smaller seq) than
            # the oldest immediate callback must still run first.
            if queue:
                head = queue[0]
                if head[0] <= self.now and head[1] < immediate[0][0]:
                    time, _seq, callback, arg = heapq.heappop(queue)
                    self.now = time
                    callback(arg)
                    return True
            _seq, callback, arg = immediate.popleft()
            callback(arg)
            return True
        if not queue:
            return False
        time, _seq, callback, arg = heapq.heappop(queue)
        if time < self.now:
            raise SimulationError("event queue went backwards in time")
        self.now = time
        callback(arg)
        return True

    def run(self, until: Optional[float] = None, max_events: int = 200_000_000) -> float:
        """Drain the event queue (or stop at time ``until``). Returns ``now``.

        ``max_events`` guards against accidental infinite event loops in
        component models; hitting it raises :class:`SimulationError`.
        """
        # Local bindings: this loop dispatches every event in a simulation,
        # so attribute lookups here are the hottest loads in the library.
        executed = 0
        queue = self._queue
        immediate = self._immediate
        heappop = heapq.heappop
        while queue or immediate:
            if immediate:
                head = queue[0] if queue else None
                if (head is not None and head[0] <= self.now
                        and head[1] < immediate[0][0]):
                    time, _seq, callback, arg = heappop(queue)
                    self.now = time
                    callback(arg)
                else:
                    _seq, callback, arg = immediate.popleft()
                    callback(arg)
            else:
                head = queue[0]
                if until is not None and head[0] > until:
                    self.now = until
                    return self.now
                time, _seq, callback, arg = heappop(queue)
                if time < self.now:
                    raise SimulationError("event queue went backwards in time")
                self.now = time
                callback(arg)
            executed += 1
            if executed > max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events; likely a livelock"
                )
        return self.now
