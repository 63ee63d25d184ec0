"""A small generator-based discrete-event simulation kernel.

The hardware models in :mod:`repro.memsys` and :mod:`repro.rme` are written
as cooperating *processes*: Python generators that yield the things they
wait for (a delay, an event, another process). The kernel advances a global
clock in nanoseconds and runs callbacks in timestamp order.

The public surface:

* :class:`Simulator` — the event loop and clock.
* :class:`Event` — a one-shot occurrence processes can wait on.
* :class:`Process` — a running generator; itself an event that fires when
  the generator returns.
* :class:`Resource` — a counted semaphore (e.g. outstanding-transaction
  slots, fetch-unit pool).
* :class:`Store` — an unbounded FIFO queue for passing items between
  processes (e.g. request descriptors).
* :class:`Wakeup` — a reusable idle wake-up (the cluster nodes' ports).
* :class:`Counter`, :class:`Gauge`, :class:`Histogram`, :class:`StatSet`
  — cheap statistics instruments.
* :class:`MetricsRegistry` — the hierarchical directory of every
  component's StatSet, with tree/flat snapshots for exporters.
* :class:`Tracer` — the opt-in event/span log, exportable as Chrome
  trace-event JSON (see :mod:`repro.sim.trace`).
"""

from .engine import Event, Process, Simulator, Timeout
from .metrics import MetricsRegistry
from .resources import Resource, Store, Wakeup
from .stats import Counter, Gauge, Histogram, StatSet
from .trace import TraceRecord, Tracer, to_chrome_trace, write_chrome_trace

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Resource",
    "Store",
    "Wakeup",
    "Counter",
    "Gauge",
    "Histogram",
    "StatSet",
    "MetricsRegistry",
    "Tracer",
    "TraceRecord",
    "to_chrome_trace",
    "write_chrome_trace",
]
