"""The Requestor: turns the configured geometry into request descriptors.

The Requestor walks rows 0..N-1, computes each row's descriptor with
Eqs. (1)-(6) (delegated to :class:`repro.rme.geometry.TableGeometry`), and
hands descriptors to idle Fetch Units. It emits one descriptor per PL
cycle (``requestor_cycles``) and stalls when every Fetch Unit is busy,
exactly as the paper describes ("in case all the Fetch Units are busy, the
Requestor stalls and waits for any Fetch Unit to become available").

Backpressure is credit based: a hardware Requestor has no deep descriptor
FIFO, so descriptor generation stays coupled to fetch progress. Each
descriptor consumes a credit; Fetch Units return the credit when they
retire the descriptor.
"""

from __future__ import annotations

from ..config import PlatformConfig
from ..sim import Resource, Simulator, StatSet, Store
from ..sim.trace import emit_span
from .geometry import TableGeometry

#: Sentinel pushed once per fetch worker when the projection is done.
STOP = None


class Requestor:
    """Descriptor generator feeding the Fetch Units through a Store."""

    def __init__(
        self,
        sim: Simulator,
        platform: PlatformConfig,
        dispatch: Store,
        n_consumers: int,
        name: str = "requestor",
    ):
        self.sim = sim
        self.platform = platform
        self.dispatch = dispatch
        self.n_consumers = n_consumers
        self.name = name
        self.stats = StatSet(name)
        #: Two credits per consumer keep a double-buffered hand-off without
        #: letting the Requestor run arbitrarily far ahead of the fetches.
        self.credits = Resource(sim, max(2, 2 * n_consumers), f"{name}-credits")

    def run(self, geometry: TableGeometry, rows: "range" = None,
            should_stop=None):
        """The descriptor-generation process for one configured projection.

        ``rows`` limits generation to a row window; ``should_stop`` is an
        optional callable polled per descriptor so a cancelled session
        (windowed mode) stops promptly.
        """
        pace = self.platform.pl_cycles(self.platform.requestor_cycles)
        stream_start = self.sim.now
        emitted = 0
        for descriptor in geometry.descriptors(rows):
            if should_stop is not None and should_stop():
                break
            yield self.sim.timeout(pace)
            credit_wait = self.sim.now
            yield self.credits.acquire()
            # Time blocked on fetch-unit credits = how far the Requestor
            # outruns the Fetch Units ("all the Fetch Units are busy").
            self.stats.observe("credit_wait_ns", self.sim.now - credit_wait)
            self.dispatch.put(descriptor)
            emitted += 1
            self.stats.bump("descriptors")
            self.stats.bump("burst_beats", descriptor.burst)
        for _ in range(self.n_consumers):
            self.dispatch.put(STOP)
        emit_span(self.sim, "requestor", "descriptor_stream", stream_start,
                  descriptors=emitted)
        return emitted

    def retire(self) -> None:
        """Called by a Fetch Unit when it finishes a descriptor."""
        self.credits.release()
