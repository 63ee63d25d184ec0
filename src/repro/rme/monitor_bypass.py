"""The Monitor Bypass: central bookkeeping of the RME (Figure 5).

Responsibilities, per the paper:

(i) answer the Trapper's "is this packed line ready?" queries;
(ii) collect data coming from the Fetch Units and forward it to the
     Reorganization Buffer, updating the metadata SPM;
(iii) recognise when a write completes a packed cache line and wake any
      stalled request waiting on it;
(iv) activate the Requestor on the first access after a reconfiguration.

All writes funnel through one write port; its occupancy is modelled with a
bus-style reservation so concurrent Fetch Units serialise exactly where
the hardware would.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..sim import Event, Simulator, StatSet
from ..sim.trace import emit, emit_span
from .reorg_buffer import ReorganizationBuffer


class MonitorBypass:
    """Metadata bookkeeping plus the shared reorganization-buffer write port."""

    def __init__(self, sim: Simulator, buffer: ReorganizationBuffer, name: str = "monitor"):
        self.sim = sim
        self.buffer = buffer
        self.stats = StatSet(name)
        self._waiters: Dict[int, List[Event]] = {}
        self._write_port_free_at: float = 0.0
        #: Invoked on the first trapped access after a reconfiguration —
        #: the engine installs a callback that starts the Requestor.
        self.activation_hook: Optional[Callable[[], None]] = None
        self._activated = False
        # Fast-forward visibility schedule (repro.sim.fastpath): the buffer
        # is filled at activation time, but each packed line only *becomes*
        # visible at the simulated instant its completing write would have
        # retired. ``None`` means the monitor is in normal cycle-level mode.
        self._ff_schedule: Optional[Dict[int, float]] = None
        self._ff_end: float = 0.0
        #: Completion instants with a wake armed on the kernel.
        self._ff_armed: set = set()
        self._ff_generation = 0

    # -- configuration lifecycle -------------------------------------------------
    def reconfigure(self) -> None:
        """Forget all completion state (new geometry loaded)."""
        for waiters in self._waiters.values():
            if waiters:
                raise RuntimeError("reconfigured while requests were stalled")
        self._waiters.clear()
        self._write_port_free_at = 0.0
        self._activated = False
        self._ff_schedule = None
        self._ff_armed.clear()
        self._ff_generation += 1

    def notice_access(self) -> None:
        """Called by the Trapper on every trapped request; first one after a
        reconfiguration activates the Requestor."""
        if not self._activated:
            self._activated = True
            self.stats.bump("activations")
            if self.activation_hook is not None:
                self.activation_hook()

    @property
    def activated(self) -> bool:
        return self._activated

    # -- fast-forward visibility ---------------------------------------------------
    def install_fastforward(self, schedule: Dict[int, float], end: float) -> None:
        """Gate line visibility behind per-line completion timestamps.

        Called by :func:`repro.sim.fastpath.fast_forward` after it has
        filled the reorganization buffer wholesale: ``schedule`` maps each
        packed line to the instant its completing write retires in the
        cycle-level execution, so Trapper-visible behaviour (ready checks,
        stalls, wake times) stays identical even though the data already
        physically sits in BRAM.
        """
        self._ff_schedule = schedule
        self._ff_end = end
        self._ff_armed.clear()
        self._ff_generation += 1

    def cancel_fastforward(self) -> None:
        """Abandon a pending visibility schedule (window switch mid-drain).

        The generation bump orphans any armed line timers; stalled waiters
        are left for the caller (:meth:`invalidate_waiters` /
        :meth:`fail_waiters`) to wake with the appropriate marker.
        """
        self._ff_schedule = None
        self._ff_armed.clear()
        self._ff_generation += 1

    @property
    def fastforward_pending(self) -> bool:
        """True while fast-forwarded lines are still becoming visible."""
        return self._ff_schedule is not None and self.sim.now < self._ff_end

    @property
    def fastforward_drained(self) -> bool:
        """True once every fast-forwarded line is visible (or no FF ran)."""
        return self._ff_schedule is None or self.sim.now >= self._ff_end

    def _ff_fire(self, token) -> None:
        """Wake every line that becomes visible at ``completes_at``.

        Lines sharing a completion instant were completed by one write
        (port completions strictly increase), which wakes them in line
        order, each line's waiters in arrival order.
        """
        generation, completes_at = token
        if generation != self._ff_generation:
            return  # a reconfiguration superseded this schedule
        schedule = self._ff_schedule
        for line_idx in sorted(line for line in self._waiters
                               if schedule.get(line) == completes_at):
            for event in self._waiters.pop(line_idx):
                event.succeed()

    # -- Trapper-facing side -------------------------------------------------------
    def line_ready(self, line_idx: int) -> bool:
        ready = self.buffer.line_ready(line_idx)
        if ready and self._ff_schedule is not None:
            completes_at = self._ff_schedule.get(line_idx)
            if completes_at is not None and completes_at > self.sim.now:
                ready = False  # physically present, not yet visible
        self.stats.bump("lookups_hit" if ready else "lookups_miss")
        return ready

    def wait_line(self, line_idx: int) -> Event:
        """An event firing when packed line ``line_idx`` completes."""
        event = self.sim.event()
        if self.buffer.line_ready(line_idx):
            completes_at = (
                self._ff_schedule.get(line_idx)
                if self._ff_schedule is not None
                else None
            )
            if completes_at is None or completes_at <= self.sim.now:
                event.succeed()
                return event
            # Visible only in the future: stall exactly like the cycle-level
            # path and arm one wake per completion instant.
            self._waiters.setdefault(line_idx, []).append(event)
            self.stats.bump("stalled_requests")
            if completes_at not in self._ff_armed:
                self._ff_armed.add(completes_at)
                self.sim.schedule_at(
                    completes_at, self._ff_fire,
                    (self._ff_generation, completes_at),
                )
            return event
        self._waiters.setdefault(line_idx, []).append(event)
        self.stats.bump("stalled_requests")
        return event

    # -- Fetch-Unit-facing side -------------------------------------------------------
    def write(self, offset: int, data: bytes, port_cycles_ns: float,
              session=None):
        """A process: push extracted bytes through the write port.

        ``port_cycles_ns`` is how long this write occupies the port (the
        per-chunk handshake for BSL, the amortised packed-line cost for the
        packer designs). Completion events for finished lines fire when the
        write retires. A write whose ``session`` was cancelled while it
        waited for the port is dropped (windowed-mode reconfiguration).
        """
        arrival = self.sim.now
        start = max(self.sim.now, self._write_port_free_at)
        end = start + port_cycles_ns
        self._write_port_free_at = end
        self.stats.bump("writes")
        self.stats.bump("write_port_busy_ns", port_cycles_ns)
        # Queueing delay behind other Fetch Units = packer/port occupancy.
        self.stats.observe("port_wait_ns", start - arrival)
        yield self.sim.timeout(end - self.sim.now)
        emit_span(self.sim, "write_port", "write", start, bytes=len(data))
        if session is not None and session.cancelled:
            self.stats.bump("writes_dropped")
            return []
        completed = self.buffer.write(offset, data)
        for line_idx in completed:
            self.stats.bump("lines_completed")
            emit(self.sim, "monitor", "line_complete", line=line_idx)
            for event in self._waiters.pop(line_idx, []):
                event.succeed()
        return completed

    def complete_now(self, offset: int, data: bytes) -> None:
        """Deposit bytes instantly (the engine's end-of-stream register
        write during pushdown finalisation) and wake completed waiters."""
        for line_idx in self.buffer.write(offset, data):
            self.stats.bump("lines_completed")
            for event in self._waiters.pop(line_idx, []):
                event.succeed()

    def finalize(self, valid_bytes: int) -> None:
        """Truncate the projection (selection pushdown end-of-stream) and
        wake every request whose line just became complete."""
        for line_idx in self.buffer.truncate(valid_bytes):
            self.stats.bump("lines_completed")
            for event in self._waiters.pop(line_idx, []):
                event.succeed()

    def invalidate_waiters(self) -> None:
        """Wake every stalled request with a *stale* completion.

        Used when a window switch resets the buffer underneath pending
        requests: the woken requester re-checks readiness and retries
        against the new window state.
        """
        waiters, self._waiters = self._waiters, {}
        for events in waiters.values():
            for event in events:
                self.stats.bump("stale_wakes")
                event.succeed("stale")

    def fail_waiters(self, error: BaseException) -> None:
        """Wake every stalled request with a fault marker.

        Fetch-unit processes cannot raise toward the CPU (they are
        independent simulation processes); when the engine declares the
        session unrecoverable it hands the exception to the stalled
        Trapper reads, which re-raise it inside the CPU's load chain.
        """
        waiters, self._waiters = self._waiters, {}
        for events in waiters.values():
            for event in events:
                self.stats.bump("fault_wakes")
                event.succeed(error)
