"""The Trapper: the RME's CPU-facing front door (Figure 5).

Every CPU-originated read targeting an ephemeral variable arrives here as
an AXI ``{A, ID}`` request. The Trapper queues it, asks the Monitor Bypass
whether the packed cache line is ready (Reorganization Buffer hit) or not
(miss), stalls the request until the Fetch Units complete the line when
necessary, and finally forms the ``{ID, RD}`` response.

Timing: a trapped request pays the clock-domain crossing into the 100 MHz
PL, the trap/lookup cycles, a BRAM read, the beats to stream the line back
over the PS-PL port (which serialise across concurrent requests), and the
crossing back. This is why single-access latency through the PL is *worse*
than DRAM even though whole-query behaviour is better.
"""

from __future__ import annotations

from ..config import PlatformConfig
from ..errors import BufferIntegrityError, FaultError
from ..memsys.cdc import ClockDomain
from ..sim import Simulator, StatSet
from ..sim.trace import emit, emit_span
from .monitor_bypass import MonitorBypass
from .reorg_buffer import ReorganizationBuffer


class Trapper:
    """Traps ephemeral-address reads and answers them from the buffer."""

    def __init__(
        self,
        sim: Simulator,
        platform: PlatformConfig,
        monitor: MonitorBypass,
        buffer: ReorganizationBuffer,
        name: str = "trapper",
    ):
        self.sim = sim
        self.platform = platform
        self.monitor = monitor
        self.buffer = buffer
        self.stats = StatSet(name)
        self.pl_clock = ClockDomain("pl", platform.pl_freq_mhz)
        self._response_port_free_at: float = 0.0
        # Per-read constants, pre-resolved: read_line runs once per trapped
        # cache line and the platform config is frozen.
        self._cdc_sync_ns = self.pl_clock.cycles(platform.cdc_pl_cycles)
        self._txn_overhead_ns = platform.pl_cycles(platform.pl_txn_overhead_cycles)
        self._bram_read_ns = platform.pl_cycles(platform.bram_read_cycles)
        self._response_beats = -(-buffer.line_size // platform.axi_bus_bytes)
        self._transfer_ns = self.pl_clock.cycles(self._response_beats)
        #: Optional :class:`repro.faults.FaultInjector` (None = no faults).
        self.faults = None

    def read_line(self, line_idx: int):
        """A process serving one trapped cache-line read; returns the bytes."""
        arrival = self.sim.now
        self.stats.bump("requests")
        self.monitor.notice_access()
        if self.faults is not None:
            self._maybe_poison_buffer()
        cfg = self.platform

        # Cross into the PL domain (synchroniser + edge alignment).
        yield self.sim.timeout(
            self.pl_clock.align_delay(self.sim.now) + self._cdc_sync_ns
        )
        # Trap + metadata lookup.
        yield self.sim.timeout(self._txn_overhead_ns)

        if self.monitor.line_ready(line_idx):
            hit = True
            self.stats.bump("buffer_hits")
            emit(self.sim, "trapper", "buffer_hit", line=line_idx)
        else:
            hit = False
            stall_start = self.sim.now
            self.stats.bump("buffer_misses")
            emit(self.sim, "trapper", "buffer_miss", line=line_idx)
            wake = yield self.monitor.wait_line(line_idx)
            if isinstance(wake, FaultError):
                # The engine declared the fetch session unrecoverable; the
                # exception travels up the CPU's load chain from here.
                self.stats.bump("fault_aborts")
                raise wake
            self.stats.observe("stall_ns", self.sim.now - stall_start)
            emit_span(self.sim, "trapper", "stall", stall_start, line=line_idx)
            if not self.monitor.line_ready(line_idx):
                # Stale wake: the buffer was re-initialised (windowed mode)
                # while this request stalled. The caller retries against
                # the new window state.
                self.stats.bump("stale_retries")
                emit(self.sim, "trapper", "stale_retry", line=line_idx)
                emit_span(self.sim, "trapper", "trap_read", arrival,
                          line=line_idx, outcome="stale")
                return None

        # BRAM read, then stream the line back over the PS-PL port. The
        # response port is shared: concurrent responses serialise beat-wise.
        yield self.sim.timeout(self._bram_read_ns)
        beats = self._response_beats
        transfer = self._transfer_ns
        start = max(self.sim.now, self._response_port_free_at)
        end = start + transfer
        self._response_port_free_at = end
        self.stats.bump("response_beats", beats)
        yield self.sim.timeout(end - self.sim.now)
        emit_span(self.sim, "ps_port", "response", start,
                  line=line_idx, beats=beats)

        # Cross back into the PS domain.
        yield self.sim.timeout(cfg.cdc_ns)
        self.stats.observe("latency_ns", self.sim.now - arrival)
        emit_span(self.sim, "trapper", "trap_read", arrival,
                  line=line_idx, outcome="hit" if hit else "filled")
        if (self.faults is not None and self.faults.recovery.crc_checks
                and not self.buffer.parity_ok(line_idx)):
            # BRAM parity caught an upset in the stored line. The packed
            # data is regenerable but the base table is authoritative, so
            # escalate and let the query layer degrade to a row scan.
            self.stats.bump("parity_aborts")
            raise BufferIntegrityError(
                f"reorganization-buffer line {line_idx} failed parity"
            )
        return self.buffer.read_line(line_idx)

    def _maybe_poison_buffer(self) -> None:
        """Fire an armed ``buffer_poison`` event against a resident line."""
        event = self.faults.draw("buffer_poison", self.sim.now)
        if event is None or not self.buffer.n_lines:
            return
        rng = self.faults.rng
        ready = [i for i in range(self.buffer.n_lines)
                 if self.buffer.line_ready(i)]
        victim = ready[rng.randrange(len(ready))] if ready else (
            rng.randrange(self.buffer.n_lines)
        )
        self.buffer.poison(victim, rng)

    @property
    def hit_rate(self) -> float:
        requests = self.stats.count("buffer_hits") + self.stats.count("buffer_misses")
        if not requests:
            return 0.0
        return self.stats.count("buffer_hits") / requests
