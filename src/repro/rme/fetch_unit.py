"""Fetch Units: Reader -> Column Extractor -> Writer (Figure 5).

A Fetch Unit retrieves one descriptor's worth of data from main memory and
steers the useful bytes into the Reorganization Buffer:

* the **Reader** issues a variable-burst AXI read towards the DRAM
  controller (through the PL-side HP port, which adds a substantial fixed
  latency — the PLIM cost the paper discusses);
* the **Column Extractor** discards the descriptor's leading/trailing
  bytes and packs the column bytes contiguously;
* the **Writer** pushes the packed bytes through the Monitor Bypass into
  the buffer — per chunk in the baseline, per packed line with the Packer
  register (PCK/MLP).

The design revision determines how many Fetch Unit workers run
concurrently (= outstanding DRAM transactions) and whether the worker
stalls on its write acknowledgement.
"""

from __future__ import annotations

from ..config import PlatformConfig
from ..errors import UncorrectableMemoryError
from ..memsys.axi import AXILink
from ..memsys.dram import DRAM
from ..sim import Simulator, StatSet, Store
from ..sim.trace import emit_span
from .designs import DesignParams
from .monitor_bypass import MonitorBypass
from .requestor import STOP, Requestor

#: Poll quantum of a wedged lane: long enough to stay cheap, short enough
#: that a watchdog cancellation takes effect promptly.
_HANG_POLL_NS = 5_000.0


class FetchUnitPool:
    """The design's worker processes plus their shared issue port."""

    def __init__(
        self,
        sim: Simulator,
        platform: PlatformConfig,
        dram: DRAM,
        monitor: MonitorBypass,
        design: DesignParams,
        name: str = "fetch",
    ):
        self.sim = sim
        self.platform = platform
        self.dram = dram
        self.monitor = monitor
        self.design = design
        self.stats = StatSet(name)
        #: The PL<->DRAM AXI path, one hop each way per descriptor.
        self.axi = AXILink(sim, platform.pl_dram_latency_ns / 2.0, f"{name}-axi")
        #: The single PL->DRAM issue port all workers share; modelled as a
        #: reservation so back-to-back issues serialise.
        self._issue_port_free_at: float = 0.0
        #: Region end: reads are clipped so aligned bursts never run off the
        #: end of the table's mapped region.
        self.read_limit: int = 0
        #: Optional pushdown sink: when set, extracted rows are handed to
        #: ``result_sink(descriptor, useful_bytes, session)`` (a process)
        #: instead of being written straight to the buffer.
        self.result_sink = None
        #: Optional :class:`repro.faults.FaultInjector` (None = no faults).
        self.faults = None
        #: Callback the engine installs: invoked with a FaultError when a
        #: descriptor's data is unrecoverable. Workers are independent
        #: processes and must not raise toward the CPU themselves.
        self.on_unrecoverable = None

    # -- fast-forward surface ------------------------------------------------------
    @property
    def issue_port_free_at(self) -> float:
        """The issue-port reservation, exposed for the fast-forward replay
        (:mod:`repro.sim.fastpath`) to read at epoch start and commit at
        epoch end. The replay transcribes :meth:`_reserve_issue_port`'s
        ``max(now, free_at)`` math exactly, so round-tripping this value
        is equivalent to having run every worker."""
        return self._issue_port_free_at

    @issue_port_free_at.setter
    def issue_port_free_at(self, value: float) -> None:
        self._issue_port_free_at = value

    # -- timing helpers ------------------------------------------------------------
    def _reserve_issue_port(self) -> float:
        cost = self.platform.pl_cycles(self.platform.pl_dram_issue_cycles)
        start = max(self.sim.now, self._issue_port_free_at)
        self._issue_port_free_at = start + cost
        return (start + cost) - self.sim.now

    def _write_port_cost(self, extracted_bytes: int) -> float:
        cfg = self.platform
        if self.design.packer:
            # One wide BRAM write per packed line, amortised per descriptor.
            fraction = extracted_bytes / cfg.cache_line
            return cfg.pl_cycles(cfg.packer_line_write_cycles) * min(1.0, fraction)
        return cfg.pl_cycles(cfg.monitor_write_cycles)

    # -- the worker process -----------------------------------------------------------
    def worker(self, dispatch: Store, requestor: Requestor, session=None,
               lane: int = 0):
        """One Fetch Unit: loop on descriptors until the STOP sentinel.

        ``session`` (windowed mode) carries a ``cancelled`` flag checked
        before every buffer write — a cancelled window's in-flight data is
        dropped on the floor, like a real engine abandoning a DMA — and a
        ``w_bias`` subtracted from descriptor write addresses so buffer
        offsets are window-relative. ``lane`` names the worker's trace
        lane (``fetch-0`` .. ``fetch-15``) so concurrent descriptors show
        up side by side in the exported timeline.
        """
        cfg = self.platform
        lane_name = f"fetch-{lane}"
        while True:
            descriptor = yield dispatch.get()
            if descriptor is STOP:
                return None
            if session is not None and session.cancelled:
                requestor.retire()
                continue
            service_start = self.sim.now
            read_bytes = min(descriptor.read_bytes, self.read_limit - descriptor.r_addr)
            if self.faults is not None:
                descriptor = yield from self._latch_descriptor(
                    descriptor, read_bytes
                )
                hang = self.faults.draw("fetch_hang", self.sim.now)
                if hang is not None:
                    yield from self._hang(hang, session, lane_name)
                    if session is not None and session.cancelled:
                        self.stats.bump("bytes_dropped", read_bytes)
                        requestor.retire()
                        continue
            # Reader: occupy the issue port, then the long PL->DRAM path.
            yield self.sim.timeout(self._reserve_issue_port())
            yield from self.axi.traverse("read")
            dram_start = self.sim.now
            if self.faults is None:
                payload = yield from self.dram.access(
                    descriptor.r_addr, read_bytes, source="rme"
                )
            else:
                payload = yield from self._fetch_payload(descriptor, read_bytes)
                if payload is None:
                    # Unrecoverable even after retries: report to the
                    # engine (which fails the session toward the CPU) and
                    # drop the descriptor.
                    self.stats.bump("unrecoverable_reads")
                    if self.on_unrecoverable is not None:
                        self.on_unrecoverable(UncorrectableMemoryError(
                            f"DRAM read at {descriptor.r_addr:#x} stayed "
                            "uncorrectable after retries",
                            addr=descriptor.r_addr,
                            descriptor=descriptor,
                        ))
                    requestor.retire()
                    continue
            self.stats.observe("dram_wait_ns", self.sim.now - dram_start)
            yield from self.axi.traverse("return")
            # Column Extractor: one cycle, plus one per extra beat it must
            # accumulate before the output is valid.
            extract_cycles = cfg.extractor_cycles + (descriptor.burst - 1)
            yield self.sim.timeout(cfg.pl_cycles(extract_cycles))
            useful = descriptor.extract(payload)
            self.stats.bump("descriptors")
            self.stats.bump("bytes_fetched", read_bytes)
            self.stats.bump("bytes_useful", len(useful))
            if session is not None and session.cancelled:
                self.stats.bump("bytes_dropped", len(useful))
                requestor.retire()
                continue
            if self.result_sink is not None:
                yield from self.result_sink(descriptor, useful, session)
                self.stats.observe("service_ns", self.sim.now - service_start)
                emit_span(self.sim, lane_name, "descriptor", service_start,
                          row=descriptor.row, bytes=len(useful))
                requestor.retire()
                continue
            w_addr = descriptor.w_addr - (session.w_bias if session else 0)
            # Writer: through the Monitor Bypass to the buffer.
            write = self.monitor.write(
                w_addr, useful, self._write_port_cost(len(useful)), session
            )
            if self.design.serial_write:
                yield from write
            else:
                self.sim.process(write, name="writer")
            self.stats.observe("service_ns", self.sim.now - service_start)
            emit_span(self.sim, lane_name, "descriptor", service_start,
                      row=descriptor.row, bytes=len(useful))
            requestor.retire()

    # -- fault behaviours (only reached when ``self.faults`` is armed) --------------
    def _latch_descriptor(self, descriptor, read_bytes: int):
        """Re-read the descriptor registers, possibly through an upset.

        A ``descriptor_corrupt`` event flips the lead-skip register between
        hand-off and issue. With CRC checks enabled the mismatch is caught
        and the golden copy re-latched (one backoff delay); without them
        the tampered descriptor silently extracts the wrong bytes.
        """
        event = self.faults.draw("descriptor_corrupt", self.sim.now)
        if event is None:
            return descriptor
        tampered = descriptor.tampered(self.faults.rng, read_bytes)
        if tampered is None:
            self.stats.bump("descriptor_upsets_harmless")
            return descriptor
        if (self.faults.recovery.crc_checks
                and tampered.checksum() != descriptor.checksum()):
            self.stats.bump("descriptor_crc_catches")
            yield self.sim.timeout(self.faults.recovery.retry_backoff_ns)
            return descriptor
        self.stats.bump("descriptor_corruptions")
        return tampered

    def _hang(self, event, session, lane_name: str):
        """A wedged lane: poll until the hang elapses or the session dies.

        The loop is bounded (the event carries a finite duration) so the
        simulator's run-to-drain loop always terminates, and it polls the
        session's cancelled flag so a watchdog restart frees the lane
        without waiting out the full hang.
        """
        self.stats.bump("lane_hangs")
        start = self.sim.now
        deadline = start + event.duration_ns
        while self.sim.now < deadline:
            if session is not None and session.cancelled:
                break
            yield self.sim.timeout(
                min(_HANG_POLL_NS, deadline - self.sim.now)
            )
        self.stats.observe("hang_ns", self.sim.now - start)
        emit_span(self.sim, lane_name, "hang", start)
        return None

    def _fetch_payload(self, descriptor, read_bytes: int):
        """DRAM read with retry-on-poison; returns bytes or None."""
        from ..faults import POISONED

        policy = self.faults.recovery
        attempt = 0
        while True:
            payload = yield from self.dram.access(
                descriptor.r_addr, read_bytes, source="rme"
            )
            if payload is not POISONED:
                return payload
            attempt += 1
            delay = policy.retry_delay_ns(attempt)
            if delay is None:
                return None
            self.stats.bump("poisoned_retries")
            yield self.sim.timeout(delay)

    # -- introspection -------------------------------------------------------------------
