"""A banked DRAM model with open-page policy and a shared data bus.

The model is *reservation based*: when a request arrives, its completion
time is computed immediately from the current bank and bus reservations,
those reservations are advanced, and the requesting process simply sleeps
until the computed completion. This costs O(1) simulation events per
request while still capturing the three effects the paper's evaluation
depends on:

* **row-buffer locality** — sequential streams mostly hit the open row and
  pay only CAS latency; random strides pay precharge + activate;
* **bank-level parallelism** — requests to different banks overlap their
  latencies, which is exactly what the MLP revision exploits with its 16
  outstanding transactions (Section 5.2);
* **data-bus occupancy** — every beat occupies the shared bus, so reading a
  whole 64-byte row to use 4 bytes of it costs 4x the bus time of reading
  one 16-byte beat. This asymmetry is the source of the RME's bandwidth
  win.

Address mapping interleaves consecutive row-buffer-sized blocks across
banks (bank bits above the column bits), the common layout for maximising
stream bandwidth.
"""

from __future__ import annotations

from typing import List, Tuple

from ..config import DRAMTimings
from ..errors import SimulationError
from ..sim import Simulator, StatSet
from ..sim.trace import emit, emit_span
from .memmap import PhysicalMemory


class _Bank:
    """Reservation state of one DRAM bank."""

    __slots__ = ("open_row", "ready_at")

    def __init__(self) -> None:
        self.open_row: int = -1  #: -1 means no row open (after reset)
        self.ready_at: float = 0.0


class DRAM:
    """The main-memory device shared by the direct route and the PL route."""

    def __init__(
        self,
        sim: Simulator,
        timings: DRAMTimings,
        memory: PhysicalMemory,
        name: str = "dram",
    ):
        timings.validate()
        self.sim = sim
        self.t = timings
        self.memory = memory
        self.name = name
        self.stats = StatSet(name)
        self._banks: List[_Bank] = [_Bank() for _ in range(timings.n_banks)]
        self._bus_free_at: float = 0.0
        #: Fast-forward safety tripwire: the replay commits the epoch's
        #: whole reservation schedule at activation time on the premise
        #: that no other traffic interleaves with it. Any access arriving
        #: before this timestamp would have reordered against the
        #: fast-forwarded requests — raise instead of diverging silently.
        self.guard_until: float = 0.0
        #: Optional :class:`repro.faults.FaultInjector` (None = no faults;
        #: the check costs one attribute load, like disabled tracing).
        self.faults = None

    # -- address mapping -----------------------------------------------------
    def locate(self, addr: int) -> Tuple[int, int]:
        """Map a byte address to ``(bank_index, row_id)``."""
        block = addr // self.t.row_buffer_bytes
        return block % self.t.n_banks, block // self.t.n_banks

    def beats_for(self, addr: int, nbytes: int) -> int:
        """Bus beats needed to transfer ``[addr, addr+nbytes)``."""
        if nbytes <= 0:
            raise SimulationError("DRAM access must transfer at least one byte")
        first = addr // self.t.bus_bytes
        last = (addr + nbytes - 1) // self.t.bus_bytes
        return last - first + 1

    # -- the access process ---------------------------------------------------
    def access(self, addr: int, nbytes: int, source: str = "cpu"):
        """Read ``nbytes`` at ``addr``; a process returning the data bytes.

        ``source`` tags the statistics ("cpu", "prefetch", "rme", ...).
        """
        if self.sim.now < self.guard_until:
            raise SimulationError(
                f"DRAM access from {source!r} at t={self.sim.now} during a "
                f"fast-forwarded epoch (guarded until t={self.guard_until}); "
                "the fast path's no-cross-traffic premise was violated"
            )
        t = self.t
        bank_idx, row_id = self.locate(addr)
        bank = self._banks[bank_idx]
        beats = self.beats_for(addr, nbytes)

        arrival = self.sim.now
        arrive = self.sim.now + t.t_controller
        start = max(arrive, bank.ready_at)
        if bank.open_row == row_id:
            first_beat_ready = start + t.t_cas
            command_occupancy = t.t_ccd
            row_state = "hit"
            self.stats.bump("row_hits")
        elif bank.open_row < 0:
            first_beat_ready = start + t.t_rcd + t.t_cas
            command_occupancy = t.t_rcd + t.t_ccd
            row_state = "empty"
            self.stats.bump("row_empty")
        else:
            first_beat_ready = start + t.t_rp + t.t_rcd + t.t_cas
            command_occupancy = t.t_rp + t.t_rcd + t.t_ccd
            row_state = "miss"
            self.stats.bump("row_misses")
        bank.open_row = row_id

        transfer_start = max(first_beat_ready, self._bus_free_at)
        transfer_end = transfer_start + beats * t.t_beat
        self._bus_free_at = transfer_end
        # Column commands pipeline within an open row: the bank frees after
        # t_ccd (plus activate/precharge when the row changed), not after the
        # whole data transfer — but never before it can stream its beats.
        bank.ready_at = max(start + command_occupancy, transfer_end - beats * t.t_beat)

        self.stats.bump("requests_" + source)
        self.stats.bump("bytes_" + source, nbytes)
        self.stats.bump("beats", beats)
        self.stats.bump("service_ns", transfer_end - self.sim.now)
        self.stats.observe("service_latency_ns", transfer_end - self.sim.now)

        yield self.sim.timeout(transfer_end - self.sim.now)
        emit_span(self.sim, self.name, "access", arrival,
                  bank=bank_idx, row=row_state, beats=beats, source=source)
        data = self.memory.read(addr, nbytes)
        if self.faults is not None:
            data = self._apply_ecc(data, addr)
        return data

    def _apply_ecc(self, data: bytes, addr: int):
        """SECDED word model for an armed ``dram_bitflip`` event.

        One flipped bit per ECC word is corrected in flight (counter
        only), two are detected but uncorrectable (the access returns
        :data:`~repro.faults.POISONED` instead of data — the caller's
        retry re-reads the intact array), three or more escape silently:
        the returned payload really is corrupt.
        """
        from ..faults import POISONED

        event = self.faults.draw("dram_bitflip", self.sim.now)
        if event is None:
            return data
        if event.severity == 1:
            self.stats.bump("ecc_corrected")
            return data
        if event.severity == 2:
            self.stats.bump("ecc_uncorrectable")
            emit(self.sim, self.name, "ecc_poison", addr=addr)
            return POISONED
        self.stats.bump("ecc_escaped")
        return self.faults.corrupt_bytes(data, n_flips=event.severity)

    def write(self, addr: int, nbytes: int, source: str = "writeback"):
        """Write ``nbytes`` at ``addr``; a process ending when the data is
        accepted. Same bank/row/bus dynamics as reads (write-back traffic
        from dirty evictions competes with everything else)."""
        if self.sim.now < self.guard_until:
            raise SimulationError(
                f"DRAM write from {source!r} at t={self.sim.now} during a "
                f"fast-forwarded epoch (guarded until t={self.guard_until}); "
                "the fast path's no-cross-traffic premise was violated"
            )
        t = self.t
        bank_idx, row_id = self.locate(addr)
        bank = self._banks[bank_idx]
        beats = self.beats_for(addr, nbytes)

        arrive = self.sim.now + t.t_controller
        start = max(arrive, bank.ready_at)
        if bank.open_row == row_id:
            ready = start + t.t_cas
            occupancy = t.t_ccd
            self.stats.bump("row_hits")
        elif bank.open_row < 0:
            ready = start + t.t_rcd + t.t_cas
            occupancy = t.t_rcd + t.t_ccd
            self.stats.bump("row_empty")
        else:
            ready = start + t.t_rp + t.t_rcd + t.t_cas
            occupancy = t.t_rp + t.t_rcd + t.t_ccd
            self.stats.bump("row_misses")
        bank.open_row = row_id

        transfer_start = max(ready, self._bus_free_at)
        transfer_end = transfer_start + beats * t.t_beat
        self._bus_free_at = transfer_end
        bank.ready_at = max(start + occupancy, transfer_end - beats * t.t_beat)

        self.stats.bump("writes_" + source)
        self.stats.bump("bytes_written", nbytes)
        self.stats.bump("beats", beats)
        # The writer only waits for the command to be accepted; the data
        # drains from the controller's write queue asynchronously.
        yield self.sim.timeout(max(0.0, start - self.sim.now))
        return None

    # -- introspection --------------------------------------------------------
    def reset_state(self) -> None:
        """Close all rows and clear reservations (not the statistics)."""
        for bank in self._banks:
            bank.open_row = -1
            bank.ready_at = 0.0
        self._bus_free_at = 0.0
        self.guard_until = 0.0
