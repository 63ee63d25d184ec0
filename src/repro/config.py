"""Platform and engine configuration.

Two configuration surfaces are defined here:

* :class:`PlatformConfig` — the host platform constants of the paper's
  Table 2 (Xilinx Zynq UltraScale+ ZCU102: 4x Cortex-A53 at 1.5 GHz, 32 KB
  L1-D, 1 MB L2, 64 B cache lines, 100 MHz programmable logic, 4.5 MB BRAM)
  together with the timing parameters the transaction-level simulator needs
  (DRAM timings, bus widths, clock-domain-crossing penalties).

* :class:`RMEConfig` — the runtime configuration port of the Relational
  Memory Engine: row size ``R``, row count ``N`` and one width/offset
  pair ``(C_j, O_j)`` per contiguous run of the requested columns. One
  run is the paper's Table 1 (``C_An``, ``O_An``); several runs are its
  non-contiguous future-work extension.

All times are expressed in nanoseconds and all sizes in bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Tuple

from .errors import ConfigurationError

#: Number of bytes in 1 KiB / 1 MiB, used for readable constants below.
KIB = 1024
MIB = 1024 * 1024


@dataclass(frozen=True)
class DRAMTimings:
    """DDR timing parameters for the banked DRAM model.

    The defaults model the ZCU102's memory *as a single Cortex-A53 core
    experiences it*: ~35 ns to first data on a row-buffer hit, ~70 ns on a
    miss, and an effective 2 GB/s stream (a 16-byte beat every 8 ns) —
    the beat time folds in everything between the core and the DDR pins
    rather than the raw pin bandwidth. See docs/timing_model.md for the
    calibration.
    """

    t_rp: float = 18.0  #: row precharge (close the open row)
    t_rcd: float = 18.0  #: row-to-column delay (activate a row)
    t_cas: float = 20.0  #: column access strobe latency (first-beat delay)
    #: Column-to-column delay: how long one CAS occupies the bank. Smaller
    #: than t_cas because column commands pipeline within an open row.
    t_ccd: float = 6.0
    t_beat: float = 8.0  #: one bus beat (``bus_bytes`` wide) on the data bus
    #: Fixed controller/queueing overhead added to every DRAM request
    #: (latency only; it does not occupy the bank).
    t_controller: float = 15.0
    bus_bytes: int = 16  #: width of one data-bus beat
    n_banks: int = 8  #: independently-schedulable banks
    row_buffer_bytes: int = 2 * KIB  #: DRAM page (row buffer) size

    def validate(self) -> None:
        if self.bus_bytes <= 0 or self.bus_bytes & (self.bus_bytes - 1):
            raise ConfigurationError(
                f"DRAM bus width must be a positive power of two, got {self.bus_bytes}"
            )
        if self.n_banks <= 0:
            raise ConfigurationError("DRAM must have at least one bank")
        if self.row_buffer_bytes < self.bus_bytes:
            raise ConfigurationError("DRAM row buffer smaller than one bus beat")
        for name in ("t_rp", "t_rcd", "t_cas", "t_ccd", "t_beat", "t_controller"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"DRAM timing {name} must be >= 0")

    @property
    def row_miss_latency(self) -> float:
        """Latency of the first beat when the wrong row is open."""
        return self.t_controller + self.t_rp + self.t_rcd + self.t_cas

    @property
    def row_hit_latency(self) -> float:
        """Latency of the first beat when the right row is already open."""
        return self.t_controller + self.t_cas


@dataclass(frozen=True)
class CacheGeometry:
    """Size/associativity/line geometry of one cache level."""

    size: int
    assoc: int
    line_size: int = 64

    def validate(self) -> None:
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ConfigurationError(
                f"cache line size must be a power of two, got {self.line_size}"
            )
        if self.assoc <= 0:
            raise ConfigurationError("associativity must be positive")
        if self.size <= 0 or self.size % (self.assoc * self.line_size):
            raise ConfigurationError(
                f"cache size {self.size} not divisible into {self.assoc}-way sets "
                f"of {self.line_size}-byte lines"
            )

    @property
    def n_sets(self) -> int:
        return self.size // (self.assoc * self.line_size)


@dataclass(frozen=True)
class PlatformConfig:
    """The ZCU102-like platform of the paper's Table 2, plus simulator timing.

    The processing system (PS) runs at ``ps_freq_mhz`` and the programmable
    logic (PL) at ``pl_freq_mhz`` — the paper deliberately constrains the PL
    to 100 MHz, one third of the achievable 300 MHz. Every transaction that
    crosses between the two domains pays a clock-domain-crossing (CDC)
    penalty, which is the effect the paper credits for the PL route being
    slower per-transaction than the direct route (Section 6.3, "Long-Term
    Potential and Impact").
    """

    # --- Table 2 constants -------------------------------------------------
    n_cpus: int = 4
    ps_freq_mhz: float = 1500.0
    pl_freq_mhz: float = 100.0
    pl_max_freq_mhz: float = 300.0
    l1: CacheGeometry = field(default_factory=lambda: CacheGeometry(32 * KIB, 4))
    l2: CacheGeometry = field(default_factory=lambda: CacheGeometry(1 * MIB, 16))
    cache_line: int = 64
    bram_bytes: int = int(4.5 * MIB)

    # --- memory-system timing ---------------------------------------------
    dram: DRAMTimings = field(default_factory=DRAMTimings)
    #: L1 hit latency (ns) — ~3 PS cycles.
    l1_hit_ns: float = 2.0
    #: Additional latency of an L2 hit (ns) — ~20 PS cycles.
    l2_hit_ns: float = 13.0
    #: CPU-side cost of handling one demand L1 miss (replay/AGU occupancy of
    #: the in-order core). Charged per missing line on top of the fill
    #: latency; the main reason a single A53 streams DRAM at ~1.6 GB/s
    #: rather than at the raw DDR bandwidth.
    l1_miss_issue_ns: float = 12.0
    #: Prefetcher: lines kept in flight ahead of a detected stream.
    prefetch_degree: int = 4
    #: Largest stride (in cache lines) the stream prefetcher will follow.
    #: The Cortex-A53 prefetcher only tracks consecutive line fetches, which
    #: is why row-store scans with rows wider than a line lose prefetching —
    #: the effect behind Figure 10's growing RME advantage.
    max_prefetch_stride_lines: int = 1
    #: Demand misses the CPU core can overlap (miss status holding registers).
    cpu_mshrs: int = 6

    # --- PS <-> PL interface ------------------------------------------------
    #: Bytes per beat on the PS<->PL AXI port (128-bit high-performance port).
    axi_bus_bytes: int = 16
    #: One-way clock-domain-crossing penalty, in PL cycles.
    cdc_pl_cycles: float = 2.0
    #: PL cycles of combinational work to accept/answer one AXI transaction.
    pl_txn_overhead_cycles: float = 2.0
    #: PL cycles for the column extractor to shift/pack one chunk.
    extractor_cycles: float = 1.0
    #: PL cycles for one BRAM read (used when answering buffer hits).
    bram_read_cycles: float = 1.0
    #: PL cycles the reader occupies the PL-side DRAM issue port per request.
    pl_dram_issue_cycles: float = 2.5
    #: Fixed latency (ns) of one PL-originated DRAM read through the HP port.
    #: PLIM measurements on the ZU+ put this around 250-380 ns — the reason
    #: the serial BSL design is an order of magnitude slower than the
    #: direct route (Figure 6, left).
    pl_dram_latency_ns: float = 340.0
    #: PL cycles a per-chunk reorganization-buffer write (through the
    #: Monitor Bypass, including the metadata read-modify-write and the
    #: acknowledgement) occupies the write port. The baseline design pays
    #: this for every extracted chunk (Section 5.2).
    monitor_write_cycles: float = 12.0
    #: PL cycles one *packed full line* write costs when the Packer register
    #: is present (PCK/MLP): the register absorbs the per-chunk traffic and
    #: the BRAM sees one wide write per line.
    packer_line_write_cycles: float = 6.0
    #: PL cycles the Requestor needs to emit one request descriptor.
    requestor_cycles: float = 1.0
    #: Fixed cost (ns) of re-initialising the reorganization buffer when a
    #: projection larger than the on-chip capacity crosses a window
    #: boundary. The paper calls this re-initialisation "costly on the
    #: specific platform" (Section 6.2) and avoids it; the windowed mode
    #: models it so the capacity cliff can be studied.
    window_reinit_ns: float = 15_000.0

    # --- simulator acceleration -------------------------------------------
    #: Fast-forward replay (:mod:`repro.sim.fastpath`): each eligible RME
    #: fetch epoch is computed arithmetically instead of event by event,
    #: and each eligible CPU scan (``RelationalMemorySystem.measure``) runs
    #: on the scan ladder, a flat transcription of the event-driven scan
    #: loop. Purely an accelerator: simulated timestamps, answers and
    #: statistics are bit-identical either way. Epochs fall back to cycle
    #: level, counted by reason, whenever a tracer or fault plan is
    #: attached, the system has more than one CPU core, a parallel-lane
    #: row filter is configured, or an earlier epoch was interrupted;
    #: scans fall back to the event path for the same first three
    #: reasons, for a busy kernel at entry, a windowed variable, or an
    #: epoch the scan would start at cycle level. ``False`` forces the
    #: event-driven path everywhere: it is the reference the golden
    #: fixtures, the replay property tests and ``repro perf`` compare the
    #: fast path against.
    fastpath: bool = True

    def validate(self) -> None:
        self.dram.validate()
        self.l1.validate()
        self.l2.validate()
        if self.l1.line_size != self.cache_line or self.l2.line_size != self.cache_line:
            raise ConfigurationError("cache levels must share the platform line size")
        if self.ps_freq_mhz <= 0 or self.pl_freq_mhz <= 0:
            raise ConfigurationError("clock frequencies must be positive")
        if self.axi_bus_bytes <= 0 or self.axi_bus_bytes & (self.axi_bus_bytes - 1):
            raise ConfigurationError("AXI bus width must be a power of two")
        if self.bram_bytes <= 0:
            raise ConfigurationError("BRAM capacity must be positive")
        if self.prefetch_degree < 0:
            raise ConfigurationError("prefetch degree must be >= 0")
        if self.cpu_mshrs < 1:
            raise ConfigurationError("the CPU needs at least one MSHR")

    # Convenience clock helpers ------------------------------------------------
    @property
    def ps_cycle_ns(self) -> float:
        """Duration of one processing-system clock cycle in ns."""
        return 1000.0 / self.ps_freq_mhz

    @property
    def pl_cycle_ns(self) -> float:
        """Duration of one programmable-logic clock cycle in ns."""
        return 1000.0 / self.pl_freq_mhz

    @property
    def cdc_ns(self) -> float:
        """One-way clock-domain-crossing penalty in ns."""
        return self.cdc_pl_cycles * self.pl_cycle_ns

    def pl_cycles(self, n: float) -> float:
        """Convert ``n`` PL cycles to nanoseconds."""
        return n * self.pl_cycle_ns

    def with_overrides(self, **kwargs) -> "PlatformConfig":
        """Return a copy of this config with the given fields replaced."""
        cfg = replace(self, **kwargs)
        cfg.validate()
        return cfg


#: Default platform used throughout the library and the benchmarks.
ZCU102 = PlatformConfig()


@dataclass(frozen=True)
class RMEConfig:
    """The RME configuration port: the registers of the paper's Table 1.

    ========  ==============  ==============================================
    field     register        description
    ========  ==============  ==============================================
    ``R``     base+0x00       database tuple width (bytes)
    ``N``     base+0x04       database tuple count
    ``C_j``   base+0x08 + 8j  width of run ``j`` of the column group (bytes)
    ``O_j``   base+0x0c + 8j  offset of run ``j`` in the row (bytes)
    ========  ==============  ==============================================

    ``runs`` holds the requested columns as ``(offset, width)`` pairs in
    row order. Table 1's contiguous group (``C_An``, ``O_An``) is the
    one-run case. Several runs program a non-contiguous group, the
    paper's future work (Section 8): the Requestor emits one descriptor
    per run per row, and a row's runs pack back to back in the
    reorganization buffer, like Listing 2's num_fld1, num_fld3 and
    num_fld4. Gaps cost only throughput: one descriptor per run instead
    of one per row.

    Table 1's four writes for one column group, then Listing 2's six for
    two runs of a 96-byte row:

    >>> table1 = RMEConfig(row_size=64, row_count=100, runs=((8, 4),))
    >>> [(f"{addr:#04x}", value) for addr, value in table1.register_writes()]
    [('0x00', 64), ('0x04', 100), ('0x08', 4), ('0x0c', 8)]
    >>> listing2 = RMEConfig(row_size=96, row_count=32, runs=((64, 8), (80, 16)))
    >>> [(f"{addr:#04x}", value) for addr, value in listing2.register_writes()]
    [('0x00', 96), ('0x04', 32), ('0x08', 8), ('0x0c', 64), ('0x10', 16), ('0x14', 80)]
    """

    row_size: int
    row_count: int
    runs: Tuple[Tuple[int, int], ...]  #: (offset, width) pairs, row order

    def validate(self) -> None:
        if self.row_size <= 0:
            raise ConfigurationError("row size R must be positive")
        if self.row_count <= 0:
            raise ConfigurationError("row count N must be positive")
        if not self.runs:
            raise ConfigurationError("a column group needs at least one run")
        previous_end = 0
        for offset, width in self.runs:
            if width <= 0:
                raise ConfigurationError(f"run width {width} must be positive")
            if offset < 0 or offset + width > self.row_size:
                raise ConfigurationError(
                    f"run [{offset}, +{width}) outside the {self.row_size}-byte row"
                )
            if offset < previous_end:
                raise ConfigurationError(
                    "runs must be sorted by offset and non-overlapping"
                )
            previous_end = offset + width

    @property
    def col_width(self) -> int:
        """Packed element width ``C``: the sum of the run widths."""
        return sum(width for _offset, width in self.runs)

    @property
    def col_offset(self) -> int:
        """Offset ``O`` of the first run."""
        return self.runs[0][0]

    @property
    def projected_bytes(self) -> int:
        """Total size of the packed column-group the RME will produce."""
        return self.col_width * self.row_count

    @property
    def base_bytes(self) -> int:
        """Total size of the underlying row-oriented table."""
        return self.row_size * self.row_count

    @property
    def projectivity(self) -> float:
        """Fraction of each row that the query actually needs."""
        return self.col_width / self.row_size

    def register_writes(self, base: int = 0) -> List[Tuple[int, int]]:
        """The (address, value) register writes a driver would issue."""
        writes = [(base + 0x00, self.row_size), (base + 0x04, self.row_count)]
        for index, (offset, width) in enumerate(self.runs):
            writes.append((base + 0x08 + 8 * index, width))
            writes.append((base + 0x0C + 8 * index, offset))
        return writes
