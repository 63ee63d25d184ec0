"""FPGA resource, timing and power estimation — the paper's Table 3.

The paper reports post-implementation numbers from Vivado 2017.4 on the
ZCU102 (XCZU9EG) for the MLP design at 100 MHz:

=============================  =======
LUT utilization                 2.78 %
FF utilization                  0.68 %
BRAM utilization               60.69 %
DSP utilization                 0.08 %
Worst Negative Slack            0.818 ns
Static power                    0.733 W
Dynamic power                   3.599 W
=============================  =======

We cannot run Vivado, so this module provides a *parametric estimator*:
per-module logic budgets (fitted so the MLP configuration lands on the
reported numbers) that scale with the design knobs — number of concurrent
fetch workers, buffer capacity, bus width. The point of reproducing
Table 3 is its *structure*: BRAM is deliberately maxed out (the SPMs),
the logic footprint stays marginal (<3 %), DSP use is a couple of address
multipliers, and the 100 MHz target closes timing with less than a cycle
of slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .designs import DesignParams
from .reorg_buffer import DEFAULT_DATA_CAPACITY

#: XCZU9EG (ZCU102) device totals.
ZU9EG_LUT = 274_080
ZU9EG_FF = 548_160
ZU9EG_BRAM36 = 912
ZU9EG_DSP = 2_520

#: Usable bytes in one 36 Kb BRAM block.
BRAM36_BYTES = 4_608

# Per-module logic budgets (LUT, FF), fitted to the paper's MLP report.
_BASE_LUT = {"trapper": 820, "monitor": 1_240, "requestor": 640, "config_port": 120}
_BASE_FF = {"trapper": 380, "monitor": 520, "requestor": 240, "config_port": 60}
_LUT_PER_WORKER = 300
_FF_PER_WORKER = 160
#: BRAM blocks of FIFO/staging per concurrent fetch worker.
_BRAM_PER_WORKER = 4
#: Address generation (Eq. 1: R*i + O) uses two DSP slices.
_DSP_BASE = 2

#: Timing model: base datapath depth plus fan-in growth with worker count.
_CRIT_PATH_BASE_NS = 8.0
_CRIT_PATH_PER_LOG2_WORKER_NS = 0.295

#: Power model constants (fitted): static is device leakage; dynamic scales
#: with clock frequency and active resources.
_STATIC_W = 0.733
_DYN_PER_BRAM_W_AT_100MHZ = 0.00519
_DYN_PER_KLUT_W_AT_100MHZ = 0.0672
_DYN_BASE_W = 0.25


@dataclass(frozen=True)
class ResourceReport:
    """A Table-3-shaped report for one design configuration."""

    design: str
    lut: int
    ff: int
    bram36: int
    dsp: int
    freq_mhz: float
    critical_path_ns: float
    static_w: float
    dynamic_w: float

    # -- utilization percentages ------------------------------------------------
    @property
    def lut_pct(self) -> float:
        return 100.0 * self.lut / ZU9EG_LUT

    @property
    def ff_pct(self) -> float:
        return 100.0 * self.ff / ZU9EG_FF

    @property
    def bram_pct(self) -> float:
        return 100.0 * self.bram36 / ZU9EG_BRAM36

    @property
    def dsp_pct(self) -> float:
        return 100.0 * self.dsp / ZU9EG_DSP

    # -- timing --------------------------------------------------------------------
    @property
    def period_ns(self) -> float:
        return 1000.0 / self.freq_mhz

    @property
    def wns_ns(self) -> float:
        """Worst negative slack; positive means timing closes."""
        return self.period_ns - self.critical_path_ns

    @property
    def timing_met(self) -> bool:
        return self.wns_ns >= 0.0

    def rows(self) -> list:
        """Table 3's rows as (label, value) pairs for the report printer."""
        return [
            ("LUT (%)", round(self.lut_pct, 2)),
            ("FF (%)", round(self.ff_pct, 2)),
            ("BRAM (%)", round(self.bram_pct, 2)),
            ("DSP (%)", round(self.dsp_pct, 2)),
            ("WNS (ns)", round(self.wns_ns, 3)),
            ("Static power (W)", round(self.static_w, 3)),
            ("Dynamic power (W)", round(self.dynamic_w, 3)),
        ]


#: Logic budgets of the pushdown extensions (LUT, FF, BRAM36 blocks):
#: a per-worker comparator, one accumulator, a CAM-backed group table,
#: and a key-membership filter's BRAM bitmap.
FEATURE_COSTS = {
    "selection": (96, 40, 0),      # per worker: compare + commit slot
    "aggregation": (210, 130, 0),  # adder/min-max tree + result register
    "groupby": (640, 380, 2),      # group CAM + per-entry accumulators
    "join_filter": (120, 60, 4),   # key bitmap in BRAM + probe logic
}


def estimate_resources(
    design: DesignParams,
    data_spm_bytes: int = DEFAULT_DATA_CAPACITY,
    metadata_bytes_per_line: int = 4,
    line_size: int = 64,
    freq_mhz: float = 100.0,
    features: tuple = (),
) -> ResourceReport:
    """Estimate the PL footprint of a design configuration.

    ``data_spm_bytes`` is the reorganization-buffer data SPM (2 MB in the
    paper's experiments); the metadata SPM is sized from the packed line
    count. The per-worker terms model the replicated reader/extractor/
    writer logic and staging FIFOs of the MLP revision. ``features`` adds
    the pushdown extensions ("selection", "aggregation", "groupby",
    "join_filter") so their marginal cost can be reported next to the
    paper's projection-only numbers.
    """
    workers = design.outstanding_txns
    lut = sum(_BASE_LUT.values()) + _LUT_PER_WORKER * workers
    ff = sum(_BASE_FF.values()) + _FF_PER_WORKER * workers
    if design.packer:
        lut += 180  # packer register + byte-enable steering
        ff += 140
    feature_bram = 0
    for feature in features:
        if feature not in FEATURE_COSTS:
            raise KeyError(
                f"unknown PL feature {feature!r}; expected one of "
                f"{sorted(FEATURE_COSTS)}"
            )
        f_lut, f_ff, f_bram = FEATURE_COSTS[feature]
        scale = workers if feature == "selection" else 1
        lut += f_lut * scale
        ff += f_ff * scale
        feature_bram += f_bram

    metadata_bytes = (data_spm_bytes // line_size) * metadata_bytes_per_line
    spm_blocks = -(-(data_spm_bytes + metadata_bytes) // BRAM36_BYTES)
    bram = spm_blocks + _BRAM_PER_WORKER * workers + feature_bram

    critical_path = _CRIT_PATH_BASE_NS + _CRIT_PATH_PER_LOG2_WORKER_NS * math.log2(
        max(2, workers)
    )
    dynamic = (
        _DYN_BASE_W
        + _DYN_PER_BRAM_W_AT_100MHZ * bram
        + _DYN_PER_KLUT_W_AT_100MHZ * (lut / 1000.0)
    ) * (freq_mhz / 100.0)

    return ResourceReport(
        design=design.name,
        lut=lut,
        ff=ff,
        bram36=min(bram, ZU9EG_BRAM36),
        dsp=_DSP_BASE,
        freq_mhz=freq_mhz,
        critical_path_ns=critical_path,
        static_w=_STATIC_W,
        dynamic_w=dynamic,
    )
