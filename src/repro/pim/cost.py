"""Cycle-level cost model for the bank-level PIM engine.

Every term is priced from the same constants the rest of the simulator
uses (:class:`repro.config.DRAMTimings` for the banks,
:class:`repro.config.PlatformConfig` for the AXI/PL boundary), so PIM
numbers are directly comparable to the measured CPU and RME paths:

* **Bank activation** — each DRAM page a bank's slice occupies is opened
  once per scan (``t_rp + t_rcd``), exactly the open/close cost the
  timing model charges a row-buffer miss.
* **In-bank op latency** — with a page open, the bank sequencer streams
  rows under the sense amplifiers at the column-to-column cadence: one
  ``t_ccd`` per comparator pass per row (the comparator is as wide as a
  column field, which never exceeds one ``bus_bytes`` beat), and one
  ``t_ccd`` per ``bus_bytes``-wide word per bulk bitmap AND/OR.
* **Result readout over AXI** — the final bitmap (``n_rows/8`` bytes) or
  a 64-byte aggregate register line crosses the PL boundary: a CDC
  penalty each way plus one PL cycle per AXI beat, mirroring how the RME
  prices its register traffic.
* **CPU gather** — for selection + projection queries the CPU still
  fetches the matching rows from DRAM by row id: each touched page is
  re-opened once and every match pays first-beat latency plus its data
  beats plus the core's per-miss issue cost. This is the term that makes
  PIM *lose* at high selectivity × wide projections — the gather is
  point access, not a stream.

Banks operate concurrently, so a scan's filter time is the slowest
bank's time, not the sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..config import DRAMTimings, PlatformConfig
from ..errors import ConfigurationError

#: Bytes of the in-bank result register line an aggregate readout moves.
RESULT_LINE_BYTES = 64

#: Bytes of one in-bank group-table entry (key + accumulator state) —
#: the same packed entry width the PL's GROUP BY pushdown ships.
GROUP_ENTRY_BYTES = 16

#: Bytes of one matched (build-row-id, probe-row-id) pair a join readout
#: moves across the AXI boundary.
PAIR_BYTES = 8

#: CPU cost (ns) of merging one per-bank partial group entry into the
#: final table at the ``Transfer[pim → cpu]`` boundary.
MERGE_ENTRY_NS = 4.0

#: Planner's guess for distinct groups when the caller knows nothing.
DEFAULT_GROUP_GUESS = 64


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class PIMCostModel:
    """Closed-form timing for one PIM scan, bound to a platform.

    ``n_ranks`` models multi-rank scale-out: every rank holds an equal
    slice of each bank's rows and scans it concurrently, so all in-bank
    terms (comparator passes, bitmap combines, accumulator and group
    folds, hash build/probe) divide by the rank count. The AXI-side
    terms — setup, readout, and the CPU's point gather — are serial on
    the single PL port and do not scale, which preserves the
    high-selectivity × wide-projection corner where PIM loses.
    """

    platform: PlatformConfig = field(default_factory=PlatformConfig)
    #: Register writes that program one scan (comparators, combine tree,
    #: accumulator opcode, result address) — the PIM analogue of the
    #: RME's four-register configuration port.
    config_regs: int = 4
    #: Memory ranks scanning concurrently (each holds a bank slice).
    n_ranks: int = 4

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ConfigurationError("a PIM system needs at least one rank")

    @property
    def dram(self) -> DRAMTimings:
        return self.platform.dram

    def _ranked(self, ns: float) -> float:
        """Divide an in-bank term across the concurrently scanning ranks."""
        return ns / self.n_ranks

    # -- per-phase terms ---------------------------------------------------------
    def setup_ns(self) -> float:
        """Program the bank sequencers over the AXI configuration port."""
        p = self.platform
        return 2 * p.cdc_ns + (p.pl_txn_overhead_cycles
                               + self.config_regs) * p.pl_cycle_ns

    def bank_scan_ns(self, n_pages: int, n_rows: int, n_compare: int) -> float:
        """One bank's comparator pass over its local rows."""
        d = self.dram
        passes = max(1, n_compare)  # an aggregate-only scan still reads rows
        return self._ranked(
            n_pages * (d.t_rp + d.t_rcd) + n_rows * passes * d.t_ccd
        )

    def combine_ns(self, n_rows: int, n_combine: int) -> float:
        """Bulk bitwise AND/OR over a bank's bitmap words."""
        d = self.dram
        words = max(1, _ceil_div(n_rows, 8 * d.bus_bytes))
        return self._ranked(n_combine * words * d.t_ccd)

    def accumulate_ns(self, n_matches: int, field_width: int) -> float:
        """Feed matching rows' fields into the in-bank accumulator."""
        d = self.dram
        return self._ranked(
            n_matches * max(1, _ceil_div(field_width, d.bus_bytes)) * d.t_ccd
        )

    def group_fold_ns(self, n_matches: int, key_width: int,
                      agg_width: int) -> float:
        """Fold matching rows into a bank's local key→state group table.

        Per match: read the key and aggregate fields (one ``t_ccd`` per
        ``bus_bytes`` beat) plus two sequencer cycles for the hash probe
        and the accumulator update.
        """
        d = self.dram
        beats = max(1, _ceil_div(key_width + agg_width, d.bus_bytes))
        return self._ranked(n_matches * (beats + 2) * d.t_ccd)

    def hash_build_ns(self, n_rows: int, key_width: int) -> float:
        """Insert one bank's share of build rows into its hash table."""
        d = self.dram
        beats = max(1, _ceil_div(key_width, d.bus_bytes))
        return self._ranked(n_rows * (beats + 2) * d.t_ccd)

    def hash_probe_ns(self, n_probes: int, n_matches: int,
                      key_width: int) -> float:
        """Stream probe rows through one bank's table; emit match pairs."""
        d = self.dram
        beats = max(1, _ceil_div(key_width, d.bus_bytes))
        return self._ranked(
            (n_probes * (beats + 2) + n_matches) * d.t_ccd
        )

    def merge_groups_ns(self, n_entries: int) -> float:
        """CPU-side merge of the banks' partial group tables — serial at
        the ``Transfer[pim → cpu]`` boundary, so it grows with the total
        partial-entry count and does not divide by the rank count."""
        return n_entries * MERGE_ENTRY_NS

    def readout_ns(self, n_bytes: int) -> float:
        """Move a result (bitmap or register line) across the AXI port."""
        p = self.platform
        beats = max(1, _ceil_div(n_bytes, p.axi_bus_bytes))
        return (2 * p.cdc_ns + p.pl_txn_overhead_cycles * p.pl_cycle_ns
                + beats * p.pl_cycle_ns)

    def gather_ns(self, n_pages: int, n_matches: int, group_width: int,
                  per_row_ns: float = 0.0) -> float:
        """CPU point-fetches of the matching rows' projected bytes."""
        if n_matches <= 0:
            return 0.0
        d, p = self.dram, self.platform
        beats = max(1, _ceil_div(group_width, d.bus_bytes))
        opens = n_pages * (d.t_rp + d.t_rcd)
        per_match = (d.t_controller + d.t_cas + beats * d.t_beat
                     + p.l1_miss_issue_ns + per_row_ns)
        return opens + n_matches * per_match


def expected_pages_touched(n_pages: int, n_matches: int) -> float:
    """Expected distinct pages ``n_matches`` uniform rows land in.

    The standard occupancy estimate ``P * (1 - (1 - 1/P)^m)`` — used by
    the *planner* when no bitmap exists yet; the executed scan uses the
    actual page set of the actual matches.
    """
    if n_pages <= 0 or n_matches <= 0:
        return 0.0
    return n_pages * (1.0 - (1.0 - 1.0 / n_pages) ** n_matches)


def _pages(schema, n_rows: int, d: DRAMTimings) -> int:
    """Pages a table of ``n_rows`` packed rows fills."""
    rows_per_page = max(1, d.row_buffer_bytes // schema.row_size)
    return _ceil_div(n_rows, rows_per_page)


def _bank_shape(query, schema, n_rows: int,
                d: DRAMTimings) -> Tuple[int, int, int, int]:
    """The integers one filter phase is billed on, for a table spread
    evenly over the banks: rows and pages per bank, then the
    predicate's comparator and combine passes."""
    from .predicate import predicate_spec

    rows_per_bank = _ceil_div(n_rows, d.n_banks)
    pages_per_bank = _pages(schema, rows_per_bank, d)
    n_compare = n_combine = 0
    if query.predicate is not None:
        spec = predicate_spec(query.predicate)
        n_compare, n_combine = spec.n_compare, spec.n_combine
    return rows_per_bank, pages_per_bank, n_compare, n_combine


def estimate_query_ns(
    query,
    schema,
    n_rows: int,
    selectivity: float = 1.0,
    model: PIMCostModel = None,
    n_groups: Optional[int] = None,
) -> float:
    """The planner's closed-form PIM estimate for an eligible query.

    ``n_groups`` is the caller's distinct-group-count estimate for
    GROUP BY queries (defaults to :data:`DEFAULT_GROUP_GUESS`).

    Raises :class:`~repro.pim.predicate.PimUnsupportedError` (via the
    spec pass) when the query cannot be lowered; callers gate on
    :func:`repro.pim.engine.pim_refusal` first.
    """
    model = model or PIMCostModel()
    d = model.dram
    rows_per_bank, pages_per_bank, n_compare, n_combine = _bank_shape(
        query, schema, n_rows, d)

    total = model.setup_ns()
    total += model.bank_scan_ns(pages_per_bank, rows_per_bank, n_compare)
    total += model.combine_ns(rows_per_bank, n_combine)
    matches = int(round(selectivity * n_rows))

    if query.group_by is not None:
        key_width = schema.column(query.group_by).size
        agg_width = 0
        if query.aggregate != "count":
            agg_width = schema.column(query.agg_expr.name).size
        total += model.group_fold_ns(
            _ceil_div(matches, d.n_banks) if matches else 0,
            key_width, agg_width,
        )
        # Each bank ships its own partial table; the entry count is
        # bounded by the matches and by groups-per-bank times banks.
        groups = min(max(1, matches), n_groups or DEFAULT_GROUP_GUESS)
        entries = min(matches, groups * d.n_banks) if matches else 0
        total += model.readout_ns(max(1, entries * GROUP_ENTRY_BYTES))
        total += model.merge_groups_ns(entries)
        return total

    if query.aggregate is not None:
        if query.aggregate == "count":
            field_width = 0  # the bitmap popcount is the answer
        else:
            field_width = schema.column(query.agg_expr.name).size
            total += model.accumulate_ns(
                _ceil_div(matches, d.n_banks) if matches else 0, field_width
            )
        total += model.readout_ns(RESULT_LINE_BYTES)
        return total

    total += model.readout_ns(max(1, _ceil_div(n_rows, 8)))
    _offset, group_width = schema.covering_group(query.select)
    pages_touched = expected_pages_touched(_pages(schema, n_rows, d), matches)
    total += model.gather_ns(int(round(pages_touched)), matches, group_width,
                             query.work_cost_ns())
    return total


def estimate_join_ns(
    on: str,
    lhs_query,
    lhs_schema,
    n_lhs: int,
    rhs_query,
    rhs_schema,
    n_rhs: int,
    lhs_selectivity: float = 1.0,
    rhs_selectivity: float = 1.0,
    matches: Optional[int] = None,
    model: PIMCostModel = None,
) -> float:
    """The planner's closed-form estimate for an in-bank hash join.

    Both sides are filtered at the banks first, the smaller surviving
    side is hash-partitioned across the banks (build), the larger side
    streams through (probe), matched row-id pairs cross the AXI port,
    and the CPU point-gathers the joined rows from both sides. With no
    ``matches`` hint the planner assumes each probe row hits at most one
    build row (the foreign-key shape).
    """
    model = model or PIMCostModel()
    d = model.dram
    total = 2 * model.setup_ns()
    for query, schema, n_rows in ((lhs_query, lhs_schema, n_lhs),
                                  (rhs_query, rhs_schema, n_rhs)):
        rows, pages, n_compare, n_combine = _bank_shape(query, schema,
                                                        n_rows, d)
        total += (model.bank_scan_ns(pages, rows, n_compare)
                  + model.combine_ns(rows, n_combine))

    lhs_kept = int(round(lhs_selectivity * n_lhs))
    rhs_kept = int(round(rhs_selectivity * n_rhs))
    if lhs_kept <= rhs_kept:
        build, probe, build_sel = lhs_kept, rhs_kept, lhs_selectivity
    else:
        build, probe, build_sel = rhs_kept, lhs_kept, rhs_selectivity
    key_width = lhs_schema.column(on).size
    total += model.hash_build_ns(
        _ceil_div(build, d.n_banks) if build else 0, key_width
    )
    if matches is None:
        # FK shape: each probe row joins its one parent, which survived
        # the build side's filter with probability ``build_sel``.
        matches = int(round(probe * build_sel))
    total += model.hash_probe_ns(
        _ceil_div(probe, d.n_banks) if probe else 0,
        _ceil_div(matches, d.n_banks) if matches else 0,
        key_width,
    )
    total += model.readout_ns(max(1, matches * PAIR_BYTES))
    for query, schema, n_rows, kept in (
        (lhs_query, lhs_schema, n_lhs, lhs_kept),
        (rhs_query, rhs_schema, n_rhs, rhs_kept),
    ):
        pages = expected_pages_touched(_pages(schema, n_rows, d),
                                       min(matches, kept))
        _off, width = schema.covering_group(query.select)
        total += model.gather_ns(int(round(pages)), matches, width,
                                 query.work_cost_ns())
    return total
