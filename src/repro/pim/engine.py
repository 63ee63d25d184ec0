"""The bank-level PIM device: filter, combine and aggregate in DRAM.

:class:`BankPIM` is the execution engine behind the ``@pim`` engine
identity (:data:`repro.query.engines.PIM`). One run:

1. splits the loaded table by DRAM page into row ranges per bank, with
   the timing model's own address mapping
   (:class:`repro.pim.bank.BankLayout`);
2. takes one pass per bank: the bank's page ranges are read as one
   contiguous run of packed rows, the predicate's comparator program
   sweeps it, producing :class:`~repro.pim.bitmap.SelectionBitmap`\\ s
   combined with bulk bitwise AND/OR
   (:class:`~repro.pim.predicate.PredicateProgram`), and the bank's
   bill and fault draw close the pass — the same pass filters both
   sides of a join;
3. either feeds the matching rows' fields into the in-bank accumulator
   (COUNT/SUM/MIN/MAX — the answer leaves DRAM as one register line),
   folds them into per-bank key→state GROUP BY tables merged at the
   ``Transfer[pim → cpu]`` boundary, or ships the merged bitmap to the
   CPU, which gathers the matching rows and materialises the projection.

:meth:`BankPIM.run_join` adds the equi-join path: both sides filter at
the banks, the smaller surviving side hash-partitions across the banks
(:func:`~repro.pim.bank.bank_of_key`) into per-bank hash tables, and the
larger side streams through them — only matched row-id pairs cross the
AXI port before the CPU gathers the joined rows.

Answers are computed from the table's actual packed bytes through the
same little-endian-signed field semantics as
:class:`repro.rme.pushdown.HWSelection` — the shared pushdown surface —
so they are byte-identical to the software operators by construction
(the shootout benchmark asserts it).

Fault injection hooks the same ``dram_bitflip`` plans as the memory
model: a severity-1 event is corrected by the in-bank ECC and counted;
anything stronger poisons the scan's bitmap and raises
:class:`~repro.errors.FaultError` — the executor then degrades to the
CPU row scan and the processor re-roots the subtree onto ``@degraded``,
exactly like the RME path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import FaultError, QueryError
from ..rme.pushdown import unreadable_field
from .bank import BankLayout, bank_of_key
from .bitmap import SelectionBitmap
from .cost import (
    GROUP_ENTRY_BYTES,
    PAIR_BYTES,
    RESULT_LINE_BYTES,
    PIMCostModel,
)
from .predicate import (
    PimUnsupportedError,
    PredicateProgram,
    bank_fields,
    predicate_spec,
    supports_join,
    supports_query,
)


def pim_refusal(query, loaded) -> str:
    """Why the banks cannot run ``query`` over ``loaded``, or ``""``: the
    PIM engine's one eligibility check. The query's shape must lower
    onto the comparators and accumulators
    (:func:`~repro.pim.predicate.supports_query`) and the table must be
    a plain one whose bank fields the datapath reads."""
    reason = (supports_query(query)
              or _table_refusal(query, loaded, bank_fields(query)))
    return f"{query.name}: not PIM-evaluable: {reason}" if reason else ""


def pim_join_refusal(on: str, lhs_query, lhs_loaded,
                     rhs_query, rhs_loaded) -> str:
    """Why the banks cannot join the sides on ``on``, or ``""``: the
    join's shape (:func:`~repro.pim.predicate.supports_join`), then each
    side's table as :func:`pim_refusal` checks it, key included."""
    reason = supports_join(on, lhs_query, rhs_query)
    for query, loaded in ((lhs_query, lhs_loaded), (rhs_query, rhs_loaded)):
        reason = reason or _table_refusal(query, loaded,
                                          (on, *bank_fields(query)))
    return f"join not PIM-evaluable: {reason}" if reason else ""


def _table_refusal(query, loaded, fields) -> str:
    """Why ``loaded`` cannot feed ``query``'s bank ``fields`` to the
    banks: versioned, lacking a column, or a field unreadable or too
    wide for the comparator; else ``""``."""
    if loaded.versioned is not None:
        return (f"table {loaded.name!r} is versioned; the banks scan "
                "physical rows and cannot apply MVCC visibility")
    schema = loaded.schema
    missing = [c for c in query.columns() if c not in schema]
    if missing:
        return f"table {loaded.name!r} lacks columns {missing}"
    reason = unreadable_field(schema, *fields)
    if reason or query.predicate is None:
        return reason
    try:
        predicate_spec(query.predicate).bind(schema)
    except PimUnsupportedError as error:
        return str(error)
    return ""


@dataclass(frozen=True)
class PIMExecution:
    """Everything one PIM scan produced, answer and bill."""

    value: Any
    n_rows: int
    matches: int
    elapsed_ns: float
    bitmap: SelectionBitmap
    breakdown: Dict[str, float] = field(default_factory=dict)

    @property
    def selectivity(self) -> float:
        return self.matches / self.n_rows if self.n_rows else 0.0


@dataclass(frozen=True)
class PIMJoinExecution:
    """Everything one in-bank hash join produced, answer and bill."""

    rows: List[Dict[str, Any]]  #: joined rows over both sides' columns
    n_rows: int  #: physical rows scanned across both sides
    rhs_rows: int  #: right-side rows surviving its filter
    matches: int  #: joined output rows
    elapsed_ns: float
    build_table: str  #: name of the side the banks built the table from
    breakdown: Dict[str, float] = field(default_factory=dict)

    @property
    def selectivity(self) -> float:
        return self.matches / self.rhs_rows if self.rhs_rows else 0.0


@dataclass(frozen=True)
class _SideScan:
    """One join side after its per-bank filter phase."""

    loaded: Any
    query: Any
    layout: BankLayout
    matched: List[int]
    rows: List[Dict[str, Any]]
    filter_ns: float


class BankPIM:
    """The per-system PIM device (one per
    :class:`~repro.core.relmem.RelationalMemorySystem`)."""

    def __init__(self, system):
        self.system = system
        self.model = PIMCostModel(system.platform)
        #: Simulated ns burnt by the most recent faulted scan — the
        #: executor adds it to the degraded fallback's bill.
        self.last_wasted_ns = 0.0

    # -- plumbing ----------------------------------------------------------------
    def _draw_fault(self, bank: int, table_name: str, wasted_ns: float) -> None:
        faults = self.system.faults
        if faults is None:
            return
        event = faults.draw("dram_bitflip", self.system.sim.now)
        if event is None:
            return
        if event.severity <= 1:
            faults.stats.bump("pim_corrected")
            return
        faults.stats.bump("pim_uncorrectable")
        self.last_wasted_ns = wasted_ns
        self._advance_clock(wasted_ns)
        raise FaultError(
            f"uncorrectable {event.severity}-bit flip in DRAM bank {bank} "
            f"poisoned the PIM bitmap for {table_name!r}"
        )

    def _advance_clock(self, elapsed_ns: float) -> None:
        """Move simulated time forward by a closed-form scan's duration,
        so fault plans and later measurements see the PIM run happen."""
        if elapsed_ns > 0:
            sim = self.system.sim
            sim.schedule(elapsed_ns, lambda _arg: None)
            sim.run()

    @staticmethod
    def _bind(query, schema) -> Optional[PredicateProgram]:
        """The query's comparator program, or None with no predicate."""
        if query.predicate is None:
            return None
        return predicate_spec(query.predicate).bind(schema)

    def _filter(self, program: Optional[PredicateProgram], loaded,
                raw: bytes, spent_ns: float,
                bank_work: Optional[Callable[[SelectionBitmap], float]] = None,
                ) -> Tuple[BankLayout, SelectionBitmap, float]:
        """The filter phase: one pass per bank over its page ranges.

        Each bank sweeps ``program`` (every row matches without one)
        over its rows, joined once from its page ranges, and bills the
        scan plus the combine; ``bank_work`` bills the bank's further
        work on its own matches (a group fold or the accumulator). The
        bank's ECC check then closes its scan: an uncorrectable flip
        surfaces there, with ``spent_ns`` plus this bank's work wasted.
        Returns the layout, the table's selection bitmap and the phase's
        time — banks scan concurrently, so the slowest bank's.
        """
        row_size = loaded.schema.row_size
        n_rows = loaded.table.n_rows
        layout = BankLayout(loaded.base_addr, row_size, n_rows,
                            self.model.dram)
        n_compare = program.n_compare if program is not None else 0
        n_combine = program.n_combine if program is not None else 0
        bits = 0
        bank_ns: List[float] = []
        for bank in layout.slices:
            n_bank = bank.n_rows
            if program is None:
                local = (1 << n_bank) - 1
            else:
                blob = b"".join(raw[rows.start * row_size:rows.stop * row_size]
                                for rows in bank.ranges)
                local = program.run(blob, n_bank).bits
            hits = 0  # the bank's local bits, moved to table row ids
            for rows in bank.ranges:
                hits |= (local & ((1 << len(rows)) - 1)) << rows.start
                local >>= len(rows)
            elapsed = self.model.bank_scan_ns(
                bank.n_pages, n_bank, n_compare
            ) + self.model.combine_ns(n_bank, n_combine)
            if bank_work is not None:
                elapsed += bank_work(SelectionBitmap(n_rows, hits))
            self._draw_fault(bank.bank, loaded.name, spent_ns + elapsed)
            bank_ns.append(elapsed)
            bits |= hits
        return layout, SelectionBitmap(n_rows, bits), max(bank_ns, default=0.0)

    # -- the scan ----------------------------------------------------------------
    def run(self, query, loaded) -> PIMExecution:
        """Execute one query entirely at the banks (or raise its
        :func:`pim_refusal` before any simulated time passes)."""
        reason = pim_refusal(query, loaded)
        if reason:
            raise QueryError(reason)
        self.last_wasted_ns = 0.0
        schema = loaded.schema
        row_size = schema.row_size
        raw = loaded.table.raw_bytes()
        program = self._bind(query, schema)

        agg_field: Optional[Tuple[int, int]] = None
        if query.aggregate not in (None, "count"):
            agg_field = schema.covering_group((query.agg_expr.name,))
        group_field: Optional[Tuple[int, int]] = None
        if query.group_by is not None:
            group_field = schema.covering_group((query.group_by,))

        local_tables: List[Dict[int, Any]] = []

        def bank_work(hits: SelectionBitmap) -> float:
            if group_field is None:
                return self.model.accumulate_ns(hits.count(), agg_field[1])
            # The bank folds its matches into a local key→state table.
            local_tables.append(self._fold_bank(
                query, raw, row_size, hits.indices(), group_field, agg_field))
            return self.model.group_fold_ns(
                hits.count(), group_field[1],
                agg_field[1] if agg_field is not None else 0,
            )

        folds = group_field is not None or agg_field is not None
        setup = self.model.setup_ns()
        breakdown: Dict[str, float] = {"setup_ns": setup}
        layout, bitmap, filter_ns = self._filter(
            program, loaded, raw, setup, bank_work if folds else None)
        matched = list(bitmap.indices())
        matches = len(matched)
        breakdown["filter_ns"] = filter_ns
        total = setup + filter_ns

        if group_field is not None:
            value = self._merge_groups(query, raw, row_size, matched,
                                       group_field, local_tables)
            entries = sum(len(t) for t in local_tables)
            readout = self.model.readout_ns(
                max(1, entries * GROUP_ENTRY_BYTES)
            )
            merge = self.model.merge_groups_ns(entries)
            breakdown["merge_ns"] = merge
            total += merge
        elif query.aggregate is not None:
            value = self._aggregate_value(query, raw, row_size, matched,
                                          agg_field)
            readout = self.model.readout_ns(RESULT_LINE_BYTES)
        else:
            value = self._decode(schema, raw, matched, query.select)
            readout = self.model.readout_ns(max(1, bitmap.nbytes))
            pages = len({layout.page_of(r) for r in matched})
            gather = self.model.gather_ns(pages, matches,
                                          schema.covering_group(query.select)[1],
                                          query.work_cost_ns())
            breakdown["gather_ns"] = gather
            total += gather
        breakdown["readout_ns"] = readout
        total += readout
        self._advance_clock(total)
        return PIMExecution(value=value, n_rows=loaded.table.n_rows,
                            matches=matches, elapsed_ns=total, bitmap=bitmap,
                            breakdown=breakdown)

    # -- the join ----------------------------------------------------------------
    def run_join(self, on: str, lhs_query, lhs_loaded,
                 rhs_query, rhs_loaded) -> PIMJoinExecution:
        """Hash-join two loaded tables entirely at the banks.

        Phase 1 filters both sides with the comparator/bitmap path
        (residual predicates run where the rows live). Phase 2 hash-
        partitions the smaller surviving side's keys across the banks
        (:func:`~repro.pim.bank.bank_of_key`) and builds per-bank hash
        tables; phase 3 streams the larger side through them. Only the
        matched row-id pairs cross the AXI boundary; the CPU then
        point-gathers the joined rows from both sides.

        The functional answer is computed with the CPU hash join's exact
        semantics (build from the *left* side, probe the right side in
        row order) so the output is byte-identical to the CPU path
        regardless of which side the cost model builds from.
        """
        reason = pim_join_refusal(on, lhs_query, lhs_loaded,
                                  rhs_query, rhs_loaded)
        if reason:
            raise QueryError(reason)
        self.last_wasted_ns = 0.0

        setup = 2 * self.model.setup_ns()  # both sides' scans are programmed
        breakdown: Dict[str, float] = {"setup_ns": setup}
        lhs = self._filter_side(lhs_query, lhs_loaded, setup)
        breakdown["lhs_filter_ns"] = lhs.filter_ns
        rhs = self._filter_side(rhs_query, rhs_loaded, setup + lhs.filter_ns)
        breakdown["rhs_filter_ns"] = rhs.filter_ns
        total = setup + lhs.filter_ns + rhs.filter_ns

        build, probe = ((lhs, rhs) if len(lhs.rows) <= len(rhs.rows)
                        else (rhs, lhs))
        key_width = build.loaded.schema.column(on).size
        n_banks = max(1, self.model.dram.n_banks)

        # Build: park each surviving build row in its key's bank.
        bucket_sizes: Dict[int, int] = {}
        build_keys: Dict[Any, int] = {}
        for row in build.rows:
            bank = bank_of_key(row[on], n_banks)
            bucket_sizes[bank] = bucket_sizes.get(bank, 0) + 1
            build_keys[row[on]] = build_keys.get(row[on], 0) + 1
        build_ns = max(
            (self.model.hash_build_ns(count, key_width)
             for count in bucket_sizes.values()),
            default=0.0,
        )
        breakdown["build_ns"] = build_ns
        total += build_ns

        # Probe: stream the larger side through the banks' tables.
        probe_counts: Dict[int, int] = {}
        emit_counts: Dict[int, int] = {}
        for row in probe.rows:
            bank = bank_of_key(row[on], n_banks)
            probe_counts[bank] = probe_counts.get(bank, 0) + 1
            hits = build_keys.get(row[on], 0)
            if hits:
                emit_counts[bank] = emit_counts.get(bank, 0) + hits
        probe_ns = max(
            (self.model.hash_probe_ns(probe_counts.get(bank, 0),
                                      emit_counts.get(bank, 0), key_width)
             for bank in probe_counts),
            default=0.0,
        )
        breakdown["probe_ns"] = probe_ns
        total += probe_ns

        from ..query import ops

        joined = ops.hash_join(lhs.rows, rhs.rows, on)
        matches = len(joined)
        readout = self.model.readout_ns(max(1, matches * PAIR_BYTES))
        breakdown["readout_ns"] = readout
        total += readout

        # CPU gather of the joined rows, priced per side over the pages
        # its participating matches live in.
        joined_keys = {row[on] for row in joined}
        gather = 0.0
        for side in (lhs, rhs):
            participating = [r for r, row in zip(side.matched, side.rows)
                             if row[on] in joined_keys]
            pages = len({side.layout.page_of(r) for r in participating})
            _off, width = side.loaded.schema.covering_group(side.query.select)
            gather += self.model.gather_ns(pages, matches, width,
                                           side.query.work_cost_ns())
        breakdown["gather_ns"] = gather
        total += gather

        self._advance_clock(total)
        return PIMJoinExecution(
            rows=joined,
            n_rows=lhs.loaded.table.n_rows + rhs.loaded.table.n_rows,
            rhs_rows=len(rhs.rows),
            matches=matches,
            elapsed_ns=total,
            build_table=build.loaded.name,
            breakdown=breakdown,
        )

    def _filter_side(self, query, loaded, spent_ns: float) -> _SideScan:
        """One join side's filter phase, its matches decoded to rows."""
        raw = loaded.table.raw_bytes()
        layout, bitmap, filter_ns = self._filter(
            self._bind(query, loaded.schema), loaded, raw, spent_ns)
        matched = list(bitmap.indices())
        rows = [dict(zip(query.select, values)) for values in
                self._decode(loaded.schema, raw, matched, query.select)]
        return _SideScan(loaded=loaded, query=query, layout=layout,
                         matched=matched, rows=rows, filter_ns=filter_ns)

    # -- answers -----------------------------------------------------------------
    @staticmethod
    def _fold(func: str, state, value):
        """Merge one value (or partial state) into an accumulator state.

        COUNT/SUM fold by addition (partial counts sum exactly), MIN and
        MAX by comparison — the mergeable quartet; grouped AVG stays
        CPU-side because per-bank means do not merge exactly.
        """
        if func in ("sum", "count"):
            return state + value
        if func == "min":
            return min(state, value)
        return max(state, value)

    def _fold_bank(self, query, raw: bytes, row_size: int,
                   row_ids: Iterable[int], group_field: Tuple[int, int],
                   agg_field: Optional[Tuple[int, int]]) -> Dict[int, Any]:
        """One bank's local key→state fold over its matching rows."""
        goff, gwidth = group_field
        states: Dict[int, Any] = {}
        for r in row_ids:
            base = r * row_size
            key = int.from_bytes(raw[base + goff:base + goff + gwidth],
                                 "little", signed=True)
            if query.aggregate == "count":
                value = 1
            else:
                aoff, awidth = agg_field
                value = int.from_bytes(raw[base + aoff:base + aoff + awidth],
                                       "little", signed=True)
            if key in states:
                states[key] = self._fold(query.aggregate, states[key], value)
            else:
                states[key] = value
        return states

    def _merge_groups(self, query, raw: bytes, row_size: int,
                      matched: List[int], group_field: Tuple[int, int],
                      local_tables: List[Dict[int, Any]]) -> Dict[int, Any]:
        """Merge the banks' partial tables at the transfer boundary.

        The merged dict lists groups in first-match scan order — the
        same insertion order the CPU's hash aggregation produces — so
        the answer is identical to the software path, ordering included.
        """
        merged: Dict[int, Any] = {}
        for states in local_tables:
            for key, value in states.items():
                if key in merged:
                    merged[key] = self._fold(query.aggregate, merged[key],
                                             value)
                else:
                    merged[key] = value
        goff, gwidth = group_field
        order: List[int] = []
        seen = set()
        for r in matched:
            base = r * row_size
            key = int.from_bytes(raw[base + goff:base + goff + gwidth],
                                 "little", signed=True)
            if key not in seen:
                seen.add(key)
                order.append(key)
        return {key: merged[key] for key in order}

    @staticmethod
    def _aggregate_value(query, raw: bytes, row_size: int,
                         matched: List[int],
                         agg_field: Optional[Tuple[int, int]]):
        from ..query import ops

        if query.aggregate == "count":
            return len(matched)
        offset, width = agg_field
        values = [
            int.from_bytes(
                raw[r * row_size + offset:r * row_size + offset + width],
                "little", signed=True,
            )
            for r in matched
        ]
        return ops.aggregate(query.aggregate, values)

    @staticmethod
    def _decode(schema, raw: bytes, matched: List[int],
                columns) -> List[Tuple[Any, ...]]:
        """The matched rows' ``columns``, read in place from the table."""
        row = schema.record(columns).row
        row_size = schema.row_size
        return [row(raw, r * row_size) for r in matched]
