"""The query executor: functional answers plus simulated timing.

For each query the executor does two things:

1. **Compute the answer** with the pure-Python operators of
   :mod:`repro.query.ops` over the table's actual values (applying MVCC
   visibility when an ephemeral variable carries a snapshot).
2. **Price the execution** by replaying the query's memory access pattern
   on the simulated platform: a strided scan over the row-store (direct),
   a packed scan over a columnar copy, or a packed scan over the
   ephemeral region served by the RME — one segment per pass, with the
   per-row compute cost derived from the query's expression tree and the
   measured predicate selectivity.

This split keeps results byte-verifiable (the RME's packed buffer is
checked against software projections in the test suite) while the timing
reflects the co-design's memory behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.access_path import AccessPath
from ..core.ephemeral import EphemeralVariable
from ..core.relmem import (
    LoadedColumnGroup,
    LoadedIndex,
    LoadedTable,
    RelationalMemorySystem,
)
from ..errors import FaultError, QueryError, SimulationError
from ..memsys.cpu import ScanSegment
from . import ops
from .expr import key_range
from .queries import HASH_BUILD_NS, HASH_PROBE_NS, Query

#: CPU cost (ns) of the binary search inside one B+-tree node.
_NODE_SEARCH_NS = 2.7


def columnar_refusal(query: Query, columnar: LoadedColumnGroup) -> str:
    """Why the copy cannot serve ``query`` (it lacks a column the query
    reads), or ``""``: the columnar engine's one eligibility check."""
    missing = [c for c in query.columns() if c not in columnar.columns]
    if missing:
        return f"columnar copy {columnar.name!r} lacks columns {missing}"
    return ""


def index_refusal(query: Query, loaded: LoadedTable,
                  loaded_index: LoadedIndex) -> str:
    """Why the index cannot serve ``query`` over ``loaded`` (built over
    another table, or no range on its column), or ``""``: the index
    engine's one eligibility check."""
    column = loaded_index.index.column
    if loaded_index.table is not loaded:
        return (f"the index on {column!r} was built over table "
                f"{loaded_index.table.name!r}, not over the bound "
                f"{loaded.name!r}")
    if query.predicate is None:
        return "the index path needs a selective predicate"
    if key_range(query.predicate, column) is None:
        return (f"predicate {query.predicate!r} does not impose a range on "
                f"indexed column {column!r}")
    return ""


@dataclass
class JoinScan:
    """One executed join input-pair: the joined rows plus the bill.

    The processor finalises this into a :class:`QueryResult` after
    applying the operators above the Join node; ``rhs_rows`` (surviving
    right-side rows) is the denominator of the reported selectivity.
    """

    rows: List[Dict[str, Any]]
    elapsed_ns: float
    rows_scanned: int
    rhs_rows: int
    path: AccessPath
    state: str


@dataclass
class QueryResult:
    """Everything one execution produced."""

    query: str
    path: AccessPath
    value: Any
    elapsed_ns: float
    rows_scanned: int
    selectivity: float
    state: str  #: "cold" / "hot" for the RME path, "-" otherwise
    cache_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def ns_per_row(self) -> float:
        return self.elapsed_ns / self.rows_scanned if self.rows_scanned else 0.0


class QueryExecutor:
    """Runs queries over a loaded table via any access path."""

    def __init__(self, system: RelationalMemorySystem):
        self.system = system

    # -- public entry points ------------------------------------------------------
    def run_direct(
        self, query: Query, loaded: LoadedTable, flush: bool = True
    ) -> QueryResult:
        """Scan the row-oriented base table (the paper's Direct Access)."""
        offset, width = loaded.schema.covering_group(query.columns())
        value, selectivity, n_rows = self._answer(query, loaded)
        compute = query.row_compute_ns(selectivity)
        segment = ScanSegment(
            start=loaded.base_addr + offset,
            n_elems=n_rows,
            elem_size=width,
            stride=loaded.schema.row_size,
            compute_ns=compute,
            name=f"direct:{query.name}",
        )
        elapsed = self._measure([segment] * query.passes, flush)
        return self._result(query, AccessPath.DIRECT_ROW, value, elapsed,
                            n_rows, selectivity, "-")

    def run_columnar(
        self,
        query: Query,
        loaded: LoadedTable,
        columnar: LoadedColumnGroup,
        flush: bool = True,
    ) -> QueryResult:
        """Scan a materialised columnar copy (the Columnar baseline)."""
        reason = columnar_refusal(query, columnar)
        if reason:
            raise QueryError(reason)
        value, selectivity, n_rows = self._answer(query, loaded)
        compute = query.row_compute_ns(selectivity)
        segment = ScanSegment(
            start=columnar.base_addr,
            n_elems=columnar.n_rows,
            elem_size=columnar.width,
            stride=columnar.width,
            compute_ns=compute,
            name=f"columnar:{query.name}",
        )
        elapsed = self._measure([segment] * query.passes, flush)
        return self._result(query, AccessPath.COLUMNAR, value, elapsed,
                            n_rows, selectivity, "-")

    def run_rme(
        self,
        query: Query,
        var: EphemeralVariable,
        flush: bool = True,
    ) -> QueryResult:
        """Scan through the ephemeral variable (cold or hot as it stands)."""
        needed = query.columns()
        missing = [c for c in needed if c not in var.group_schema]
        if missing:
            raise QueryError(
                f"ephemeral view {var.name!r} lacks columns {missing}"
            )
        self.system.activate(var)
        state = "hot" if var.is_hot else "cold"
        value, selectivity, n_rows = self._answer(query, var.loaded, var)
        compute = query.row_compute_ns(selectivity)
        segments = var.scan_segment(compute, query.passes)
        faults = self.system.faults
        if faults is None:
            elapsed = self._measure(segments, flush)
            return self._result(query, AccessPath.RME, value, elapsed,
                                n_rows, selectivity, state)
        sim = self.system.sim
        start_ns = sim.now
        try:
            elapsed = self._measure(segments, flush)
        except FaultError as error:
            # The engine declared the access unrecoverable mid-scan; its
            # failed state clears only when the next access reconfigures
            # it. ``value`` came from the variable's visible versions, so
            # the CPU fallback is staleness-free.
            wasted = sim.now - start_ns
            self.system.deactivate()
            self._fall_back("rme_faults", error, wasted)
            return self._degraded(query, var.loaded, value, selectivity,
                                  n_rows, wasted)
        audited = self._audit_rme(query, var, value, selectivity, n_rows,
                                  elapsed)
        if audited is not None:
            return audited
        return self._result(query, AccessPath.RME, value, elapsed,
                            n_rows, selectivity, state)

    def run_pim(
        self, query: Query, loaded: LoadedTable, flush: bool = True
    ) -> QueryResult:
        """Evaluate the query inside the DRAM banks (bank-level PIM).

        Selection compiles onto the in-bank comparator array, aggregation
        onto the in-bank accumulator; only the merged selection bitmap or
        an aggregate register line crosses the AXI boundary, plus — for
        projection queries — the CPU's point-gather of the matching rows.
        The fault contract mirrors :meth:`run_rme`: an unrecoverable
        in-bank fault keeps its wasted simulated time on the bill, and
        (policy permitting) the answer is recomputed by a direct CPU
        re-scan with state ``"degraded"``.
        """
        from ..pim import BankPIM

        device = BankPIM(self.system)
        self._reset(flush)
        try:
            execution = device.run(query, loaded)
        except FaultError as error:
            self._fall_back("pim_faults", error, device.last_wasted_ns)
            value, selectivity, n_rows = self._answer(query, loaded)
            return self._degraded(query, loaded, value, selectivity, n_rows,
                                  device.last_wasted_ns)
        return self._result(query, AccessPath.PIM, execution.value,
                            execution.elapsed_ns, execution.n_rows,
                            execution.selectivity, "-")

    def run_join(
        self,
        on: str,
        lhs_query: Query,
        lhs_loaded: LoadedTable,
        rhs_query: Query,
        rhs_loaded: LoadedTable,
        flush: bool = True,
    ) -> JoinScan:
        """Hash-join two row-store scans on the CPU.

        Both sides are measured direct scans (the right one back to back
        with the left, caches warm); the hash build over the left side's
        surviving rows and the probe with the right side's add a per-row
        surcharge. The rows come from the one shared
        :func:`ops.hash_join` definition the PIM join's answer uses too.
        """
        lhs = self.run_direct(lhs_query, lhs_loaded, flush)
        rhs = self.run_direct(rhs_query, rhs_loaded, flush=False)
        lhs_rows = [dict(zip(lhs_query.select, row)) for row in lhs.value]
        rhs_rows = [dict(zip(rhs_query.select, row)) for row in rhs.value]
        return JoinScan(
            rows=ops.hash_join(lhs_rows, rhs_rows, on),
            elapsed_ns=(lhs.elapsed_ns + rhs.elapsed_ns
                        + HASH_BUILD_NS * len(lhs_rows)
                        + HASH_PROBE_NS * len(rhs_rows)),
            rows_scanned=lhs.rows_scanned + rhs.rows_scanned,
            rhs_rows=len(rhs_rows),
            path=AccessPath.DIRECT_ROW,
            state="-",
        )

    def run_pim_join(
        self,
        on: str,
        lhs_query: Query,
        lhs_loaded: LoadedTable,
        rhs_query: Query,
        rhs_loaded: LoadedTable,
        flush: bool = True,
    ) -> JoinScan:
        """Hash-join two plain tables inside the DRAM banks.

        Both sides filter at the banks, the smaller surviving side
        builds per-bank hash tables, the larger side probes them; only
        matched row-id pairs cross the AXI boundary before the CPU
        gathers the joined rows. The fault contract mirrors
        :meth:`run_pim`: an unrecoverable in-bank fault keeps its wasted
        simulated time on the bill and (policy permitting) the join is
        recomputed in software over two direct re-scans, with state
        ``"degraded"``.
        """
        from ..pim import BankPIM

        device = BankPIM(self.system)
        self._reset(flush)
        try:
            execution = device.run_join(on, lhs_query, lhs_loaded,
                                        rhs_query, rhs_loaded)
        except FaultError as error:
            self._fall_back("pim_faults", error, device.last_wasted_ns)
            elapsed = device.last_wasted_ns
            sides: List[List[Dict[str, Any]]] = []
            for query, loaded in ((lhs_query, lhs_loaded),
                                  (rhs_query, rhs_loaded)):
                value, selectivity, _ = self._answer(query, loaded)
                elapsed += self._fallback_rescan_ns(query, loaded,
                                                    selectivity)
                sides.append([dict(zip(query.select, row)) for row in value])
            joined = ops.hash_join(sides[0], sides[1], on)
            elapsed += (HASH_BUILD_NS * len(sides[0])
                        + HASH_PROBE_NS * len(sides[1]))
            return JoinScan(
                rows=joined,
                elapsed_ns=elapsed,
                rows_scanned=(lhs_loaded.table.n_rows
                              + rhs_loaded.table.n_rows),
                rhs_rows=len(sides[1]),
                path=AccessPath.DIRECT_ROW,
                state="degraded",
            )
        return JoinScan(
            rows=execution.rows,
            elapsed_ns=execution.elapsed_ns,
            rows_scanned=execution.n_rows,
            rhs_rows=execution.rhs_rows,
            path=AccessPath.PIM,
            state="-",
        )

    def run_rme_pushdown(
        self,
        query: Query,
        var: EphemeralVariable,
        flush: bool = True,
    ) -> QueryResult:
        """Scan a *filtered* ephemeral view (selection pushdown).

        The variable's hardware comparator must implement the query's
        predicate (build it with
        :meth:`RelationalMemorySystem.register_filtered_var` from the same
        condition); the CPU then scans only matching rows and spends no
        cycles on the comparison.
        """
        from ..core.ephemeral import FilteredEphemeralVariable

        if not isinstance(var, FilteredEphemeralVariable):
            raise QueryError("run_rme_pushdown needs a filtered ephemeral view")
        self.system.activate(var)
        state = "hot" if var.is_hot else "cold"
        # Functional: the view is pre-filtered; apply any residual predicate
        # for safety (a no-op when it matches the hardware comparator).
        # One packed view serves the answer and the timing's row count.
        rows = var.values()
        n_rows = var.loaded.table.n_rows
        value, selectivity = self._evaluate(query, var.group_schema.names,
                                            rows, n_rows)
        # Timing: matching rows only, and no predicate cost on the CPU.
        segments = var._segments(len(rows), query.work_cost_ns(),
                                 query.passes)
        elapsed = self._measure(segments, flush)
        return self._result(query, AccessPath.RME, value, elapsed,
                            n_rows, selectivity, state)

    def run_rme_hw_aggregate(self, var: EphemeralVariable, flush: bool = True) -> QueryResult:
        """Read a PL-computed aggregate: one register line of traffic.

        The variable comes from
        :meth:`RelationalMemorySystem.register_hw_aggregate`; cold, the
        read stalls until the engine's fetch stream drains (the whole
        aggregation happens in hardware), hot it is a single buffer hit.
        """
        from ..core.ephemeral import HWAggregateVariable

        if not isinstance(var, HWAggregateVariable):
            raise QueryError("run_rme_hw_aggregate needs a HW-aggregate view")
        self.system.activate(var)
        state = "hot" if self.system.rme.pushdown_done and self.system.is_active(var) else "cold"
        value = var.expected_result()
        segments = var.scan_segment()
        elapsed = self._measure(segments, flush)
        agg = var.hw_aggregation
        n_rows = var.loaded.table.n_rows
        return self._result(
            Query(name=f"hw_{agg.func}", sql=f"PL {agg.func} pushdown",
                  select=("__register__",)),
            AccessPath.RME, value, elapsed, n_rows, 1.0, state,
        )

    def run_rme_hw_group_by(self, var: EphemeralVariable, flush: bool = True) -> QueryResult:
        """Read a PL-computed GROUP BY table: one 16-byte entry per group."""
        from ..core.ephemeral import HWGroupByVariable

        if not isinstance(var, HWGroupByVariable):
            raise QueryError("run_rme_hw_group_by needs a HW group-by view")
        self.system.activate(var)
        state = "hot" if self.system.rme.pushdown_done and self.system.is_active(var) else "cold"
        value = var.expected_result()
        elapsed = self._measure(var._segments(max(1, len(value))), flush)
        cfg = var.hw_group_by
        n_rows = var.loaded.table.n_rows
        return self._result(
            Query(name=f"hw_groupby_{cfg.func}",
                  sql=f"PL {cfg.func} GROUP BY pushdown",
                  select=("__groups__",)),
            AccessPath.RME, value, elapsed, n_rows, 1.0, state,
        )

    def run_index(
        self,
        query: Query,
        loaded: LoadedTable,
        loaded_index: LoadedIndex,
        flush: bool = True,
    ) -> QueryResult:
        """Probe a B+-tree and fetch only the qualifying rows.

        The index narrows the scan to matching rows (a point access per
        match), which wins only for very selective queries — the
        trade-off Section 4 describes.
        """
        reason = index_refusal(query, loaded, loaded_index)
        if reason:
            raise QueryError(reason)
        index = loaded_index.index
        low, high, inclusive = key_range(query.predicate, index.column)
        row_ids = index.range(low, high, inclusive)

        # Functional answer: decode only the matched rows, in row order
        # like every other engine (an indexed table is never versioned,
        # so row ids are physical rows).
        columns = query.columns()
        n_rows = loaded.table.n_rows
        value, selectivity = self._evaluate(
            query, columns,
            [loaded.table.row(rid, columns) for rid in sorted(row_ids)],
            n_rows)

        # Timing: root-to-leaf probe + leaf chain + one row touch per
        # match, fetched in key order.
        self._reset(flush)
        probe = loaded_index.probe_points(low if low is not None else high)
        leaves = loaded_index.leaf_points(low, high)
        offset, width = loaded.schema.covering_group(columns)
        row_size = loaded.schema.row_size
        fetches = [
            (loaded.base_addr + rid * row_size + offset, width) for rid in row_ids
        ]
        elapsed = self.system.measure_points(probe + leaves, _NODE_SEARCH_NS)
        elapsed += self.system.measure_points(
            fetches, query.work_cost_ns() + query.predicate_cost_ns()
        )
        result = self._result(query, AccessPath.INDEX, value, elapsed,
                              n_rows, selectivity, "-")
        return result

    # -- functional evaluation -----------------------------------------------------
    def _answer(
        self,
        query: Query,
        loaded: LoadedTable,
        var: Optional[EphemeralVariable] = None,
    ):
        """Returns ``(value, selectivity, physical_rows_scanned)``.

        The scan always walks every *physical* row (superseded MVCC
        versions included — that is what sits in memory); the answer only
        uses versions visible at the snapshot, matching what the RME
        regenerates for ephemeral variables.
        """
        columns = query.columns()
        if var is not None:
            tuples = var.values(columns)
        else:
            tuples = loaded.table.scan(columns)
            if loaded.versioned is not None:
                # A row-at-a-time engine checks the begin/end timestamps
                # while scanning; only currently-valid versions contribute.
                mask = loaded.versioned.visibility_mask(loaded.current_ts())
                tuples = compress(tuples, mask)
        n_rows = loaded.table.n_rows
        value, selectivity = self._evaluate(query, columns, tuples, n_rows)
        return value, selectivity, n_rows

    @classmethod
    def _evaluate(cls, query: Query, columns: Sequence[str],
                  tuples: Iterable[Tuple[Any, ...]], n_rows: int):
        """Filter and finalise ``tuples``, rows of ``columns``: returns
        ``(value, selectivity)``, the kept share of ``n_rows``."""
        rows = [dict(zip(columns, row)) for row in tuples]
        kept = ops.filter_rows(rows, query.predicate)
        return (cls._finalize(query, kept),
                len(kept) / n_rows if n_rows else 0.0)

    @staticmethod
    def _finalize(query: Query, kept: List[Dict[str, Any]]) -> Any:
        """Aggregate / group / project the filtered rows."""
        if query.group_by is not None:
            return ops.group_aggregate(
                kept, query.group_by, query.aggregate, query.agg_expr
            )
        if query.aggregate is not None:
            values = [query.agg_expr.eval(row) for row in kept]
            return ops.aggregate(query.aggregate, values)
        return ops.project(kept, query.select)

    # -- fault handling ------------------------------------------------------------
    def _drain_fault_wreckage(self) -> None:
        """Run the simulator to empty after a fault escaped a measure.

        Other in-flight processes (prefetch fills stalled on the failed
        session) were woken with the same exception; each surfaces from a
        later ``sim.run`` and must be absorbed before the next clean
        measurement."""
        while True:
            try:
                self.system.sim.run()
            except FaultError:
                self.system.faults.stats.bump("wreckage_drained")
                continue
            return

    def _fall_back(self, counter: str, error: FaultError,
                   wasted_ns: float) -> None:
        """Book an unrecoverable fault and clear the way for the CPU.

        Counts the fault under ``counter`` (``rme_faults`` or
        ``pim_faults``) and under its error type, books the simulated
        time it wasted and drains the wreckage. Re-raises ``error`` when
        the recovery policy forbids a CPU fallback; else counts the
        fallback, and the caller answers from the base table with the
        wasted time kept on the bill.
        """
        faults = self.system.faults
        faults.stats.bump(counter)
        faults.stats.bump("wasted_ns", wasted_ns)
        faults.stats.bump(f"fault_{type(error).__name__}")
        self._drain_fault_wreckage()
        if not faults.recovery.cpu_fallback:
            raise error
        faults.stats.bump("cpu_fallbacks")

    def _degraded(self, query: Query, loaded: LoadedTable, value: Any,
                  selectivity: float, n_rows: int,
                  spent_ns: float) -> QueryResult:
        """The CPU fallback's result: the base-table answer, billed as
        the ``spent_ns`` already burnt plus a direct re-scan."""
        rescan = self._fallback_rescan_ns(query, loaded, selectivity)
        return self._result(query, AccessPath.DIRECT_ROW, value,
                            spent_ns + rescan, n_rows, selectivity,
                            "degraded")

    def _fallback_rescan_ns(self, query: Query, loaded: LoadedTable,
                            selectivity: float) -> float:
        """Price the degraded-mode base-table re-scan (no cache flush —
        the fault interrupted a run already in progress)."""
        offset, width = loaded.schema.covering_group(query.columns())
        segment = ScanSegment(
            start=loaded.base_addr + offset,
            n_elems=loaded.table.n_rows,
            elem_size=width,
            stride=loaded.schema.row_size,
            compute_ns=query.row_compute_ns(selectivity),
            name=f"fallback:{query.name}",
        )
        return self._measure([segment] * query.passes, flush=False)

    def _audit_rme(self, query, var, value, selectivity, n_rows, elapsed):
        """End-to-end check of the packed projection after a clean scan.

        Catches corruption that slipped past ECC, descriptor CRC and
        buffer parity (escaped multi-bit flips, checks disabled by
        policy). Returns a replacement result when the projection is
        corrupt, else None. Only plain full projections are auditable —
        windowed and pushdown variables never hold the whole projection.
        """
        faults = self.system.faults
        if (var.windowed or getattr(var, "pushdown", None) is not None
                or not self.system.is_active(var)):
            return None
        try:
            actual = self.system.rme.packed_bytes()
        except SimulationError:
            return None
        if actual == var.expected_packed_bytes():
            return None
        faults.stats.bump("corrupt_projections")
        if faults.recovery.crc_checks:
            # The software checksum pass catches it: re-answer from the
            # base table and make the next access reconfigure.
            faults.stats.bump("crc_catches")
            self.system.deactivate()
            return self._degraded(query, var.loaded, value, selectivity,
                                  n_rows, elapsed)
        # Undetected with checks off: the CPU really computes over the
        # corrupted bytes. Decode what the buffer holds and answer from
        # that — wrong on purpose, flagged for the chaos harness.
        faults.stats.bump("silent_corruptions")
        schema = var.group_schema
        whole = len(actual) - len(actual) % schema.row_size
        corrupted, _ = self._evaluate(query, schema.names,
                                      schema.record().rows(actual[:whole]),
                                      n_rows)
        return self._result(query, AccessPath.RME, corrupted, elapsed,
                            n_rows, selectivity, "corrupt")

    # -- timing ------------------------------------------------------------------------
    def _measure(self, segments: Sequence[ScanSegment], flush: bool) -> float:
        self._reset(flush)
        return self.system.measure(segments)

    def _reset(self, flush: bool) -> None:
        """Cold caches when ``flush``, and zeroed counters, before a run."""
        if flush:
            self.system.flush_caches()
        self.system.reset_stats()

    def _result(self, query, path, value, elapsed, n_rows, selectivity, state):
        return QueryResult(
            query=query.name,
            path=path,
            value=value,
            elapsed_ns=elapsed,
            rows_scanned=n_rows,
            selectivity=selectivity,
            state=state,
            cache_stats=self.system.cache_stats(),
        )
