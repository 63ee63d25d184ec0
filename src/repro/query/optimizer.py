"""A cost-based access-path optimizer.

Section 4 of the paper ("Indexes & Execution Strategies") sketches the
payoff of native dual-layout access: "at runtime, the query optimizer can
decide to execute one query with indexes and another query with columns,
alternating between a row-at-a-time and column-at-a-time execution
strategy depending on what is the best fit for each query."

This module implements that decision for scans: given a query and a
loaded table, it prices every available access path with the analytical
model and picks the cheapest, reporting the estimates so callers (and the
advisor example) can show their work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.access_path import AccessPath
from ..core.relmem import LoadedColumnGroup, LoadedIndex, LoadedTable
from ..errors import QueryError
from ..model.analytical import AnalyticalModel
from ..pim import (estimate_join_ns, estimate_query_ns, pim_join_refusal,
                   pim_refusal)
from ..rme.designs import DesignParams, MLP
from .executor import columnar_refusal, index_refusal
from .queries import HASH_BUILD_NS, HASH_PROBE_NS, Query


@dataclass(frozen=True)
class AccessPathChoice:
    """The optimizer's decision and its supporting estimates."""

    query: str
    best: AccessPath
    estimates_ns: Dict[AccessPath, float]
    reason: str

    def speedup_vs(self, other: AccessPath) -> float:
        """Estimated speedup of the chosen path over ``other``."""
        if other not in self.estimates_ns:
            raise QueryError(f"no estimate for path {other}")
        return self.estimates_ns[other] / self.estimates_ns[self.best]


def choose_access_path(
    query: Query,
    loaded: LoadedTable,
    design: DesignParams = MLP,
    columnar: Optional[LoadedColumnGroup] = None,
    rme_hot: bool = False,
    selectivity: float = 1.0,
    index: Optional[LoadedIndex] = None,
    model: Optional[AnalyticalModel] = None,
) -> AccessPathChoice:
    """Pick the cheapest access path for a scan query.

    Prices exactly the engines whose eligibility check passes: the CPU
    row scan and RME always, the ``columnar`` copy, the ``index`` and
    the banks when their ``*_refusal`` check returns ``""`` (the copy's
    storage and maintenance are not priced). ``rme_hot`` prices the RME
    path with the projection already buffered (e.g. a repeated query on
    the same column group). With a selective predicate the index wins,
    otherwise the packed scans do — the alternation Section 4 sketches.
    """
    model = model or AnalyticalModel()
    schema = loaded.schema
    offset, width = schema.covering_group(query.columns())
    n_rows = loaded.table.n_rows
    compute = query.row_compute_ns(selectivity)
    passes = query.passes

    estimates: Dict[AccessPath, float] = {
        AccessPath.DIRECT_ROW: model.direct_ns(
            schema.row_size, width, n_rows, compute
        )
        + (passes - 1)
        * model.direct_repeat_ns(schema.row_size, width, n_rows, compute)
    }
    if columnar is not None and not columnar_refusal(query, columnar):
        estimates[AccessPath.COLUMNAR] = passes * model.columnar_ns(
            width, n_rows, compute
        )
    if rme_hot:
        estimates[AccessPath.RME] = passes * model.rme_hot_ns(width, n_rows, compute)
    else:
        # First pass transforms; any further passes run hot.
        cold = model.rme_cold_ns(
            schema.row_size, width, n_rows, compute, design, offset
        )
        hot = model.rme_hot_ns(width, n_rows, compute)
        estimates[AccessPath.RME] = cold + (passes - 1) * hot

    if index is not None and not index_refusal(query, loaded, index):
        tree = index.index
        matches = max(1, int(round(selectivity * n_rows)))
        estimates[AccessPath.INDEX] = passes * model.index_ns(
            tree.height, max(1, -(-matches // tree.fanout)), matches,
            tree.node_bytes)

    # Bank-level PIM: closed-form, same constants as the executed scan.
    if not pim_refusal(query, loaded):
        estimates[AccessPath.PIM] = estimate_query_ns(
            query, schema, n_rows, selectivity
        )

    best = min(estimates, key=estimates.get)
    reason = _explain(query, best, width, schema.row_size)
    return AccessPathChoice(query.name, best, estimates, reason)


def choose_join_path(
    on: str,
    lhs_query: Query,
    lhs_loaded: LoadedTable,
    rhs_query: Query,
    rhs_loaded: LoadedTable,
    lhs_selectivity: float = 1.0,
    rhs_selectivity: float = 1.0,
    model: Optional[AnalyticalModel] = None,
) -> AccessPathChoice:
    """Pick the cheapest engine for a two-table equi-join on ``on``.

    The CPU path prices two measured row scans plus a per-row hash
    build/probe surcharge; the PIM path (only for joins
    :func:`~repro.pim.engine.pim_join_refusal` passes) prices the
    in-bank partitioned build and probe with only matched row-id pairs
    crossing the AXI boundary. The two candidates mirror exactly what
    :meth:`repro.query.processor.Processor.plan_join` would execute.
    """
    model = model or AnalyticalModel()
    sides = (
        (lhs_query, lhs_loaded, lhs_selectivity),
        (rhs_query, rhs_loaded, rhs_selectivity),
    )
    cpu_ns = 0.0
    for query, loaded, sel in sides:
        schema = loaded.schema
        _, width = schema.covering_group(query.columns())
        cpu_ns += model.direct_ns(
            schema.row_size, width, loaded.table.n_rows,
            query.row_compute_ns(sel),
        )
    lhs_kept = int(round(lhs_selectivity * lhs_loaded.table.n_rows))
    rhs_kept = int(round(rhs_selectivity * rhs_loaded.table.n_rows))
    cpu_ns += HASH_BUILD_NS * lhs_kept + HASH_PROBE_NS * rhs_kept
    estimates: Dict[AccessPath, float] = {AccessPath.DIRECT_ROW: cpu_ns}

    if not pim_join_refusal(on, lhs_query, lhs_loaded, rhs_query, rhs_loaded):
        estimates[AccessPath.PIM] = estimate_join_ns(
            on,
            lhs_query, lhs_loaded.schema, lhs_loaded.table.n_rows,
            rhs_query, rhs_loaded.schema, rhs_loaded.table.n_rows,
            lhs_selectivity=lhs_selectivity,
            rhs_selectivity=rhs_selectivity,
        )

    best = min(estimates, key=estimates.get)
    if best is AccessPath.PIM:
        reason = ("few rows survive the side filters; hashing them across "
                  "the banks and shipping only matched row-id pairs beats "
                  "streaming both tables")
    else:
        reason = ("enough rows survive that two streaming row scans amortise "
                  "better than the per-bank partition and probe")
    return AccessPathChoice(
        f"{lhs_query.name}⋈{rhs_query.name}", best, estimates, reason
    )


def _explain(query: Query, best: AccessPath, width: int, row_size: int) -> str:
    projectivity = width / row_size
    if best is AccessPath.INDEX:
        return "the predicate is selective enough that probing the B+-tree " \
               "and fetching the few matches beats any scan"
    if best is AccessPath.PIM:
        if query.aggregate is not None:
            return ("the banks can fold the aggregate locally, so only a "
                    "register line ever crosses the AXI boundary")
        return ("few rows survive the predicate; filtering at the banks and "
                "point-fetching the survivors beats streaming everything")
    if best is AccessPath.DIRECT_ROW:
        return (
            f"projectivity {projectivity:.0%} is high enough that moving whole "
            "rows is no worse than routing through the PL"
        )
    if best is AccessPath.COLUMNAR:
        return "a maintained columnar copy exists and packed streaming wins"
    detail = "buffered projection streams from BRAM" if query.passes > 1 else (
        f"only {projectivity:.0%} of each row is useful; on-the-fly projection "
        "skips the rest"
    )
    return detail
