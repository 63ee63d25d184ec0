"""Per-figure experiment drivers (Section 6 of the paper).

Each ``figNN_*`` function rebuilds the corresponding experiment — the same
queries, geometries and parameter sweeps — on the simulated platform and
returns a :class:`repro.bench.runner.FigureResult` whose series mirror the
paper's plot. Row counts are scaled down (the paper uses up to 2 MB
projections; a pure-Python simulator reproduces the same *steady-state
rates* with a few thousand rows) and can be raised via ``n_rows``.

The module is consumed by ``benchmarks/bench_*.py`` (pytest-benchmark
harness with shape assertions) and by ``examples/reproduce_figures.py``.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import PlatformConfig, ZCU102
from ..errors import ConfigurationError
from ..model.analytical import figure1_curves
from ..parallel import parallel_map
from ..query.queries import Query, q1, q2, q3, q4, q5, q6, q7
from ..query.expr import Col
from ..rme.designs import ALL_DESIGNS, MLP, DesignParams
from ..rme.resources import ResourceReport, estimate_resources
from .runner import ExperimentRunner, FigureResult, PathTimes
from .workloads import make_relation, make_relation_for_row_size

#: Column widths of the paper's width sweeps (Figures 6, 9, 11, 13a).
WIDTH_SWEEP = (1, 2, 4, 8, 16)
#: Row sizes of the paper's row sweeps (Figures 10, 12, 13b).
ROW_SWEEP = (16, 32, 64, 128)


def _runner(platform: PlatformConfig, designs: Sequence[DesignParams]) -> ExperimentRunner:
    return ExperimentRunner(platform=platform, designs=designs)


# ---------------------------------------------------------------------------
# Figure 1 — conceptual cost vs. projectivity
# ---------------------------------------------------------------------------


def _fig01_point(
    projectivity: float,
    row_size: int,
    n_rows: int,
    platform: PlatformConfig,
) -> Dict[str, List[float]]:
    """One projectivity's analytical curves (a length-1 slice of Figure 1)."""
    return figure1_curves([projectivity], row_size, n_rows, platform)


def fig01_projectivity(
    n_points: int = 20,
    row_size: int = 64,
    n_rows: int = 32_768,
    platform: PlatformConfig = ZCU102,
    jobs: int = 1,
) -> FigureResult:
    """Figure 1: row cost flat, column cost rising, ideal = min of the two."""
    projectivities = [(i + 1) / n_points for i in range(n_points)]
    chunks = parallel_map(
        functools.partial(_fig01_point, row_size=row_size,
                          n_rows=n_rows, platform=platform),
        projectivities,
        jobs=jobs,
    )
    curves: Dict[str, List[float]] = {name: [] for name in chunks[0]}
    for chunk in chunks:
        for name, values in chunk.items():
            curves[name].extend(values)
    return FigureResult(
        fig_id="Figure 1",
        title="Query cost vs. projectivity (analytical)",
        x_label="projectivity",
        xs=curves.pop("projectivity"),
        series=curves,
        notes="row-wise access has constant cost; columnar cost grows with "
        "projectivity; Relational Memory tracks the minimum",
    )


# ---------------------------------------------------------------------------
# Figure 6 — Q1 across designs, cold and hot, vs. column width
# ---------------------------------------------------------------------------


def _fig06_point(
    width: int,
    n_rows: int,
    platform: PlatformConfig,
    designs: Tuple[DesignParams, ...],
) -> PathTimes:
    """One Figure-6 geometry point: every access path at one column width.

    Builds its own runner and (memoized, seeded) relation, so the result
    is identical whether it runs inline or in a worker process.
    """
    runner = _runner(platform, designs)
    table = make_relation(n_rows, n_cols=max(2, 64 // width), col_width=width)
    return runner.measure_paths(table, q1("A1"))


def fig06_q1_designs(
    n_rows: int = 2048,
    widths: Sequence[int] = WIDTH_SWEEP,
    platform: PlatformConfig = ZCU102,
    designs: Sequence[DesignParams] = ALL_DESIGNS,
    jobs: int = 1,
) -> FigureResult:
    """Figure 6: normalized Q1 time for Direct / Columnar / BSL / PCK / MLP."""
    series: Dict[str, List[float]] = {"Direct": [], "Columnar": []}
    for design in designs:
        series[f"{design.name} cold"] = []
        series[f"{design.name} hot"] = []
    points = parallel_map(
        functools.partial(_fig06_point, n_rows=n_rows,
                          platform=platform, designs=tuple(designs)),
        list(widths),
        jobs=jobs,
    )
    for times in points:
        series["Direct"].append(times.direct_ns)
        series["Columnar"].append(times.columnar_ns)
        for design in designs:
            series[f"{design.name} cold"].append(times.cold_ns[design.name])
            series[f"{design.name} hot"].append(times.hot_ns[design.name])
    return FigureResult(
        fig_id="Figure 6",
        title="Q1 (SELECT A1 FROM S) across access paths and RME designs",
        x_label="column width (B)",
        xs=list(widths),
        series=series,
        notes=f"64-byte rows, {n_rows} rows; normalize to 'Direct' to match "
        "the paper's y-axis",
    )


# ---------------------------------------------------------------------------
# Figure 7 — cache requests and misses during Q1
# ---------------------------------------------------------------------------


def fig07_cache_stats(
    n_rows: int = 4096,
    col_width: int = 4,
    platform: PlatformConfig = ZCU102,
) -> FigureResult:
    """Figure 7: L1/L2 accesses and misses, Direct vs. RME (MLP)."""
    runner = _runner(platform, (MLP,))
    table = make_relation(n_rows, n_cols=64 // col_width, col_width=col_width)
    direct = runner.time_direct(table, q1("A1"))
    rme = runner.time_rme(table, q1("A1"), MLP, hot=True)
    metrics = ["L1 requests", "L1 misses", "L2 requests", "L2 misses"]

    def flatten(stats: Dict[str, Dict[str, float]]) -> List[float]:
        return [
            stats["l1"]["requests"],
            stats["l1"]["misses"],
            stats["l2"]["requests"],
            stats["l2"]["misses"],
        ]

    return FigureResult(
        fig_id="Figure 7",
        title="Cache requests/misses during Q1",
        x_label="counter",
        xs=metrics,
        series={
            "Direct": flatten(direct.cache_stats),
            "RME (MLP)": flatten(rme.cache_stats),
        },
        y_label="count",
        notes="the RME's packed lines cut L1/L2 misses; its L2 requests stay "
        "relatively high because the L1 prefetcher probes ahead",
    )


# ---------------------------------------------------------------------------
# Figure 8 — column-offset sweep
# ---------------------------------------------------------------------------


def _offset_query(off: int) -> Tuple[Query, List[str]]:
    """A SUM over the 4-byte group starting at byte ``off`` of the row."""
    cols = tuple(f"A{off + i + 1}" for i in range(4))
    query = Query(
        name=f"sum@{off}",
        sql=f"SELECT SUM({cols[0]}) FROM S  -- 4B group at offset {off}",
        select=cols,
        aggregate="sum",
        agg_expr=Col(cols[0]),
    )
    return query, list(cols)


def _fig08_point(
    off: int,
    n_rows: int,
    platform: PlatformConfig,
    designs: Tuple[DesignParams, ...],
    include_hot: bool,
) -> Dict[str, float]:
    """One Figure-8 offset: Direct plus per-design cold (and hot) times."""
    runner = _runner(platform, designs)
    # 64 one-byte columns let the group start at any byte offset.
    table = make_relation(n_rows, n_cols=64, col_width=1)
    query, group = _offset_query(off)
    point = {"Direct": runner.time_direct(table, query).elapsed_ns}
    for design in designs:
        cold = runner.time_rme(table, query, design, hot=False,
                               group_columns=group)
        point[f"{design.name} cold"] = cold.elapsed_ns
        if include_hot:
            hot = runner.time_rme(table, query, design, hot=True,
                                  group_columns=group)
            point[f"{design.name} hot"] = hot.elapsed_ns
    return point


def fig08_offset_sweep(
    n_rows: int = 512,
    offsets: Optional[Sequence[int]] = None,
    platform: PlatformConfig = ZCU102,
    designs: Sequence[DesignParams] = ALL_DESIGNS,
    include_hot: bool = True,
    jobs: int = 1,
) -> FigureResult:
    """Figure 8: sum over a 4-byte column at every offset 0..60 of a
    64-byte row.

    Cold RME runs spike at offsets where the 4 target bytes straddle a
    16-byte bus beat (13-15, 29-31, 45-47): the Requestor must emit
    burst-length-2 descriptors (Eq. 3). Direct and hot runs are flat.
    """
    offsets = list(offsets) if offsets is not None else list(range(0, 61))
    if any(not 0 <= off <= 60 for off in offsets):
        raise ConfigurationError("offsets must lie in [0, 60]")
    series: Dict[str, List[float]] = {"Direct": []}
    for design in designs:
        series[f"{design.name} cold"] = []
        if include_hot:
            series[f"{design.name} hot"] = []
    points = parallel_map(
        functools.partial(_fig08_point, n_rows=n_rows, platform=platform,
                          designs=tuple(designs), include_hot=include_hot),
        offsets,
        jobs=jobs,
    )
    for point in points:
        for name in series:
            series[name].append(point[name])
    return FigureResult(
        fig_id="Figure 8",
        title="Impact of the target column's offset (sum over a 4B column)",
        x_label="column offset (B)",
        xs=offsets,
        series=series,
        notes="cold spikes only where offset%16 > 12 (burst length 2)",
    )


# ---------------------------------------------------------------------------
# Figures 9/10 — projection queries (Q2, Q3)
# ---------------------------------------------------------------------------


def _projection_sweep(
    fig_id: str,
    tables: Sequence[Tuple[object, "object"]],  # (x, RowTable)
    x_label: str,
    platform: PlatformConfig,
    queries: Sequence[Query],
    group: Sequence[str],
    notes: str,
) -> FigureResult:
    runner = _runner(platform, (MLP,))
    series: Dict[str, List[float]] = {}
    for query in queries:
        series[f"{query.name} Direct"] = []
        series[f"{query.name} RME cold"] = []
        series[f"{query.name} RME hot"] = []
    xs = []
    for x, table in tables:
        xs.append(x)
        for query in queries:
            direct = runner.time_direct(table, query)
            cold = runner.time_rme(table, query, MLP, hot=False, group_columns=group)
            hot = runner.time_rme(table, query, MLP, hot=True, group_columns=group)
            series[f"{query.name} Direct"].append(direct.elapsed_ns)
            series[f"{query.name} RME cold"].append(cold.elapsed_ns)
            series[f"{query.name} RME hot"].append(hot.elapsed_ns)
    title = " / ".join(q.sql for q in queries)
    return FigureResult(fig_id=fig_id, title=title, x_label=x_label,
                        xs=xs, series=series, notes=notes)


def fig09_projection_colsize(
    n_rows: int = 2048,
    widths: Sequence[int] = WIDTH_SWEEP,
    platform: PlatformConfig = ZCU102,
) -> FigureResult:
    """Figure 9: Q2/Q3 on 64-byte rows, varying the column width."""
    tables = [
        (w, make_relation(n_rows, n_cols=max(2, 64 // w), col_width=w))
        for w in widths
    ]
    return _projection_sweep(
        "Figure 9", tables, "column width (B)", platform,
        (q2(k=0), q3()), ["A1", "A2"],
        "at 16B columns the 2-column group spans 32B (half a line) and the "
        "PL-routing overhead cancels the cache-efficiency win",
    )


def fig10_projection_rowsize(
    n_rows: int = 2048,
    row_sizes: Sequence[int] = ROW_SWEEP,
    col_width: int = 4,
    platform: PlatformConfig = ZCU102,
) -> FigureResult:
    """Figure 10: Q2/Q3 with 4-byte columns, varying the row size."""
    tables = [
        (r, make_relation_for_row_size(n_rows, r, col_width))
        for r in row_sizes
    ]
    return _projection_sweep(
        "Figure 10", tables, "row size (B)", platform,
        (q2(k=0), q3()), ["A1", "A2"],
        "projectivity falls as rows grow; the paper reports RME gains up to "
        "3.2x at 128-byte rows",
    )


# ---------------------------------------------------------------------------
# Figures 11/12 — aggregation queries (Q4, Q5, Q6)
# ---------------------------------------------------------------------------

#: Each aggregation query with the contiguous group it projects.
_AGG_QUERIES: Tuple[Tuple[Query, Tuple[str, ...]], ...] = (
    (q4(), ("A1",)),
    (q5(k=0), ("A1", "A2")),
    (q6(k=0), ("A1", "A2", "A3")),
)


def _aggregation_sweep(
    fig_id: str,
    tables: Sequence[Tuple[object, "object"]],
    x_label: str,
    platform: PlatformConfig,
    notes: str,
) -> FigureResult:
    runner = _runner(platform, (MLP,))
    series: Dict[str, List[float]] = {}
    for query, _group in _AGG_QUERIES:
        series[f"{query.name} Direct"] = []
        series[f"{query.name} RME cold"] = []
        series[f"{query.name} RME hot"] = []
    xs = []
    for x, table in tables:
        xs.append(x)
        for query, group in _AGG_QUERIES:
            direct = runner.time_direct(table, query)
            cold = runner.time_rme(table, query, MLP, hot=False, group_columns=list(group))
            hot = runner.time_rme(table, query, MLP, hot=True, group_columns=list(group))
            series[f"{query.name} Direct"].append(direct.elapsed_ns)
            series[f"{query.name} RME cold"].append(cold.elapsed_ns)
            series[f"{query.name} RME hot"].append(hot.elapsed_ns)
    return FigureResult(
        fig_id=fig_id,
        title="Aggregation queries Q4 (SUM) / Q5 (SUM+WHERE) / Q6 (AVG+WHERE+GROUP BY)",
        x_label=x_label,
        xs=xs,
        series=series,
        notes=notes,
    )


def fig11_agg_colsize(
    n_rows: int = 2048,
    widths: Sequence[int] = WIDTH_SWEEP,
    platform: PlatformConfig = ZCU102,
) -> FigureResult:
    """Figure 11: Q4/Q5/Q6 on 64-byte rows, varying column width."""
    tables = [
        (w, make_relation(n_rows, n_cols=max(4, 64 // w), col_width=w))
        for w in widths
    ]
    return _aggregation_sweep(
        "Figure 11", tables, "column width (B)", platform,
        "the RME keeps outperforming direct row access; benefits shrink as "
        "the projected group approaches the row size",
    )


def fig12_agg_rowsize(
    n_rows: int = 2048,
    row_sizes: Sequence[int] = ROW_SWEEP,
    col_width: int = 4,
    platform: PlatformConfig = ZCU102,
) -> FigureResult:
    """Figure 12: Q4/Q5/Q6 with 4-byte columns, varying row size."""
    tables = [
        (r, make_relation_for_row_size(n_rows, r, col_width))
        for r in row_sizes
    ]
    return _aggregation_sweep(
        "Figure 12", tables, "row size (B)", platform,
        "larger rows pollute the caches on the direct path while the RME "
        "moves only the projected group",
    )


# ---------------------------------------------------------------------------
# Figure 13 — Q7 (standard deviation, two passes)
# ---------------------------------------------------------------------------


def fig13_q7_locality(
    n_rows: int = 2048,
    sweep: str = "row",
    widths: Sequence[int] = WIDTH_SWEEP,
    row_sizes: Sequence[int] = ROW_SWEEP,
    platform: PlatformConfig = ZCU102,
) -> FigureResult:
    """Figure 13: Q7 (STD, two passes) — the locality showcase.

    ``sweep="col"`` varies the column width on 64-byte rows (13a);
    ``sweep="row"`` varies the row size with 4-byte columns (13b).
    """
    if sweep == "col":
        tables = [
            (w, make_relation(n_rows, n_cols=max(2, 64 // w), col_width=w))
            for w in widths
        ]
        x_label = "column width (B)"
    elif sweep == "row":
        tables = [
            (r, make_relation_for_row_size(n_rows, r, 4)) for r in row_sizes
        ]
        x_label = "row size (B)"
    else:
        raise ConfigurationError(f"unknown sweep {sweep!r}; use 'col' or 'row'")

    runner = _runner(platform, (MLP,))
    query = q7()
    series: Dict[str, List[float]] = {
        "Direct": [], "RME cold": [], "RME hot": []
    }
    xs = []
    for x, table in tables:
        xs.append(x)
        series["Direct"].append(runner.time_direct(table, query).elapsed_ns)
        cold = runner.time_rme(table, query, MLP, hot=False, group_columns=["A1"])
        hot = runner.time_rme(table, query, MLP, hot=True, group_columns=["A1"])
        series["RME cold"].append(cold.elapsed_ns)
        series["RME hot"].append(hot.elapsed_ns)
    return FigureResult(
        fig_id=f"Figure 13 ({sweep} sweep)",
        title=query.sql + "  (two passes over the column)",
        x_label=x_label,
        xs=xs,
        series=series,
        notes="the second pass streams the packed column from the buffer; "
        "row-oriented accesses pay the cache pollution twice",
    )


# ---------------------------------------------------------------------------
# Table 3 — PL resource utilization, timing and power
# ---------------------------------------------------------------------------


def table3_resources(
    designs: Sequence[DesignParams] = ALL_DESIGNS,
) -> Dict[str, ResourceReport]:
    """Table 3: post-implementation estimates per design revision.

    The paper reports the MLP column; the others show how the footprint
    scales down for the serial revisions.
    """
    return {design.name: estimate_resources(design) for design in designs}
