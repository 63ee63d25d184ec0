"""The experiment runner: builds fresh systems and times access paths.

Every timing is taken on a freshly built platform (cold caches, cold
reorganization buffer) unless a *hot* measurement is requested, in which
case the projection is first pulled through the RME by a warm-up query —
the methodology behind the paper's cold/hot bars in Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..config import PlatformConfig, ZCU102
from ..core.relmem import RelationalMemorySystem
from ..query.engines import COLUMNAR, CPU, RME
from ..query.executor import QueryResult
from ..query.processor import Processor
from ..query.queries import Query
from ..rme.designs import ALL_DESIGNS, MLP, DesignParams
from ..storage.row_table import RowTable


@dataclass
class PathTimes:
    """All timings collected for one (query, geometry) point."""

    direct_ns: float = 0.0
    columnar_ns: float = 0.0
    cold_ns: Dict[str, float] = field(default_factory=dict)  #: design -> ns
    hot_ns: Dict[str, float] = field(default_factory=dict)
    direct_cache: Dict[str, Dict[str, float]] = field(default_factory=dict)
    rme_cache: Dict[str, Dict[str, float]] = field(default_factory=dict)


@dataclass
class FigureResult:
    """One reproduced figure: x values plus named series."""

    fig_id: str
    title: str
    x_label: str
    xs: List
    series: Dict[str, List[float]]
    y_label: str = "time (ns)"
    notes: str = ""

    def normalized(self, baseline: str = "Direct") -> "FigureResult":
        """Divide every series pointwise by ``baseline`` (per x value)."""
        base = self.series[baseline]
        series = {
            name: [v / b if b else 0.0 for v, b in zip(values, base)]
            for name, values in self.series.items()
        }
        return FigureResult(
            fig_id=self.fig_id,
            title=self.title + f" (normalized to {baseline})",
            x_label=self.x_label,
            xs=list(self.xs),
            series=series,
            y_label=f"time / {baseline}",
            notes=self.notes,
        )

    def ratio(self, numerator: str, denominator: str) -> List[float]:
        num, den = self.series[numerator], self.series[denominator]
        return [n / d if d else 0.0 for n, d in zip(num, den)]


class ExperimentRunner:
    """Times queries over every access path on freshly built platforms."""

    def __init__(
        self,
        platform: PlatformConfig = ZCU102,
        designs: Sequence[DesignParams] = ALL_DESIGNS,
        buffer_capacity: Optional[int] = None,
    ):
        self.platform = platform
        self.designs = tuple(designs)
        self.buffer_capacity = buffer_capacity

    # -- one-path timings ----------------------------------------------------------
    def _system(self, design: DesignParams) -> RelationalMemorySystem:
        kwargs = {}
        if self.buffer_capacity is not None:
            kwargs["buffer_capacity"] = self.buffer_capacity
        return RelationalMemorySystem(self.platform, design, **kwargs)

    def time_direct(self, table: RowTable, query: Query) -> QueryResult:
        """Time the all-CPU tree: row-store scan, no transfers."""
        system = self._system(MLP)
        loaded = system.load_table(table)
        processor = Processor(system)
        plan = processor.plan(query, loaded, engine=CPU)
        return processor.execute(plan.relation)

    def time_columnar(
        self, table: RowTable, query: Query, group_columns: Optional[Sequence[str]] = None
    ) -> QueryResult:
        """Time the tree with its fetch placed on the columnar copy.

        ``group_columns`` widens the fetch projection beyond the query's
        footprint (the projectivity sweeps scan wider groups on purpose).
        """
        columns = list(group_columns or query.columns())
        system = self._system(MLP)
        loaded = system.load_table(table)
        system.load_column_group(loaded, columns)
        processor = Processor(system)
        plan = processor.plan(query, loaded, engine=COLUMNAR,
                              fetch_columns=columns)
        return processor.execute(plan.relation)

    def time_rme(
        self,
        table: RowTable,
        query: Query,
        design: DesignParams = MLP,
        hot: bool = False,
        group_columns: Optional[Sequence[str]] = None,
    ) -> QueryResult:
        """Time the canonical RME tree (fetch behind explicit transfers)."""
        system = self._system(design)
        loaded = system.load_table(table)
        columns = list(group_columns or query.columns())
        var = system.register_var(loaded, columns)
        processor = Processor(system)
        plan = processor.plan(query, loaded, engine=RME,
                              fetch_columns=columns)
        if hot:
            system.warm_up(var)
            system.flush_caches()
        return processor.execute(plan.relation, var=var)

    # -- the full sweep point ---------------------------------------------------------
    def measure_paths(
        self,
        table: RowTable,
        query: Query,
        group_columns: Optional[Sequence[str]] = None,
        include_columnar: bool = True,
        designs: Optional[Sequence[DesignParams]] = None,
        include_hot: bool = True,
    ) -> PathTimes:
        """Direct + columnar + per-design cold/hot timings for one point."""
        times = PathTimes()
        direct = self.time_direct(table, query)
        times.direct_ns = direct.elapsed_ns
        times.direct_cache = direct.cache_stats
        if include_columnar:
            times.columnar_ns = self.time_columnar(
                table, query, group_columns
            ).elapsed_ns
        for design in designs or self.designs:
            cold = self.time_rme(table, query, design, hot=False,
                                 group_columns=group_columns)
            times.cold_ns[design.name] = cold.elapsed_ns
            if include_hot:
                hot = self.time_rme(table, query, design, hot=True,
                                    group_columns=group_columns)
                times.hot_ns[design.name] = hot.elapsed_ns
                times.rme_cache = hot.cache_stats
        return times
