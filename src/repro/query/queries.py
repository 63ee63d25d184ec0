"""Query descriptions and the Relational Memory Benchmark (Section 6.1).

A :class:`Query` describes what a scan computes: the projected columns or
aggregate, an optional selection predicate, an optional GROUP BY column,
and how many passes over the data it needs (one, except the standard
deviation of Q7, which the paper uses precisely because its second pass
rewards locality).

The seven benchmark queries over the relation ``S(A1..An)``:

====  ==========================================================
Q1    ``SELECT A1 FROM S``
Q2    ``SELECT A1 FROM S WHERE A2 > k``
Q3    ``SELECT A1, A2 FROM S``
Q4    ``SELECT SUM(A1) FROM S``
Q5    ``SELECT SUM(A2) FROM S WHERE A1 < k``
Q6    ``SELECT AVG(A1) FROM S WHERE A3 < k GROUP BY A2``
Q7    ``SELECT STD(A1) FROM S``
====  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import QueryError
from .expr import Col, Expr

#: CPU cost (ns) of maintaining one aggregate accumulator per input row.
AGG_COST_NS = {
    "sum": 0.67,
    "count": 0.67,
    "min": 0.67,
    "max": 0.67,
    "avg": 1.33,  # sum + count
    "std": 2.67,  # sum + sum-of-products bookkeeping per pass
    None: 0.0,
}

#: CPU cost (ns) of one hash-table group update (probe + accumulate).
GROUP_BY_COST_NS = 4.0

#: CPU cost (ns) of inserting one row into a join hash table.
HASH_BUILD_NS = 4.0
#: CPU cost (ns) of probing the join hash table with one row.
HASH_PROBE_NS = 4.0

#: CPU cost (ns) of materialising one projected output value.
MATERIALIZE_COST_NS = 0.67


@dataclass(frozen=True)
class Query:
    """A single-table scan query."""

    name: str
    sql: str
    #: Columns whose values the scan must touch (projection + predicate +
    #: aggregate + group-by inputs). Order follows the schema at run time.
    select: Tuple[str, ...]
    predicate: Optional[Expr] = None
    aggregate: Optional[str] = None  #: None = pure projection
    agg_expr: Optional[Expr] = None
    group_by: Optional[str] = None
    passes: int = 1

    def __post_init__(self) -> None:
        if not self.select and self.agg_expr is None:
            raise QueryError(f"{self.name}: query selects nothing")
        if self.aggregate is not None and self.aggregate not in AGG_COST_NS:
            raise QueryError(f"{self.name}: unknown aggregate {self.aggregate!r}")
        if self.aggregate is not None and self.agg_expr is None:
            raise QueryError(f"{self.name}: aggregate without an expression")
        if self.passes < 1:
            raise QueryError(f"{self.name}: needs at least one pass")

    # -- column footprint -----------------------------------------------------------
    def columns(self) -> List[str]:
        """Every column the scan touches (deduplicated, stable order)."""
        seen = []
        for name in self.select:
            if name not in seen:
                seen.append(name)
        for expr in (self.predicate, self.agg_expr):
            if expr is not None:
                for name in sorted(expr.columns()):
                    if name not in seen:
                        seen.append(name)
        if self.group_by is not None and self.group_by not in seen:
            seen.append(self.group_by)
        return seen

    # -- compute-cost model -------------------------------------------------------------
    def predicate_cost_ns(self) -> float:
        return self.predicate.cost_ns() if self.predicate is not None else 0.0

    def work_cost_ns(self) -> float:
        """Cost of the per-row work done on rows that *pass* the predicate."""
        cost = 0.0
        if self.agg_expr is not None:
            cost += self.agg_expr.cost_ns() + AGG_COST_NS[self.aggregate]
        if self.group_by is not None:
            cost += GROUP_BY_COST_NS
        if self.aggregate is None:
            cost += MATERIALIZE_COST_NS * len(self.select)
        return cost

    def row_compute_ns(self, selectivity: float = 1.0) -> float:
        """Average per-row CPU cost given the predicate's selectivity."""
        if not 0.0 <= selectivity <= 1.0:
            raise QueryError(f"selectivity {selectivity} outside [0, 1]")
        return self.predicate_cost_ns() + selectivity * self.work_cost_ns()


# ---------------------------------------------------------------------------
# The seven benchmark queries (Listings 5 and 6)
# ---------------------------------------------------------------------------


def q1(col: str = "A1") -> Query:
    """Q1: projection of a single column."""
    return Query(name="Q1", sql=f"SELECT {col} FROM S", select=(col,))


def q2(col: str = "A1", sel_col: str = "A2", k: float = 0) -> Query:
    """Q2: projection with a selection on a second column."""
    return Query(
        name="Q2",
        sql=f"SELECT {col} FROM S WHERE {sel_col} > {k}",
        select=(col,),
        predicate=Col(sel_col) > k,
    )


def q3(cols: Tuple[str, str] = ("A1", "A2")) -> Query:
    """Q3: higher-projectivity variant of Q1 (two columns)."""
    return Query(name="Q3", sql=f"SELECT {', '.join(cols)} FROM S", select=tuple(cols))


def q4(col: str = "A1") -> Query:
    """Q4: full-column summation."""
    return Query(
        name="Q4",
        sql=f"SELECT SUM({col}) FROM S",
        select=(),
        aggregate="sum",
        agg_expr=Col(col),
    )


def q5(agg_col: str = "A2", sel_col: str = "A1", k: float = 0) -> Query:
    """Q5: summation over the rows selected by another column."""
    return Query(
        name="Q5",
        sql=f"SELECT SUM({agg_col}) FROM S WHERE {sel_col} < {k}",
        select=(),
        aggregate="sum",
        agg_expr=Col(agg_col),
        predicate=Col(sel_col) < k,
    )


def q6(
    agg_col: str = "A1", group_col: str = "A2", sel_col: str = "A3", k: float = 0
) -> Query:
    """Q6: selective grouped average — the most complex single-pass query."""
    return Query(
        name="Q6",
        sql=(
            f"SELECT AVG({agg_col}) FROM S WHERE {sel_col} < {k} "
            f"GROUP BY {group_col}"
        ),
        select=(),
        aggregate="avg",
        agg_expr=Col(agg_col),
        predicate=Col(sel_col) < k,
        group_by=group_col,
    )


def q7(col: str = "A1") -> Query:
    """Q7: standard deviation — two passes, Eq. (7), rewards locality."""
    return Query(
        name="Q7",
        sql=f"SELECT STD({col}) FROM S",
        select=(),
        aggregate="std",
        agg_expr=Col(col),
        passes=2,
    )


def relational_memory_benchmark(k: float = 0) -> List[Query]:
    """All seven queries with a shared selection constant ``k``."""
    return [q1(), q2(k=k), q3(), q4(), q5(k=k), q6(k=k), q7()]


#: The default benchmark instance (k = 0 selects about half of centred data).
RELATIONAL_MEMORY_BENCHMARK = relational_memory_benchmark()
