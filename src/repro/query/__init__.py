"""The query layer: a relational-algebra IR with pluggable engines.

Queries are immutable :class:`~repro.query.relation.Relation` expression
trees — Selection, Projection (the column-group fetch), Join, Aggregate
as frozen dataclasses — annotated with
:class:`~repro.query.engines.Engine` values (RME column-group
projection, CPU row scan, columnar copy, index, bank-level PIM,
degraded fallback) and explicit :class:`~repro.query.relation.Transfer`
nodes at engine boundaries. The visitor-based
:class:`~repro.query.processor.Processor` plans (cost-based placement
across the engines) and executes multi-engine trees.

Execution follows the paper's philosophy (Section 3): the hardware only
*reorganises* data; all actual computation — selection, aggregation,
group-by — runs on the CPU, priced as per-element compute on top of the
memory access pattern. The PIM engine is the one exception: its DRAM
banks filter, fold and join in place (:mod:`repro.pim`). The measured scan machinery lives in
:class:`~repro.query.executor.QueryExecutor`, which the engines
delegate to — so IR execution is cycle-identical to the historical
pipeline (``tests/test_ir_equivalence.py`` pins this).
"""

from .engines import (
    ALL_ENGINES,
    COLUMNAR,
    CPU,
    DEGRADED,
    ENGINES,
    INDEX,
    PIM,
    RME,
    Engine,
    engine_by_name,
    engine_names,
)
from .expr import BinOp, Col, Const, Expr
from .executor import QueryExecutor, QueryResult
from .optimizer import AccessPathChoice, choose_access_path
from .processor import (
    ExecutionPlan,
    ExecutionReport,
    Processor,
    explain_placement,
    relation_from_query,
    reroot_degraded,
    to_query,
)
from .relation import (
    Aggregate,
    Join,
    Label,
    LeafRelation,
    Projection,
    Relation,
    RelationVisitor,
    Selection,
    Transfer,
    print_tree,
)
from .sql import parse_query, parse_relation
from .queries import (
    Query,
    RELATIONAL_MEMORY_BENCHMARK,
    q1,
    q2,
    q3,
    q4,
    q5,
    q6,
    q7,
)

__all__ = [
    "ALL_ENGINES",
    "AccessPathChoice",
    "Aggregate",
    "BinOp",
    "COLUMNAR",
    "CPU",
    "Col",
    "Const",
    "DEGRADED",
    "ENGINES",
    "Engine",
    "ExecutionPlan",
    "ExecutionReport",
    "Expr",
    "INDEX",
    "Join",
    "Label",
    "LeafRelation",
    "PIM",
    "Processor",
    "Projection",
    "Query",
    "QueryExecutor",
    "QueryResult",
    "RELATIONAL_MEMORY_BENCHMARK",
    "RME",
    "Relation",
    "RelationVisitor",
    "Selection",
    "Transfer",
    "choose_access_path",
    "engine_by_name",
    "engine_names",
    "explain_placement",
    "parse_query",
    "parse_relation",
    "print_tree",
    "q1",
    "q2",
    "q3",
    "q4",
    "q5",
    "q6",
    "q7",
    "relation_from_query",
    "reroot_degraded",
    "to_query",
]
