"""repro — a full-system reproduction of *Relational Memory: Native
In-Memory Accesses on Rows and Columns* (EDBT 2023).

The paper's FPGA engine is reproduced as a transaction-level simulation of
the whole platform (DRAM, caches, AXI/clock-domain crossing, and the
Relational Memory Engine itself), together with the DBMS substrate it
serves: byte-exact row/column storage, MVCC snapshot transactions,
column compression, ephemeral variables, and a query layer running the
paper's seven-query benchmark over every access path.

Quick start::

    from repro import (
        RelationalMemorySystem, RowTable, Schema, Column, int32, q4,
        QueryExecutor, AccessPath,
    )

    schema = Schema([Column(f"A{i+1}", int32()) for i in range(16)])
    table = RowTable("S", schema)
    for i in range(8192):
        table.append([i] * 16)

    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    cg = system.register_var(loaded, ["A1"])     # the ephemeral variable
    result = QueryExecutor(system).run_rme(q4(), cg)
    print(result.value, result.elapsed_ns)
"""

from .config import DRAMTimings, PlatformConfig, RMEConfig, ZCU102
from .core import (
    AccessPath,
    EphemeralVariable,
    FilteredEphemeralVariable,
    HWAggregateVariable,
    HWGroupByVariable,
    LoadedColumnGroup,
    LoadedIndex,
    LoadedTable,
    RelationalMemorySystem,
)
from .errors import (
    CapacityError,
    CompressionError,
    ConfigurationError,
    GeometryError,
    MemoryMapError,
    QueryError,
    ReproError,
    SchemaError,
    SimulationError,
    TransactionError,
    WriteConflictError,
)
from .model import AnalyticalModel, EnergyBreakdown, EnergyModel, figure1_curves
from .query import (
    Col,
    Const,
    Engine,
    ExecutionPlan,
    ExecutionReport,
    Processor,
    Query,
    QueryExecutor,
    QueryResult,
    RELATIONAL_MEMORY_BENCHMARK,
    LeafRelation,
    Relation,
    RelationVisitor,
    choose_access_path,
    print_tree,
    q1,
    q2,
    q3,
    q4,
    q5,
    q6,
    q7,
    parse_query,
    parse_relation,
    relation_from_query,
    to_query,
)
from .rme import (
    BSL,
    HWAggregation,
    HWGroupBy,
    HWJoinFilter,
    HWSelection,
    MLP,
    PCK,
    DesignParams,
    RMEngine,
    TableGeometry,
    design_by_name,
    estimate_resources,
)
from .serve import (
    ClosedLoopWorkload,
    OpenLoopWorkload,
    ServingReport,
    ServingSystem,
    TenantSpec,
    WorkloadProfile,
    default_tenants,
    profile_workload,
)
from .storage import (
    BPlusTreeIndex,
    Column,
    ColumnTable,
    RowTable,
    Schema,
    TransactionManager,
    VersionedRowTable,
    char,
    float64,
    int32,
    int64,
    listing1_schema,
    uint32,
    uniform_schema,
)

__version__ = "1.0.0"

__all__ = [
    # configuration
    "DRAMTimings",
    "PlatformConfig",
    "RMEConfig",
    "ZCU102",
    # core system
    "AccessPath",
    "EphemeralVariable",
    "FilteredEphemeralVariable",
    "HWAggregateVariable",
    "HWGroupByVariable",
    "LoadedColumnGroup",
    "LoadedIndex",
    "LoadedTable",
    "RelationalMemorySystem",
    # RME
    "BSL",
    "MLP",
    "PCK",
    "DesignParams",
    "HWSelection",
    "HWAggregation",
    "HWGroupBy",
    "HWJoinFilter",
    "RMEngine",
    "TableGeometry",
    "design_by_name",
    "estimate_resources",
    # storage
    "BPlusTreeIndex",
    "Column",
    "ColumnTable",
    "RowTable",
    "Schema",
    "TransactionManager",
    "VersionedRowTable",
    "char",
    "float64",
    "int32",
    "int64",
    "uint32",
    "listing1_schema",
    "uniform_schema",
    # queries (relational-algebra IR + engines)
    "Col",
    "Const",
    "Engine",
    "ExecutionPlan",
    "ExecutionReport",
    "Processor",
    "Query",
    "QueryExecutor",
    "QueryResult",
    "RELATIONAL_MEMORY_BENCHMARK",
    "LeafRelation",
    "Relation",
    "RelationVisitor",
    "choose_access_path",
    "print_tree",
    "q1",
    "q2",
    "q3",
    "q4",
    "q5",
    "q6",
    "q7",
    "parse_query",
    "parse_relation",
    "relation_from_query",
    "to_query",
    # serving
    "ClosedLoopWorkload",
    "OpenLoopWorkload",
    "ServingReport",
    "ServingSystem",
    "TenantSpec",
    "WorkloadProfile",
    "default_tenants",
    "profile_workload",
    # model
    "AnalyticalModel",
    "EnergyBreakdown",
    "EnergyModel",
    "figure1_curves",
    # errors
    "ReproError",
    "ConfigurationError",
    "GeometryError",
    "SimulationError",
    "MemoryMapError",
    "CapacityError",
    "SchemaError",
    "TransactionError",
    "WriteConflictError",
    "QueryError",
    "CompressionError",
]
