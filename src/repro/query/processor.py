"""The visitor-based Processor: plans and executes multi-engine trees.

The :class:`Processor` is the execution half of the relational-algebra
IR (:mod:`repro.query.relation`). It does three jobs:

1. **Placement** (:meth:`Processor.plan`): given a benchmark
   :class:`~repro.query.queries.Query` and a loaded table, price every
   available engine with the cost-based optimizer
   (:func:`repro.query.optimizer.choose_access_path`) and build the
   engine-annotated tree — the column-group fetch on the winning
   engine, explicit :class:`~repro.query.relation.Transfer` nodes at
   the boundaries, compute operators on the CPU.
2. **Execution** (:meth:`Processor.execute`): compile a placed tree
   once into the query its scan answers, run the scan through one
   table from engine to :class:`~repro.query.executor.QueryExecutor`
   method, and return the usual
   :class:`~repro.query.executor.QueryResult`. A tree over a ``Join``
   compiles the same way: the operators above the join become the
   query the joined rows are finalised with. Because the engines
   delegate to exactly the same measured primitives, answers and cycle
   counts are bit-identical to the pre-IR pipeline (pinned by
   ``tests/test_ir_equivalence.py``).
3. **Degradation**: when the RME or the PIM banks raise an
   unrecoverable ``FaultError`` and the recovery policy allows a CPU
   fallback, the executor degrades
   transparently; the processor then *re-roots* the scan — or both
   join inputs — onto :data:`~repro.query.engines.DEGRADED` so the
   executed tree in :attr:`Processor.last_report` records what actually
   happened — same semantics as before the refactor, now visible in
   the plan.

The bridge functions :func:`relation_from_query` / :func:`to_query`
convert between the benchmark ``Query`` description and canonical IR
trees; they are exact inverses for every benchmark template, which is
what keeps the equivalence suite byte-level.

>>> from repro.query.queries import q2
>>> print(explain_placement(q2(k=0)))
Plan[Q2]: SELECT A1 FROM S WHERE A2 > 0
└─ Projection[A1] @cpu
   └─ Selection[(Col(A2) > Const(0))] @cpu
      └─ Transfer[rme → cpu]
         └─ Projection[A1,A2] @rme
            └─ Transfer[cpu → rme]
               └─ Leaf[S] @cpu
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.relmem import (
    LoadedColumnGroup,
    LoadedIndex,
    LoadedTable,
    RelationalMemorySystem,
)
from ..errors import QueryError
from ..pim import pim_join_refusal, pim_refusal
from . import ops
from .engines import (
    ALL_ENGINES,
    COLUMNAR,
    CPU,
    DEGRADED,
    INDEX,
    PIM,
    RME,
    Engine,
)
from .executor import (QueryExecutor, QueryResult, columnar_refusal,
                       index_refusal)
from .optimizer import AccessPathChoice, choose_access_path, choose_join_path
from .queries import Query
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

#: AccessPath -> the planner-eligible engine the optimizer priced it as.
_ENGINE_OF_PATH = {engine.access_path: engine for engine in ALL_ENGINES}

#: Engine -> the QueryExecutor method that scans for it, and the
#: :meth:`Processor.execute` bindings that method takes after the query.
_SCANS = {
    CPU: (QueryExecutor.run_direct, ("loaded",)),
    DEGRADED: (QueryExecutor.run_direct, ("loaded",)),
    RME: (QueryExecutor.run_rme, ("var",)),
    PIM: (QueryExecutor.run_pim, ("loaded",)),
    COLUMNAR: (QueryExecutor.run_columnar, ("loaded", "columnar")),
    INDEX: (QueryExecutor.run_index, ("loaded", "index")),
}


def relation_from_query(
    query: Query,
    engine: Engine = CPU,
    table: str = "S",
    schema_columns: Optional[Sequence[str]] = None,
    fetch_columns: Optional[Sequence[str]] = None,
) -> Label:
    """Build the canonical IR tree for a single-table benchmark query.

    The shape is always ``Label → [output π] → [γ] → [σ] → fetch π →
    Leaf``, with the fetch projection placed on ``engine`` behind
    explicit transfers when the engine is not the CPU. ``fetch_columns``
    widens the physically fetched column group beyond the query's
    footprint (the figure sweeps do this to control projectivity).

    The PIM engine is the one placement where *compute* leaves the CPU:
    selection and aggregation happen inside the DRAM banks, so the
    ``σ``/``γ`` operators sit below the ``Transfer[pim → cpu]`` — the
    bank boundary — and only the output projection stays on the CPU.
    The tree is built whatever the engine; whether the engine can run
    the query on given storage is :meth:`Processor.plan`'s question.

    >>> from repro.query.queries import q4
    >>> print(relation_from_query(q4()))
    Q4:γ[sum(Col(A1))](π[A1](S))
    """
    if query.aggregate is None and query.passes != 1:
        raise QueryError(
            f"{query.name}: multi-pass non-aggregate queries are not "
            "representable in the IR"
        )
    needed = tuple(query.columns())
    fetched = tuple(fetch_columns) if fetch_columns is not None else needed
    missing = [c for c in needed if c not in fetched]
    if missing:
        raise QueryError(
            f"{query.name}: fetch columns {list(fetched)} do not cover "
            f"{missing}"
        )
    leaf = LeafRelation(
        table,
        tuple(schema_columns) if schema_columns is not None else None,
    )
    source: Relation = leaf.transfer(engine)
    fetch: Relation = Projection(target=source, projected=fetched)
    if engine == PIM:
        body = fetch
        if query.predicate is not None:
            body = body.select(query.predicate)
        if query.aggregate is not None:
            body = body.aggregate(query.aggregate, query.agg_expr,
                                  group_by=query.group_by,
                                  passes=query.passes)
        body = body.transfer(CPU)
        if query.aggregate is None and tuple(query.select) != fetched:
            body = Projection(target=body, projected=tuple(query.select))
        return body.label(query.name, query.sql)
    return _compute_on_cpu(fetch.transfer(CPU), query, fetched)


def _compute_on_cpu(body: Relation, query: Query,
                    columns: Sequence[str]) -> Label:
    """Stack ``query``'s σ, γ and output π on ``body``'s CPU rows.

    ``columns`` are the rows' columns: an output projection is added
    only when the query selects something else.
    """
    if query.predicate is not None:
        body = body.select(query.predicate)
    if query.aggregate is not None:
        body = body.aggregate(query.aggregate, query.agg_expr,
                              group_by=query.group_by, passes=query.passes)
    elif tuple(query.select) != tuple(columns):
        body = Projection(target=body, projected=tuple(query.select))
    return body.label(query.name, query.sql)


def _join_side(query: Query, table: str,
               schema_columns: Optional[Sequence[str]],
               engine: Engine) -> Relation:
    """One join input: fetch projection (+ optional selection) on ``engine``."""
    if query.aggregate is not None or query.group_by is not None:
        raise QueryError("aggregates below a join are not executable")
    if query.passes != 1:
        raise QueryError("multi-pass scans below a join are not executable")
    leaf = LeafRelation(
        table, tuple(schema_columns) if schema_columns is not None else None
    )
    source: Relation = leaf if engine == CPU else leaf.transfer(engine)
    fetch: Relation = Projection(target=source,
                                 projected=tuple(query.columns()))
    if query.predicate is not None:
        fetch = fetch.select(query.predicate)
    return fetch


def join_relation(
    on: str,
    lhs_query: Query,
    rhs_query: Query,
    engine: Engine = CPU,
    lhs_table: str = "R",
    rhs_table: str = "T",
    lhs_schema_columns: Optional[Sequence[str]] = None,
    rhs_schema_columns: Optional[Sequence[str]] = None,
    name: Optional[str] = None,
    sql: str = "",
) -> Label:
    """Build the canonical IR tree for a two-table equi-join.

    Each side is a fetch projection (plus optional selection) placed on
    ``engine``; the Join runs where its inputs live, and a final
    ``Transfer`` brings the result back to the CPU when the join ran
    elsewhere. For the PIM engine the side filters, the hash build and
    the probe all happen at the banks — only matched row-id pairs cross
    the ``Transfer[pim → cpu]`` boundary; :meth:`Processor.plan_join`
    refuses joins the banks cannot run.

    >>> from repro.query.queries import Query
    >>> lhs = Query(name="dim", sql="", select=("K", "D1"))
    >>> rhs = Query(name="fact", sql="", select=("K", "A1"))
    >>> print(join_relation("K", lhs, rhs))
    dim⋈fact:(π[K,D1](R) ⋈[K] π[K,A1](T))
    """
    tree = _join_side(lhs_query, lhs_table, lhs_schema_columns, engine).join(
        _join_side(rhs_query, rhs_table, rhs_schema_columns, engine), on=on
    )
    if engine != CPU:
        tree = tree.transfer(CPU)
    label = name or f"{lhs_query.name}⋈{rhs_query.name}"
    return tree.label(label, sql)


class _QueryCompiler(RelationVisitor):
    """Compiles a tree into the ``Query`` its scan or its join answers.

    Walks root-to-leaf recording each operator once and stops at the
    stored table or at a ``Join`` (whose inputs compile on their own);
    rejects shapes the measured executor cannot price (selection above
    aggregation, two aggregates, stacked projections). The compiled
    query, the scan engine, the leaf, the fetch projection and the join
    are left on the compiler.
    """

    def __init__(self) -> None:
        self.name: Optional[str] = None
        self.sql = ""
        self.select: Optional[Tuple[str, ...]] = None
        self.predicate = None
        self.aggregate: Optional[str] = None
        self.agg_expr = None
        self.group_by: Optional[str] = None
        self.passes = 1
        self.fetch: Optional[Projection] = None
        self.scan_engine: Engine = CPU
        self.leaf: Optional[LeafRelation] = None
        self.join: Optional[Join] = None
        self.query: Optional[Query] = None

    # -- traversal ----------------------------------------------------------------
    def visit_label(self, node: Label) -> None:
        """Record the query identity and recurse."""
        self.name, self.sql = node.name, node.sql
        node.target.accept(self)

    def visit_transfer(self, node: Transfer) -> None:
        """Transfers are placement, not semantics: recurse."""
        node.target.accept(self)

    def visit_aggregate(self, node: Aggregate) -> None:
        """Record the (single) aggregate and recurse."""
        if self.aggregate is not None:
            raise QueryError("nested aggregates are not executable")
        if self.predicate is not None:
            raise QueryError("selection above an aggregate (HAVING) is not "
                             "executable")
        self.aggregate, self.agg_expr = node.func, node.expr
        self.group_by, self.passes = node.group_by, node.passes
        node.target.accept(self)

    def visit_selection(self, node: Selection) -> None:
        """Record the (single) predicate and recurse."""
        if self.predicate is not None:
            raise QueryError("conjoin predicates into one Selection "
                             "expression instead of stacking Selections")
        self.predicate = node.predicate
        node.target.accept(self)

    def visit_projection(self, node: Projection) -> None:
        """Distinguish the fetch projection from an output projection."""
        below = node.target
        while isinstance(below, Transfer):
            below = below.target
        if isinstance(below, LeafRelation):
            self.fetch = node
            self.scan_engine = node.engine
            below.accept(self)
            return
        if self.fetch is not None or self.select is not None:
            raise QueryError("more than one output projection")
        if self.aggregate is not None or self.predicate is not None:
            raise QueryError("projection between compute operators is not "
                             "executable")
        self.select = node.projected
        node.target.accept(self)

    def visit_leaf(self, node: LeafRelation) -> None:
        """Record the scanned table."""
        self.leaf = node

    def visit_join(self, node: Join) -> None:
        """Record the join: its rows feed the operators above it."""
        self.join = node
        self.scan_engine = node.engine

    # -- assembly ----------------------------------------------------------------
    def compile(self, relation: Relation) -> "_QueryCompiler":
        """Run the walk, assemble the equivalent ``Query`` into
        :attr:`query` and return this compiler."""
        relation.accept(self)
        if self.join is not None:
            source: Optional[Tuple[str, ...]] = self.join.columns
        elif self.leaf is not None:
            source = self.fetch.projected if self.fetch is not None else None
        else:
            raise QueryError(f"no stored table under {relation}")
        name = self.name
        if name is None:
            name = "join" if self.join is not None else "adhoc"
        if self.aggregate is not None:
            select: Tuple[str, ...] = ()
        elif self.select is not None:
            select = self.select
        else:
            select = source or self.leaf.columns
            if not select:
                raise QueryError(f"cannot infer columns for {relation}")
        self.query = Query(
            name=name,
            sql=self.sql,
            select=select,
            predicate=self.predicate,
            aggregate=self.aggregate,
            agg_expr=self.agg_expr,
            group_by=self.group_by,
            passes=self.passes,
        )
        if source is not None:
            uncovered = [c for c in self.query.columns() if c not in source]
            if uncovered:
                raise QueryError(
                    f"{name}: columns {list(source)} below the operators "
                    f"do not cover {uncovered}"
                )
        return self


def _compile_side(side: Relation) -> _QueryCompiler:
    """Compile one join input: a single-table scan with no aggregate."""
    compiled = _QueryCompiler().compile(side)
    if compiled.join is not None:
        raise QueryError("multi-way joins are not executable")
    if compiled.aggregate is not None:
        raise QueryError("aggregates below a join are not executable")
    return compiled


def to_query(relation: Relation) -> Query:
    """Compile a canonical single-table tree into the equivalent ``Query``.

    Exact inverse of :func:`relation_from_query`: expression nodes are
    carried by reference, so ``to_query(relation_from_query(q)) == q``
    holds structurally for every benchmark template.

    >>> from repro.query.queries import q5
    >>> q = q5(k=0)
    >>> to_query(relation_from_query(q)) == q
    True
    """
    compiled = _QueryCompiler().compile(relation)
    if compiled.join is not None:
        raise QueryError("Join trees execute via Processor.execute with "
                         "table bindings, not via to_query")
    return compiled.query


def scan_engine(relation: Relation) -> Engine:
    """The engine serving ``relation``'s column-group fetch.

    For join trees this is the engine the Join node executes on (both
    inputs live there by construction — ``Join.__post_init__`` enforces
    it).

    >>> from repro.query.queries import q1
    >>> from repro.query.engines import RME
    >>> scan_engine(relation_from_query(q1(), engine=RME)).name
    'rme'
    """
    return _QueryCompiler().compile(relation).scan_engine


def reroot_degraded(relation: Relation) -> Relation:
    """Re-root the scan onto the degraded CPU engine.

    Applied by the processor after the executor's fault fallback fired:
    the returned tree describes the execution that actually happened —
    the RME or PIM subtree replaced by the staleness-free CPU row scan
    under the :data:`~repro.query.engines.DEGRADED` identity. In a join
    tree both inputs and the join between them move there, with the
    result transferred back to the CPU under the same operators.

    >>> from repro.query.queries import q1
    >>> from repro.query.engines import RME
    >>> print(reroot_degraded(relation_from_query(q1(), engine=RME)))
    Q1:[degraded→cpu](π[A1]([cpu→degraded](S)))
    """
    return _reroot(_QueryCompiler().compile(relation))


def _reroot(compiled: _QueryCompiler) -> Relation:
    """:func:`reroot_degraded` over an already compiled tree."""
    query = compiled.query
    if compiled.join is None:
        leaf = compiled.leaf
        return relation_from_query(
            query,
            engine=DEGRADED,
            table=leaf.name,
            schema_columns=leaf.schema_columns,
            fetch_columns=(compiled.fetch.projected
                           if compiled.fetch is not None else None),
        )
    join = compiled.join
    sides = []
    for side in (join.lhs, join.rhs):
        inner = _compile_side(side)
        sides.append(_join_side(inner.query, inner.leaf.name,
                                inner.leaf.schema_columns, DEGRADED))
    body = sides[0].join(sides[1], on=join.on).transfer(CPU)
    return _compute_on_cpu(body, query, join.columns)


@dataclass(frozen=True)
class ExecutionPlan:
    """A placed tree plus the optimizer decision that shaped it."""

    relation: Relation
    choice: Optional[AccessPathChoice] = None

    @property
    def engine(self) -> Engine:
        """The engine the plan placed the column-group fetch on."""
        return scan_engine(self.relation)

    def explain(self) -> str:
        """The engine-annotated plan tree (``--explain`` output)."""
        return print_tree(self.relation)


@dataclass(frozen=True)
class ExecutionReport:
    """What one processor execution planned, did, and measured."""

    planned: Relation
    executed: Relation
    result: QueryResult

    @property
    def degraded(self) -> bool:
        """True when a fault re-rooted the fetch onto the CPU engine."""
        return self.executed is not self.planned

    def explain(self) -> str:
        """The executed tree — re-rooted subtrees show ``@degraded``."""
        return print_tree(self.executed)


class Processor:
    """Plans and executes relation trees on one simulated platform.

    The processor owns no policy of its own: placement defers to the
    cost model and execution defers to the measured scan machinery, so
    going through the IR is free of timing drift by construction.

    >>> import random
    >>> from repro import RelationalMemorySystem, RowTable, uniform_schema
    >>> from repro.query.queries import q4
    >>> table = RowTable("S", uniform_schema(4, 4))
    >>> rng = random.Random(7)
    >>> for _ in range(64):
    ...     _ = table.append([rng.randint(-100, 100) for _ in range(4)])
    >>> system = RelationalMemorySystem()
    >>> loaded = system.load_table(table)
    >>> processor = Processor(system)
    >>> report = processor.run(q4(), loaded)
    >>> report.result.value == sum(table.column_values("A1"))
    True
    >>> report.result.elapsed_ns > 0
    True
    """

    def __init__(self, system: RelationalMemorySystem):
        self.system = system
        self.executor = QueryExecutor(system)
        #: The :class:`ExecutionReport` of the most recent execution.
        self.last_report: Optional[ExecutionReport] = None

    # -- planning -----------------------------------------------------------------
    def plan(
        self,
        query: Query,
        loaded: LoadedTable,
        columnar: Optional[LoadedColumnGroup] = None,
        index: Optional[LoadedIndex] = None,
        hot: bool = False,
        selectivity: float = 1.0,
        engine: Optional[Engine] = None,
        fetch_columns: Optional[Sequence[str]] = None,
    ) -> ExecutionPlan:
        """Choose an engine for the fetch and build the placed tree.

        With ``engine`` given, placement is pinned (no costing), and the
        engine's eligibility check refusing the query on the bindings
        given raises its reason as a ``QueryError``. Else the cost model
        prices every engine whose check passes — the CPU row scan and
        RME (cold first pass unless ``hot``) always, the columnar copy
        and the index only when supplied — and the cheapest wins.
        """
        choice = None
        if engine is None:
            choice = choose_access_path(
                query,
                loaded,
                design=self.system.design,
                columnar=columnar,
                rme_hot=hot,
                selectivity=selectivity,
                index=index,
            )
            engine = _ENGINE_OF_PATH[choice.best]
        else:
            _check_pinned(engine, query, loaded, columnar, index)
        relation = relation_from_query(
            query,
            engine=engine,
            table=loaded.name,
            schema_columns=tuple(loaded.schema.names),
            fetch_columns=fetch_columns,
        )
        return ExecutionPlan(relation=relation, choice=choice)

    def plan_join(
        self,
        on: str,
        lhs_query: Query,
        lhs_loaded: LoadedTable,
        rhs_query: Query,
        rhs_loaded: LoadedTable,
        engine: Optional[Engine] = None,
        lhs_selectivity: float = 1.0,
        rhs_selectivity: float = 1.0,
        name: Optional[str] = None,
        sql: str = "",
    ) -> ExecutionPlan:
        """Choose an engine for a two-table equi-join and build its tree.

        With ``engine`` given, placement is pinned (no costing; a PIM
        join :func:`~repro.pim.engine.pim_join_refusal` refuses raises
        its reason as a ``QueryError``); else
        :func:`~repro.query.optimizer.choose_join_path` prices the CPU
        hash join against the in-bank partitioned join and the cheapest
        wins. Execute the plan with ``tables={leaf: loaded, ...}``
        bindings.
        """
        choice = None
        if engine is None:
            choice = choose_join_path(
                on, lhs_query, lhs_loaded, rhs_query, rhs_loaded,
                lhs_selectivity=lhs_selectivity,
                rhs_selectivity=rhs_selectivity,
            )
            engine = _ENGINE_OF_PATH[choice.best]
        elif engine == PIM:
            reason = pim_join_refusal(on, lhs_query, lhs_loaded,
                                      rhs_query, rhs_loaded)
            if reason:
                raise QueryError(reason)
        relation = join_relation(
            on, lhs_query, rhs_query, engine=engine,
            lhs_table=lhs_loaded.name, rhs_table=rhs_loaded.name,
            lhs_schema_columns=tuple(lhs_loaded.schema.names),
            rhs_schema_columns=tuple(rhs_loaded.schema.names),
            name=name, sql=sql,
        )
        return ExecutionPlan(relation=relation, choice=choice)

    def explain(self, relation: Relation) -> str:
        """Render ``relation`` as the engine-annotated plan tree."""
        return print_tree(relation)

    # -- execution ----------------------------------------------------------------
    def execute(
        self,
        relation: Relation,
        loaded: Optional[LoadedTable] = None,
        var=None,
        columnar: Optional[LoadedColumnGroup] = None,
        index: Optional[LoadedIndex] = None,
        tables: Optional[Dict[str, LoadedTable]] = None,
        flush: bool = True,
    ) -> QueryResult:
        """Execute a placed tree and return the measured result.

        Bindings supply the storage objects each engine scans: the
        ``loaded`` row table (CPU / degraded / PIM / index), the
        ``columnar`` copy, the ephemeral ``var`` (RME), or — for join
        trees — the ``tables`` map from leaf name to loaded table. The
        executed tree (with any fault re-rooting applied) lands in
        :attr:`last_report`.
        """
        compiled = _QueryCompiler().compile(relation)
        if compiled.join is not None:
            result = self._run_join(compiled, tables or {}, flush)
        else:
            engine = compiled.scan_engine
            if engine not in _SCANS:
                raise QueryError(f"no scan is registered for engine "
                                 f"{engine.name!r}")
            run, needs = _SCANS[engine]
            bound = {"loaded": loaded, "var": var, "columnar": columnar,
                     "index": index}
            missing = [f"{name}=" for name in needs if bound[name] is None]
            if missing:
                raise QueryError(f"a tree placed on {engine.name} needs "
                                 f"{' and '.join(missing)} to execute")
            result = run(self.executor, compiled.query,
                         *(bound[name] for name in needs), flush)
        executed = _reroot(compiled) if result.state == "degraded" else relation
        self.last_report = ExecutionReport(planned=relation, executed=executed,
                                           result=result)
        return result

    def run(
        self,
        query: Query,
        loaded: LoadedTable,
        columnar: Optional[LoadedColumnGroup] = None,
        index: Optional[LoadedIndex] = None,
        hot: bool = False,
        selectivity: float = 1.0,
        engine: Optional[Engine] = None,
        var=None,
        flush: bool = True,
    ) -> ExecutionReport:
        """Plan, bind, and execute in one call.

        When the plan lands on the RME and no ephemeral variable is
        supplied, one is registered for the fetch columns (and warmed
        when ``hot``). Returns the full :class:`ExecutionReport`.
        """
        plan = self.plan(query, loaded, columnar=columnar, index=index,
                         hot=hot, selectivity=selectivity, engine=engine)
        if plan.engine == RME and var is None:
            var = self.system.register_var(
                loaded, list(query.columns()), allow_noncontiguous=True
            )
            if hot:
                self.system.warm_up(var)
                self.system.flush_caches()
        self.execute(plan.relation, loaded=loaded, var=var,
                     columnar=columnar, index=index, flush=flush)
        return self.last_report

    # -- joins --------------------------------------------------------------------
    def _run_join(self, compiled: _QueryCompiler,
                  tables: Dict[str, LoadedTable], flush: bool) -> QueryResult:
        """Join on the Join node's engine, then apply the operators above.

        The rows and the bill come from the engine's executor method —
        two measured row scans plus a per-row hash surcharge on the CPU,
        or the in-bank partition/build/probe bill on the PIM engine —
        and the operators above the join from the compiled query,
        finalised like any single-table scan. The surviving right-side
        rows are the denominator of the reported selectivity.
        """
        join, query = compiled.join, compiled.query
        run = (self.executor.run_pim_join if join.engine == PIM
               else self.executor.run_join)
        (lhs_query, lhs), (rhs_query, rhs) = self._join_inputs(join, tables)
        scan = run(join.on, lhs_query, lhs, rhs_query, rhs, flush)
        kept = ops.filter_rows(scan.rows, query.predicate)
        return QueryResult(
            query=query.name,
            path=scan.path,
            value=QueryExecutor._finalize(query, kept),
            elapsed_ns=scan.elapsed_ns,
            rows_scanned=scan.rows_scanned,
            selectivity=len(scan.rows) / scan.rhs_rows if scan.rhs_rows else 0.0,
            state=scan.state,
            cache_stats=self.system.cache_stats(),
        )

    @staticmethod
    def _join_inputs(
        join: Join, tables: Dict[str, LoadedTable]
    ) -> List[Tuple[Query, LoadedTable]]:
        """Compile both join inputs and bind each to its loaded table.

        A PIM join scans both inputs at the banks; any other join runs
        as a CPU hash join over two row-store scans.
        """
        scans = (PIM,) if join.engine == PIM else (CPU, DEGRADED)
        inputs = []
        for side in (join.lhs, join.rhs):
            compiled = _compile_side(side)
            if compiled.scan_engine not in scans:
                raise QueryError(
                    f"a join on {join.engine.name} scans its inputs on "
                    f"{scans[0].name}; got {compiled.scan_engine.name}"
                )
            name = compiled.leaf.name
            if name not in tables:
                raise QueryError(f"join executes with tables={{...}}; no "
                                 f"binding for leaf {name!r}")
            inputs.append((compiled.query, tables[name]))
        return inputs


def _check_pinned(engine: Engine, query: Query, loaded: LoadedTable,
                  columnar: Optional[LoadedColumnGroup],
                  index: Optional[LoadedIndex]) -> None:
    """Raise ``engine``'s refusal of ``query`` on the bindings given (a
    binding not given is checked when the tree executes)."""
    reason = ""
    if engine == PIM:
        reason = pim_refusal(query, loaded)
    elif engine == COLUMNAR and columnar is not None:
        reason = columnar_refusal(query, columnar)
    elif engine == INDEX and index is not None:
        reason = index_refusal(query, loaded, index)
    if reason:
        raise QueryError(reason)


def explain_placement(query: Query, engine: Engine = RME,
                      table: str = "S") -> str:
    """The engine-annotated tree a pinned placement would produce.

    A lightweight helper for docs and ``--explain``: no platform is
    built, so the tree shows the canonical placement rather than a
    cost-based decision.

    >>> from repro.query.queries import q1
    >>> print(explain_placement(q1()))
    Plan[Q1]: SELECT A1 FROM S
    └─ Transfer[rme → cpu]
       └─ Projection[A1] @rme
          └─ Transfer[cpu → rme]
             └─ Leaf[S] @cpu
    """
    return print_tree(relation_from_query(query, engine=engine, table=table))
