"""Unit tests for the relational-algebra IR: nodes, engines, processor."""

import dataclasses
import json
import pathlib

import pytest

from repro.bench.workloads import make_relation
from repro.core.access_path import AccessPath
from repro.core.relmem import RelationalMemorySystem
from repro.errors import QueryError
from repro.query.engines import (
    ALL_ENGINES,
    COLUMNAR,
    CPU,
    DEGRADED,
    INDEX,
    PIM,
    RME,
    Engine,
)
from repro.query.expr import Col
from repro.query.processor import (
    Processor,
    explain_placement,
    join_relation,
    relation_from_query,
    reroot_degraded,
    scan_engine,
    to_query,
)
from repro.query.queries import RELATIONAL_MEMORY_BENCHMARK, Query, q1, q2, q4
from repro.query.relation import (
    Aggregate,
    LeafRelation,
    Projection,
    RelationVisitor,
    Selection,
    Transfer,
    print_tree,
)
from repro.query.sql import parse_relation

GOLDEN = pathlib.Path(__file__).parent / "golden" / "ir_plans.json"


# -- node construction and invariants -------------------------------------------------


def test_nodes_are_frozen():
    leaf = LeafRelation("S", ("A1", "A2"))
    tree = leaf.project("A1").select(Col("A1") > 0)
    for node in (leaf, tree, tree.target):
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.name = "other"  # type: ignore[misc]


def test_nodes_are_hashable_and_equal_by_value():
    a = LeafRelation("S", ("A1",)).project("A1")
    b = LeafRelation("S", ("A1",)).project("A1")
    assert a == b
    assert hash(a) == hash(b)
    assert a != LeafRelation("S", ("A1",))


def test_column_propagation():
    leaf = LeafRelation("S", ("A1", "A2", "A3"))
    assert leaf.project("A3", "A1").columns == ("A3", "A1")
    assert leaf.select(Col("A2") > 0).columns == ("A1", "A2", "A3")
    assert leaf.aggregate("sum", Col("A1")).columns == ("sum(A1)",)
    assert leaf.aggregate("avg", Col("A1"), group_by="A2").columns == (
        "A2", "avg(A1)")


def test_missing_columns_rejected():
    leaf = LeafRelation("S", ("A1", "A2"))
    with pytest.raises(QueryError):
        leaf.project("A9")
    with pytest.raises(QueryError):
        leaf.select(Col("A9") > 0)
    with pytest.raises(QueryError):
        leaf.aggregate("sum", Col("A9"))
    with pytest.raises(QueryError):
        leaf.project("A1").join(LeafRelation("T", ("k",)), on="k")


def test_unbound_leaf_defers_column_checks():
    leaf = LeafRelation("S")
    assert leaf.columns == ()
    tree = leaf.project("A9").select(Col("A9") > 0)
    assert tree.columns == ("A9",)


def test_empty_projection_rejected():
    with pytest.raises(QueryError):
        LeafRelation("S", ("A1",)).project()


def test_unknown_aggregate_rejected():
    with pytest.raises(QueryError):
        LeafRelation("S", ("A1",)).aggregate("median", Col("A1"))


def test_transfer_noop_returns_self():
    leaf = LeafRelation("S", ("A1",))
    assert leaf.transfer(CPU) is leaf
    moved = leaf.transfer(RME)
    assert isinstance(moved, Transfer)
    assert moved.engine == RME
    assert moved.source == CPU
    with pytest.raises(QueryError):
        Transfer(target=leaf, destination=CPU)


def test_join_requires_matching_engines():
    lhs = LeafRelation("R", ("k", "x"))
    rhs = LeafRelation("T", ("k", "y")).transfer(RME)
    with pytest.raises(QueryError):
        lhs.join(rhs, on="k")
    joined = lhs.join(rhs.transfer(CPU), on="k")
    assert joined.columns == ("k", "x", "y")


def test_engines_compare_by_type():
    assert CPU == Engine("cpu", AccessPath.DIRECT_ROW)
    assert CPU != RME
    assert Engine("rme", AccessPath.RME) == RME
    assert len({e.name for e in ALL_ENGINES}) == len(ALL_ENGINES)
    assert DEGRADED.access_path == CPU.access_path
    assert DEGRADED != CPU


def test_str_forms():
    leaf = LeafRelation("S", ("A1", "A2"))
    assert str(leaf.project("A1")) == "π[A1](S)"
    assert str(leaf.select(Col("A2") > 0)) == "σ[(Col(A2) > Const(0))](S)"
    assert str(leaf.aggregate("sum", Col("A1"))) == "γ[sum(Col(A1))](S)"
    assert str(leaf.transfer(RME)) == "[cpu→rme](S)"
    assert str(leaf.label("Q1")) == "Q1:S"


# -- visitors -------------------------------------------------------------------------


def test_visitor_default_raises():
    class Silent(RelationVisitor):
        pass

    with pytest.raises(QueryError):
        LeafRelation("S", ("A1",)).accept(Silent())


def test_visitor_traversal():
    class NodeCounter(RelationVisitor):
        def visit_leaf(self, node):
            return 1

        def visit_projection(self, node):
            return 1 + node.target.accept(self)

        def visit_selection(self, node):
            return 1 + node.target.accept(self)

        def visit_transfer(self, node):
            return 1 + node.target.accept(self)

    tree = (LeafRelation("S", ("A1", "A2")).transfer(RME)
            .project("A1").transfer(CPU).select(Col("A1") > 0))
    assert tree.accept(NodeCounter()) == 5


# -- from_query / to_query bridge -----------------------------------------------------


@pytest.mark.parametrize("query", RELATIONAL_MEMORY_BENCHMARK,
                         ids=[q.name for q in RELATIONAL_MEMORY_BENCHMARK])
@pytest.mark.parametrize("engine", [CPU, RME, COLUMNAR, INDEX, DEGRADED],
                         ids=lambda e: e.name)
def test_round_trip(query, engine):
    relation = relation_from_query(query, engine=engine)
    assert to_query(relation) == query
    assert scan_engine(relation) == engine


def test_canonical_rme_shape():
    """Label → σ → Transfer → fetch π @rme → Transfer → Leaf for Q2."""
    relation = relation_from_query(q2(k=0), engine=RME)
    body = relation.target  # output projection
    assert isinstance(body, Projection)
    sel = body.target
    assert isinstance(sel, Selection)
    back = sel.target
    assert isinstance(back, Transfer)
    assert (back.source, back.destination) == (RME, CPU)
    fetch = back.target
    assert isinstance(fetch, Projection)
    assert fetch.engine == RME
    assert fetch.projected == ("A1", "A2")
    out = fetch.target
    assert isinstance(out, Transfer)
    assert (out.source, out.destination) == (CPU, RME)
    assert isinstance(out.target, LeafRelation)


def test_expr_identity_preserved():
    """to_query must carry Expr nodes by reference (identity semantics)."""
    query = q2(k=0)
    compiled = to_query(relation_from_query(query, engine=RME))
    assert compiled.predicate is query.predicate


def test_wide_fetch_allowed_but_narrow_rejected():
    query = q1()
    wide = relation_from_query(query, engine=RME,
                               fetch_columns=("A1", "A2", "A3"))
    assert to_query(wide) == query
    with pytest.raises(QueryError):
        relation_from_query(q2(k=0), fetch_columns=("A1",))


def test_multi_pass_non_aggregate_rejected():
    bad = Query(name="X", sql="", select=("A1",), passes=2)
    with pytest.raises(QueryError):
        relation_from_query(bad)


def test_having_shape_rejected():
    tree = (LeafRelation("S", ("A1",)).project("A1")
            .aggregate("sum", Col("A1")).select(Col("sum(A1)") > 0))
    with pytest.raises(QueryError):
        to_query(tree)


def test_reroot_degraded():
    planned = relation_from_query(q1(), engine=RME)
    executed = reroot_degraded(planned)
    assert scan_engine(executed) == DEGRADED
    assert to_query(executed) == to_query(planned)


def test_parse_relation_matches_from_query():
    relation = parse_relation("SELECT SUM(A1) FROM S WHERE A2 > 0", name="Q4w")
    body = relation.target
    assert isinstance(body, Aggregate)
    assert relation.name == "Q4w"
    from repro.query.sql import parse_query

    query = to_query(relation)
    ref = parse_query("SELECT SUM(A1) FROM S WHERE A2 > 0", name="Q4w")
    assert query.aggregate == "sum"
    assert query.columns() == ref.columns()
    assert repr(query.predicate) == repr(ref.predicate)
    assert repr(query.agg_expr) == repr(ref.agg_expr)


def test_parse_relation_keeps_table_name():
    relation = parse_relation("SELECT num_fld1 FROM the_table")
    node = relation
    while not isinstance(node, LeafRelation):
        node = node.target
    assert node.name == "the_table"


# -- processor execution --------------------------------------------------------------


def make_system(n_rows=160, seed=5):
    table = make_relation(n_rows, seed=seed)
    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    return table, system, loaded


def test_processor_run_records_report():
    table, system, loaded = make_system()
    processor = Processor(system)
    report = processor.run(q4(), loaded, engine=RME)
    assert report is processor.last_report
    assert not report.degraded
    assert report.result.value == sum(table.column_values("A1"))
    assert "@rme" in report.explain()


#: One case per engine: the engine the tree is placed on (``None`` for a
#: join tree) and the binding execute() is called without.
MISSING_BINDINGS = {
    "rme-without-var": (RME, "var="),
    "cpu-without-loaded": (CPU, "loaded="),
    "pim-without-loaded": (PIM, "loaded="),
    "columnar-without-columnar": (COLUMNAR, "columnar="),
    "index-without-index": (INDEX, "index="),
    "join-without-a-leaf": (None, "tables="),
}


@pytest.mark.parametrize("case", list(MISSING_BINDINGS))
def test_processor_missing_bindings_raise(case):
    """A tree executed without the storage its engine scans is refused
    with a one-line QueryError naming the missing binding."""
    engine, needed = MISSING_BINDINGS[case]
    if engine is None:
        _, _, tables, processor, join = make_rt_join()
        tree, bindings = join.label("J1"), {"tables": {"r": tables["r"]}}
    else:
        _, system, loaded = make_system()
        processor = Processor(system)
        tree = processor.plan(q4(), loaded, engine=engine).relation
        bindings = {} if needed == "loaded=" else {"loaded": loaded}
    with pytest.raises(QueryError, match=needed) as info:
        processor.execute(tree, **bindings)
    assert "\n" not in str(info.value)


def test_processor_degraded_reroot_on_fault():
    """An unrecoverable FaultError re-roots the executed tree @degraded."""
    from repro.faults import FaultPlan, RecoveryPolicy

    table, system, loaded = make_system()
    system.enable_faults(
        FaultPlan.single("dram_bitflip", 0.0, severity=2),
        RecoveryPolicy(max_retries=0),  # retries exhausted immediately
    )
    processor = Processor(system)
    query = q4()
    var = system.register_var(loaded, list(query.columns()))
    plan = processor.plan(query, loaded, engine=RME)
    result = processor.execute(plan.relation, var=var)
    assert result.state == "degraded"
    assert result.value == sum(table.column_values("A1"))
    report = processor.last_report
    assert report.degraded
    assert scan_engine(report.executed) == DEGRADED
    assert "@degraded" in report.explain()
    assert "@rme" in print_tree(report.planned)
    # The next run heals and the report shows the planned RME tree again.
    again = processor.execute(plan.relation, var=var)
    assert again.state == "cold"
    assert not processor.last_report.degraded


def make_rt_join():
    """``R(k, x) ⋈ T(k, y)`` on one system: each T row matches one R row."""
    from repro.storage import Column, RowTable, Schema, int32

    r = RowTable("r", Schema([Column("k", int32()), Column("x", int32())]))
    t = RowTable("t", Schema([Column("k", int32()), Column("y", int32())]))
    for i in range(8):
        r.append([i, 10 * i])
        t.append([i % 4, 100 + i])
    system = RelationalMemorySystem()
    tables = {"r": system.load_table(r), "t": system.load_table(t)}
    lhs = LeafRelation("r", ("k", "x")).project("k", "x")
    rhs = LeafRelation("t", ("k", "y")).project("k", "y")
    return r, t, tables, Processor(system), lhs.join(rhs, on="k")


def test_processor_join_execution():
    r, t, loaded, processor, join = make_rt_join()
    tree = join.label("J1")
    assert tree.columns == ("k", "x", "y")
    result = processor.execute(tree, tables=loaded)
    expected = sorted(
        (rv[0], rv[1], tv[1])
        for rv in r.scan()
        for tv in t.scan()
        if rv[0] == tv[0]
    )
    assert sorted(result.value) == expected
    assert result.elapsed_ns > 0
    assert processor.last_report.result is result


#: Operator shapes stacked on a relation, with the reference answer over
#: ``R ⋈ T``'s joined ``(k, x, y)`` rows.
JOIN_SHAPES = {
    "project-then-select": (
        lambda rel: rel.project("k", "x").select(Col("x") > 10),
        lambda rows: [(k, x) for k, x, _ in rows if x > 10],
    ),
    "aggregate-then-project": (
        lambda rel: rel.aggregate("sum", Col("x")).project("sum(x)"),
        lambda rows: sum(x for _, x, _ in rows),
    ),
}


@pytest.mark.parametrize("shape", list(JOIN_SHAPES))
def test_operators_above_a_join_run_like_single_table(shape):
    """Operators above a Join follow the single-table rules: a shape the
    single-table path refuses may be refused with QueryError, and any
    answer must be the right one — never rows wider than the tree's
    columns, never a bare KeyError."""
    build, reference = JOIN_SHAPES[shape]
    r, t, loaded, processor, join = make_rt_join()
    rows = [(rv[0], rv[1], tv[1]) for tv in t.scan() for rv in r.scan()
            if rv[0] == tv[0]]
    tree = build(join).label("J")
    try:
        result = processor.execute(tree, tables=loaded)
    except QueryError:
        return
    assert result.value == reference(rows)
    if isinstance(result.value, list):
        assert all(len(row) == len(tree.columns) for row in result.value)


def test_explain_placement_mentions_engines():
    text = explain_placement(q2(k=0))
    assert "@rme" in text and "@cpu" in text and "Transfer" in text


# -- golden printed plans -------------------------------------------------------------


def render_golden_plans():
    """The committed fixture's content: canonical RME plans per template."""
    plans = {q.name: print_tree(relation_from_query(q, engine=RME))
             for q in RELATIONAL_MEMORY_BENCHMARK}
    plans["Q1-degraded"] = print_tree(
        reroot_degraded(relation_from_query(q1(), engine=RME)))
    plans["Q1-direct"] = print_tree(relation_from_query(q1(), engine=CPU))
    plans["Q2-pim"] = print_tree(relation_from_query(q2(k=0), engine=PIM))
    plans["Q4-pim"] = print_tree(relation_from_query(q4(), engine=PIM))
    plans["Q4-pim-degraded"] = print_tree(
        reroot_degraded(relation_from_query(q4(), engine=PIM)))
    grouped = Query(name="G1", sql="SELECT SUM(A1) FROM S WHERE A2 > 0 "
                    "GROUP BY A3", select=(), aggregate="sum",
                    agg_expr=Col("A1"), predicate=Col("A2") > 0,
                    group_by="A3")
    plans["G1-pim"] = print_tree(relation_from_query(grouped, engine=PIM))
    dim = Query(name="dim", sql="", select=("K", "D1"))
    fact = Query(name="fact", sql="", select=("K", "A1"),
                 predicate=Col("F1") > 0)
    plans["join-pim"] = print_tree(join_relation("K", dim, fact, engine=PIM))
    plans["join-pim-degraded"] = print_tree(
        reroot_degraded(join_relation("K", dim, fact, engine=PIM)))
    plans["join-cpu"] = print_tree(join_relation("K", dim, fact, engine=CPU))
    return plans


def test_golden_printed_plans():
    """Printed plan trees are frozen; regenerate deliberately, not by drift.

    On intentional format changes: delete ``tests/golden/ir_plans.json``
    and re-run this test once to regenerate, then commit the diff.
    """
    plans = render_golden_plans()
    if not GOLDEN.exists():
        GOLDEN.write_text(json.dumps(plans, indent=2, sort_keys=True,
                                     ensure_ascii=False) + "\n")
        pytest.fail(f"{GOLDEN} regenerated; inspect and commit it")
    stored = json.loads(GOLDEN.read_text())
    assert stored == plans
