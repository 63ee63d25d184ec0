"""A tree scans the table its leaves name.

Every leaf, a scan's or a join side's, resolves through the system's
catalog of loaded tables, and each table holds the columnar copies and
indexes built over it. A binding passed to ``execute`` (``loaded=``,
``var=``, ``tables=``) is only checked against that catalog: one for
another table, or from another system, is a one-line ``QueryError``
raised before simulated time moves.
"""

import pytest

from repro import RelationalMemorySystem
from repro.bench.workloads import make_join_tables, make_relation
from repro.errors import ConfigurationError, QueryError
from repro.query.engines import COLUMNAR, CPU, INDEX, PIM, RME
from repro.query.executor import columnar_refusal
from repro.query.processor import Processor, relation_from_query
from repro.query.queries import Query, q1, q4
from repro.query.sql import parse_query, parse_relation
from repro.storage.row_table import RowTable

SELECTIVE = parse_query("SELECT SUM(A2) FROM S WHERE A1 > 990000")
DIM = Query(name="dim", sql="", select=("K", "D1"))
FACT = parse_query("SELECT K, A1 FROM F WHERE F1 < -900000")


def catalog():
    """One system: S (2048 rows) and T (512 rows), uniform 16 x int32,
    each with a copy of A1 and an index on A1; the join pair D and F;
    and G, a second table with F's schema."""
    system = RelationalMemorySystem()
    dim, fact = make_join_tables(1024, seed=1)
    other = make_join_tables(1024, seed=2)[1]
    tables = {table.name: system.load_table(table) for table in (
        make_relation(2048, seed=1), make_relation(512, seed=2, name="T"),
        dim, fact, RowTable.from_raw("G", other.schema, other.raw_bytes()))}
    for name in ("S", "T"):
        system.load_column_group(tables[name], ["A1"])
    for name in ("S", "T"):
        system.load_index(tables[name], "A1")
    return system, tables


def scan_answer(query, table):
    """The reference answer of a single-table query over ``table``."""
    a1, a2 = table.column_values("A1"), table.column_values("A2")
    if query is SELECTIVE:
        return sum(y for x, y in zip(a1, a2) if x > 990_000)
    return sum(a1) if query.aggregate == "sum" else [(x,) for x in a1]


def join_answer(tables):
    """D ⋈ F on K under FACT's filter, as (K, D1, A1, F1) rows."""
    d1 = dict(tables["D"].table.scan(["K", "D1"]))
    return sorted((k, d1[k], a1, f1)
                  for k, a1, f1 in tables["F"].table.scan(["K", "A1", "F1"])
                  if f1 < -900_000 and k in d1)


#: case -> (engine, query or None for the D ⋈ F join, the bill of the
#: same pinned run at the commit before leaves resolved through the
#: catalog, on the same catalog).
MATRIX = {
    "cpu": (CPU, q4("A1"), 65790.0),
    "rme": (RME, q4("A1"), 56167.75),
    "columnar": (COLUMNAR, q1("A1"), 4388.88),
    "index": (INDEX, SELECTIVE, 2826.8),
    "pim": (PIM, SELECTIVE, 662.0),
    "cpu-join": (CPU, None, 7916.49451171875),
    "pim-join": (PIM, None, 6240.55),
}


@pytest.mark.parametrize("case", list(MATRIX))
def test_each_engine_scans_its_leaf_and_refuses_another_table(case):
    """Unbound (RME: bound to a variable over S), each tree answers and
    bills as before. Bound to T, or a join side to G (a CPU tree over S
    given ``loaded=T`` used to answer T's sum, an RME tree given a
    variable over T too), it is refused before simulated time moves."""
    engine, query, bill = MATRIX[case]
    system, tables = catalog()
    processor = Processor(system)
    if query is None:
        tree = processor.plan_join("K", DIM, tables["D"], FACT, tables["F"],
                                   engine=engine).relation
        own, wrong = {}, {"tables": {"D": tables["D"], "F": tables["G"]}}
        expected, culprit = join_answer(tables), "G"
    else:
        tree = processor.plan(query, tables["S"], engine=engine).relation
        own, wrong = {}, {"loaded": tables["T"]}
        if engine == RME:
            columns = list(query.columns())
            own = {"var": system.register_var(tables["S"], columns)}
            wrong = {"var": system.register_var(tables["T"], columns)}
        expected, culprit = scan_answer(query, tables["S"].table), "T"
    before = system.sim.now
    with pytest.raises(QueryError, match=f"binds table '{culprit}'") as info:
        processor.execute(tree, **wrong)
    assert "\n" not in str(info.value)
    assert system.sim.now == before
    result = processor.execute(tree, **own)
    value = sorted(result.value) if query is None else result.value
    assert value == expected
    assert result.elapsed_ns == bill


def test_a_copy_of_another_table_is_never_priced_or_scanned():
    """T's copy of A1 once priced at 4 352 ns for a scan over S and
    billed 1 316.88 ns for S's 2048 rows; S's own copy bills 4 388.88."""
    system = RelationalMemorySystem()
    s = system.load_table(make_relation(2048, seed=1))
    t = system.load_table(make_relation(512, seed=2, name="T"))
    t_copy = system.load_column_group(t, ["A1"])
    assert "built over table 'T'" in columnar_refusal(q1("A1"), s, t_copy)
    processor = Processor(system)
    assert (COLUMNAR.access_path
            not in processor.plan(q1("A1"), s).choice.estimates_ns)
    before = system.sim.now
    with pytest.raises(QueryError,
                       match=r"no copy of S covers \['A1'\]") as pinned:
        processor.plan(q1("A1"), s, engine=COLUMNAR)
    tree = relation_from_query(q1("A1"), engine=COLUMNAR)
    with pytest.raises(QueryError) as executed:
        processor.execute(tree)
    assert str(executed.value) == str(pinned.value)
    assert system.sim.now == before
    system.load_column_group(s, ["A1"])
    assert COLUMNAR.access_path in processor.plan(q1("A1"), s).choice.estimates_ns
    assert processor.execute(tree).elapsed_ns == 4388.88


def test_a_table_of_another_system_is_refused():
    """Another system's S once reached the scan, which then failed late
    on an unmapped address or measured whatever sat there."""
    system = RelationalMemorySystem()
    system.load_table(make_relation(2048, seed=1))
    other = RelationalMemorySystem()
    foreign = other.load_table(make_relation(2048, seed=1))
    foreign_var = other.register_var(foreign, ["A1"])
    processor = Processor(system)
    before = system.sim.now
    for call in (
        lambda: processor.execute(relation_from_query(q4("A1")),
                                  loaded=foreign),
        lambda: processor.execute(relation_from_query(q4("A1")),
                                  tables={"S": foreign}),
        lambda: processor.execute(relation_from_query(q4("A1"), engine=RME),
                                  var=foreign_var),
        lambda: processor.run(q4("A1"), foreign),
    ):
        with pytest.raises(QueryError, match="binds table 'S', which is "
                                             "not this system's 'S'"):
            call()
    assert system.sim.now == before
    for load in (lambda: system.load_column_group(foreign, ["A1"]),
                 lambda: system.load_index(foreign, "A1"),
                 lambda: system.register_var(foreign, ["A1"])):
        with pytest.raises(ConfigurationError, match="not loaded into this"):
            load()


def test_parsed_sql_executes_against_make_relation():
    """``FROM S`` names the table ``make_relation`` builds."""
    system = RelationalMemorySystem()
    table = make_relation(256)
    system.load_table(table)
    result = Processor(system).execute(
        parse_relation("SELECT SUM(A1) FROM S"))
    assert result.value == sum(table.column_values("A1"))
