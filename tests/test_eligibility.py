"""One eligibility check per engine, asked by the planner, a pinned plan
and the engine's own scan alike.

An engine that cannot run a query on the storage its table holds is never
priced, refuses a pinned placement with its reason, and refuses the scan
itself with the same one-line ``QueryError`` before simulated time moves.
Every engine that runs a query returns the same bytes.
"""

import pytest

from repro import RelationalMemorySystem
from repro.errors import QueryError
from repro.query.engines import COLUMNAR, CPU, INDEX, PIM, RME
from repro.query.executor import index_refusal
from repro.query.processor import (Processor, join_relation,
                                   relation_from_query)
from repro.query.queries import q1, q4, q7
from repro.query.sql import parse_query
from repro.storage.mvcc import TransactionManager, VersionedRowTable
from repro.storage.schema import Column, Schema, int32
from tests.conftest import build_mixed_relation, build_relation

N_ROWS = 2048


def catalog(copy=None, index=None):
    """Tables S and T (uniform int32) on their own system, with a
    columnar copy of S's ``copy`` columns and an A1 index over the table
    named ``index``: the storage each engine finds through the table."""
    system = RelationalMemorySystem()
    tables = {name: system.load_table(
        build_relation(N_ROWS, n_cols=8, seed=seed, name=name))
        for seed, name in ((1, "S"), (2, "T"))}
    if copy is not None:
        system.load_column_group(tables["S"], copy)
    if index is not None:
        system.load_index(tables[index], "A1")
    return system, tables


def cpu_answer(system, query, loaded):
    return Processor(system).run(query, loaded, engine=CPU).result.value


# -- the three defects ---------------------------------------------------------


@pytest.mark.parametrize("query", [q1("A2"), q7("A2")],
                         ids=["q1", "q7"])
def test_planner_never_picks_a_copy_that_lacks_columns(query):
    system, tables = catalog(copy=["A1"])
    processor = Processor(system)
    plan = processor.plan(query, tables["S"])
    assert COLUMNAR.access_path not in plan.choice.estimates_ns
    report = processor.run(query, tables["S"])
    assert report.result.value == cpu_answer(system, query, tables["S"])
    covered = processor.plan(q1("A1"), tables["S"])
    assert COLUMNAR.access_path in covered.choice.estimates_ns


@pytest.mark.parametrize("cut", [990, 900, 700])
def test_an_index_over_another_table_never_answers(cut):
    system, tables = catalog(index="T")
    s = tables["S"]
    processor = Processor(system)
    query = parse_query(
        f"SELECT A2, A3, A4, A5, A6, A7, A8 FROM S WHERE A1 > {cut}")
    truth = cpu_answer(system, query, s)
    assert truth
    assert "built over table 'T'" in index_refusal(query, s,
                                                   tables["T"].indexes[0])
    plan = processor.plan(query, s, selectivity=0.001)
    assert INDEX.access_path not in plan.choice.estimates_ns
    report = processor.run(query, s, selectivity=0.001)
    assert report.result.value == truth
    with pytest.raises(QueryError, match="no index over S"):
        processor.plan(query, s, engine=INDEX)
    # Its own table's index serves the same query, and answers right.
    system.load_index(s, "A1")
    own = processor.run(query, s, engine=INDEX)
    assert own.result.value == truth


def versioned_loaded(system):
    table = VersionedRowTable("V", Schema([Column("A1", int32()),
                                           Column("A2", int32())]))
    manager = TransactionManager(table)
    for key in range(64):
        manager.insert([key, 10 * key])
    for key in range(0, 64, 2):
        manager.update(key, [key, 10 * key + 1])
    return system.load_table(table, manager=manager)


def test_pinned_pim_refuses_what_the_banks_cannot_run():
    system = RelationalMemorySystem()
    processor = Processor(system)
    mixed = system.load_table(build_mixed_relation())
    versioned = versioned_loaded(system)
    for query, loaded, reason in (
        (parse_query("SELECT SUM(F) FROM T WHERE A1 < 0"), mixed,
         "read only signed integer fields"),
        (q4("A2"), versioned, "versioned"),
    ):
        with pytest.raises(QueryError, match=reason) as planned:
            processor.plan(query, loaded, engine=PIM)
        tree = relation_from_query(query, engine=PIM, table=loaded.name)
        before = system.sim.now
        with pytest.raises(QueryError) as executed:
            processor.execute(tree)
        assert str(executed.value) == str(planned.value)
        assert "not PIM-evaluable" in str(planned.value)
        assert system.sim.now == before


def test_pim_refuses_fields_too_wide_for_the_comparator():
    system = RelationalMemorySystem()
    loaded = system.load_table(build_relation(256, n_cols=4, col_width=16))
    processor = Processor(system)
    query = parse_query("SELECT SUM(A1) FROM S WHERE A2 < 0")
    assert PIM.access_path not in processor.plan(query, loaded).choice.estimates_ns
    with pytest.raises(QueryError, match="does not fit the in-bank comparator"):
        processor.plan(query, loaded, engine=PIM)


# -- one check, three askers -----------------------------------------------------


def matrix_cases():
    """(case id, engine, query, storage) — the first case of each engine
    is one it can run, the others ones it cannot; ``storage`` is what
    :func:`catalog` builds besides the tables."""
    sel = parse_query("SELECT SUM(A2) FROM S WHERE A1 > 900")
    return [
        ("cpu", CPU, q1("A2"), {}),
        ("rme", RME, q1("A2"), {}),
        ("columnar", COLUMNAR, q1("A1"), {"copy": ["A1"]}),
        ("columnar-uncovered", COLUMNAR, q1("A2"), {"copy": ["A1"]}),
        ("index", INDEX, sel, {"index": "S"}),
        ("index-no-range", INDEX, parse_query(
            "SELECT SUM(A2) FROM S WHERE A3 > 900"), {"index": "S"}),
        ("index-foreign", INDEX, sel, {"index": "T"}),
        ("pim", PIM, sel, {}),
        ("pim-bare-projection", PIM, q1("A2"), {}),
        ("pim-unknown-column", PIM, q4("A9"), {}),
    ]


@pytest.mark.parametrize("case", matrix_cases(), ids=lambda case: case[0])
def test_priced_if_and_only_if_pinned_execution_succeeds(case):
    _id, engine, query, storage = case
    system, tables = catalog(**storage)
    loaded = tables["S"]
    processor = Processor(system)
    if query.columns() and all(c in loaded.schema for c in query.columns()):
        choice = processor.plan(query, loaded, selectivity=0.05).choice
        priced = engine.access_path in choice.estimates_ns
    else:
        priced = False  # the planner cannot cost a column the table lacks
    before = system.sim.now
    try:
        report = processor.run(query, loaded, engine=engine)
    except QueryError as error:
        refusal = str(error)
        assert "\n" not in refusal
        assert system.sim.now == before
        # The engine's own scan refuses a tree placed there anyway, with
        # the same text and before any simulated time passes.
        tree = relation_from_query(query, engine=engine, table=loaded.name)
        with pytest.raises(QueryError) as executed:
            processor.execute(tree)
        assert str(executed.value) == refusal
        assert system.sim.now == before
        ran = False
    else:
        assert report.result.value == cpu_answer(system, query, loaded)
        ran = True
    assert priced == ran


def test_pinned_join_refusal_matches_the_banks():
    system = RelationalMemorySystem()
    lhs = system.load_table(build_mixed_relation("L"))
    rhs = system.load_table(build_mixed_relation("R"))
    processor = Processor(system)
    lhs_q = parse_query("SELECT U, A1 FROM L WHERE A1 < -30")
    rhs_q = parse_query("SELECT U, F FROM R")
    choice = processor.plan_join("U", lhs_q, lhs, rhs_q, rhs).choice
    assert PIM.access_path not in choice.estimates_ns
    with pytest.raises(QueryError, match="join not PIM-evaluable") as planned:
        processor.plan_join("U", lhs_q, lhs, rhs_q, rhs, engine=PIM)
    tree = join_relation("U", lhs_q, rhs_q, engine=PIM, lhs_table="L",
                         rhs_table="R")
    before = system.sim.now
    with pytest.raises(QueryError) as executed:
        processor.execute(tree)
    assert str(executed.value) == str(planned.value)
    assert system.sim.now == before


# -- every engine returns the same bytes ----------------------------------------


@pytest.mark.parametrize("sql", [
    "SELECT A1, A2 FROM S WHERE A1 > 950",
    "SELECT SUM(A2) FROM S WHERE A1 > 600 GROUP BY A3",
])
def test_every_engine_answers_in_the_same_order(sql):
    query = parse_query(sql)
    system, tables = catalog(index="S")
    loaded = tables["S"]
    system.load_column_group(
        loaded, loaded.schema.covering_columns(query.columns()))
    processor = Processor(system)
    answers = {
        engine.name: repr(processor.run(query, loaded,
                                        engine=engine).result.value)
        for engine in (CPU, RME, COLUMNAR, INDEX, PIM)
    }
    assert len(set(answers.values())) == 1, answers
