"""One eligibility check per engine, asked by the planner, a pinned plan
and the engine's own scan alike.

An engine that cannot run a query on the storage it is handed is never
priced, refuses a pinned placement with its reason, and refuses the scan
itself with the same one-line ``QueryError`` before simulated time moves.
Every engine that runs a query returns the same bytes.
"""

import pytest

from repro import RelationalMemorySystem
from repro.errors import QueryError
from repro.query.engines import COLUMNAR, CPU, INDEX, PIM, RME
from repro.query.processor import (Processor, join_relation,
                                   relation_from_query)
from repro.query.queries import q1, q4, q7
from repro.query.sql import parse_query
from repro.storage.mvcc import TransactionManager, VersionedRowTable
from repro.storage.schema import Column, Schema, int32
from tests.conftest import build_mixed_relation, build_relation

N_ROWS = 2048


@pytest.fixture
def env():
    """Tables S and T (uniform int32), a copy of S.A1, and A1 indexes
    over both tables, all in one system."""
    system = RelationalMemorySystem()
    s = system.load_table(build_relation(N_ROWS, n_cols=8, seed=1, name="S"))
    t = system.load_table(build_relation(N_ROWS, n_cols=8, seed=2, name="T"))
    return {
        "system": system,
        "S": s,
        "T": t,
        "copy_a1": system.load_column_group(s.table, ["A1"]),
        "index_s": system.load_index(s, "A1"),
        "index_t": system.load_index(t, "A1"),
    }


def cpu_answer(env, query, loaded):
    return Processor(env["system"]).run(query, loaded, engine=CPU).result.value


# -- the three defects ---------------------------------------------------------


@pytest.mark.parametrize("query", [q1("A2"), q7("A2")],
                         ids=["q1", "q7"])
def test_planner_never_picks_a_copy_that_lacks_columns(env, query):
    processor = Processor(env["system"])
    plan = processor.plan(query, env["S"], columnar=env["copy_a1"])
    assert COLUMNAR.access_path not in plan.choice.estimates_ns
    report = processor.run(query, env["S"], columnar=env["copy_a1"])
    assert report.result.value == cpu_answer(env, query, env["S"])
    covered = processor.plan(q1("A1"), env["S"], columnar=env["copy_a1"])
    assert COLUMNAR.access_path in covered.choice.estimates_ns


@pytest.mark.parametrize("cut", [990, 900, 700])
def test_an_index_over_another_table_never_answers(env, cut):
    processor = Processor(env["system"])
    query = parse_query(
        f"SELECT A2, A3, A4, A5, A6, A7, A8 FROM S WHERE A1 > {cut}")
    truth = cpu_answer(env, query, env["S"])
    assert truth
    plan = processor.plan(query, env["S"], index=env["index_t"],
                          selectivity=0.001)
    assert INDEX.access_path not in plan.choice.estimates_ns
    report = processor.run(query, env["S"], index=env["index_t"],
                           selectivity=0.001)
    assert report.result.value == truth
    with pytest.raises(QueryError, match="built over table 'T'"):
        processor.plan(query, env["S"], index=env["index_t"], engine=INDEX)
    # Its own table's index serves the same query, and answers right.
    own = processor.run(query, env["S"], index=env["index_s"], engine=INDEX)
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
            processor.execute(tree, loaded=loaded)
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
    """(case id, engine, query, table, bindings) — the first case of each
    engine is one it can run, the others ones it cannot."""
    sel = parse_query("SELECT SUM(A2) FROM S WHERE A1 > 900")
    return [
        ("cpu", CPU, q1("A2"), "S", {}),
        ("rme", RME, q1("A2"), "S", {}),
        ("columnar", COLUMNAR, q1("A1"), "S", {"columnar": "copy_a1"}),
        ("columnar-uncovered", COLUMNAR, q1("A2"), "S",
         {"columnar": "copy_a1"}),
        ("index", INDEX, sel, "S", {"index": "index_s"}),
        ("index-no-range", INDEX, parse_query(
            "SELECT SUM(A2) FROM S WHERE A3 > 900"), "S",
         {"index": "index_s"}),
        ("index-foreign", INDEX, sel, "S", {"index": "index_t"}),
        ("pim", PIM, sel, "S", {}),
        ("pim-bare-projection", PIM, q1("A2"), "S", {}),
        ("pim-unknown-column", PIM, q4("A9"), "S", {}),
    ]


@pytest.mark.parametrize("case", matrix_cases(), ids=lambda case: case[0])
def test_priced_if_and_only_if_pinned_execution_succeeds(env, case):
    _id, engine, query, table, names = case
    system, loaded = env["system"], env[table]
    bindings = {key: env[name] for key, name in names.items()}
    processor = Processor(system)
    if query.columns() and all(c in loaded.schema for c in query.columns()):
        choice = processor.plan(query, loaded, selectivity=0.05,
                                **bindings).choice
        priced = engine.access_path in choice.estimates_ns
    else:
        priced = False  # the planner cannot cost a column the table lacks
    before = system.sim.now
    try:
        report = processor.run(query, loaded, engine=engine, **bindings)
    except QueryError as error:
        refusal = str(error)
        assert "\n" not in refusal
        assert system.sim.now == before
        # The engine's own scan refuses a tree placed there anyway, with
        # the same text and before any simulated time passes.
        tree = relation_from_query(query, engine=engine, table=loaded.name)
        with pytest.raises(QueryError) as executed:
            processor.execute(tree, loaded=loaded, **bindings)
        assert str(executed.value) == refusal
        assert system.sim.now == before
        ran = False
    else:
        assert report.result.value == cpu_answer(env, query, loaded)
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
        processor.execute(tree, tables={"L": lhs, "R": rhs})
    assert str(executed.value) == str(planned.value)
    assert system.sim.now == before


# -- every engine returns the same bytes ----------------------------------------


@pytest.mark.parametrize("sql", [
    "SELECT A1, A2 FROM S WHERE A1 > 950",
    "SELECT SUM(A2) FROM S WHERE A1 > 600 GROUP BY A3",
])
def test_every_engine_answers_in_the_same_order(env, sql):
    query = parse_query(sql)
    system, loaded = env["system"], env["S"]
    covering = loaded.schema.covering_columns(query.columns())
    bindings = {"columnar": system.load_column_group(loaded.table, covering),
                "index": env["index_s"]}
    processor = Processor(system)
    answers = {
        engine.name: repr(processor.run(query, loaded, engine=engine,
                                        **bindings).result.value)
        for engine in (CPU, RME, COLUMNAR, INDEX, PIM)
    }
    assert len(set(answers.values())) == 1, answers
