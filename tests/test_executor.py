"""Tests for the query executor: functional equality across access paths."""

import statistics

import pytest

from repro import QueryExecutor, RelationalMemorySystem
from repro.errors import QueryError
from repro.query import q1, q2, q3, q4, q5, q6, q7
from tests.conftest import build_relation

ALL_QUERIES = [q1(), q2(k=0), q3(), q4(), q5(k=0), q6(k=0), q7()]


@pytest.fixture(scope="module")
def env():
    table = build_relation(n_rows=128)
    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    columnar = system.load_column_group(table, ["A1", "A2", "A3"])
    executor = QueryExecutor(system)
    return table, system, loaded, columnar, executor


@pytest.mark.parametrize("query", ALL_QUERIES, ids=[q.name for q in ALL_QUERIES])
def test_all_paths_agree_functionally(env, query):
    table, system, loaded, columnar, executor = env
    var = system.register_var(loaded, ["A1", "A2", "A3"])
    direct = executor.run_direct(query, loaded)
    col = executor.run_columnar(query, loaded, columnar)
    rme = executor.run_rme(query, var)
    assert direct.value == col.value == rme.value
    assert direct.rows_scanned == col.rows_scanned == rme.rows_scanned == 128


def test_reference_answers(env):
    table, system, loaded, columnar, executor = env
    a1 = table.column_values("A1")
    assert executor.run_direct(q4(), loaded).value == sum(a1)
    assert executor.run_direct(q7(), loaded).value == pytest.approx(
        statistics.stdev(a1)
    )
    q2_result = executor.run_direct(q2(k=0), loaded)
    expected = [(x,) for x, y in zip(a1, table.column_values("A2")) if y > 0]
    assert q2_result.value == expected


def test_selectivity_reported(env):
    table, system, loaded, columnar, executor = env
    result = executor.run_direct(q5(k=0), loaded)
    kept = sum(1 for v in table.column_values("A1") if v < 0)
    assert result.selectivity == pytest.approx(kept / 128)


def test_rme_cold_then_hot_states(env):
    table, system, loaded, columnar, executor = env
    var = system.register_var(loaded, ["A1"])
    first = executor.run_rme(q4(), var)
    second = executor.run_rme(q4(), var)
    assert first.state == "cold"
    assert second.state == "hot"
    assert second.elapsed_ns < first.elapsed_ns


def test_missing_columns_rejected(env):
    table, system, loaded, columnar, executor = env
    var = system.register_var(loaded, ["A4", "A5"])
    with pytest.raises(QueryError):
        executor.run_rme(q4(), var)  # Q4 needs A1
    with pytest.raises(QueryError):
        executor.run_columnar(q6(k=0), loaded,
                              system.load_column_group(table, ["A1", "A2"]))


def test_result_metadata(env):
    table, system, loaded, columnar, executor = env
    result = executor.run_direct(q1(), loaded)
    assert result.query == "Q1"
    assert result.ns_per_row > 0
    assert set(result.cache_stats) == {"l1", "l2"}


def test_two_pass_query_costs_more_than_one(env):
    table, system, loaded, columnar, executor = env
    one = executor.run_direct(q4(), loaded)
    two = executor.run_direct(q7(), loaded)
    assert two.elapsed_ns > one.elapsed_ns
