"""Tests for the benchmark query definitions."""

import pytest

from repro.errors import QueryError
from repro.query import Col, Query, RELATIONAL_MEMORY_BENCHMARK, q1, q2, q3, q4, q5, q6, q7


def test_benchmark_has_seven_queries():
    names = [q.name for q in RELATIONAL_MEMORY_BENCHMARK]
    assert names == ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7"]


def test_column_footprints_match_paper():
    assert set(q1().columns()) == {"A1"}
    assert set(q2().columns()) == {"A1", "A2"}
    assert set(q3().columns()) == {"A1", "A2"}
    assert set(q4().columns()) == {"A1"}
    assert set(q5().columns()) == {"A1", "A2"}
    assert set(q6().columns()) == {"A1", "A2", "A3"}
    assert set(q7().columns()) == {"A1"}


def test_q7_is_two_pass():
    assert q7().passes == 2
    assert all(q.passes == 1 for q in RELATIONAL_MEMORY_BENCHMARK[:6])


def test_sql_strings():
    assert q1().sql == "SELECT A1 FROM S"
    assert "GROUP BY A2" in q6().sql
    assert "STD(A1)" in q7().sql


def test_aggregate_flags():
    assert q1().aggregate is None
    assert q4().aggregate == "sum"
    assert q6().group_by == "A2"


def test_row_compute_cost_scales_with_selectivity():
    query = q5(k=0)
    assert query.row_compute_ns(1.0) > query.row_compute_ns(0.1)
    assert query.row_compute_ns(0.0) == pytest.approx(query.predicate_cost_ns())
    with pytest.raises(QueryError):
        query.row_compute_ns(1.5)


def test_group_by_costs_more_than_plain_aggregate():
    assert q6().work_cost_ns() > q4().work_cost_ns()


def test_projection_cost_counts_materialization():
    assert q3().work_cost_ns() > q1().work_cost_ns()


def test_query_validation():
    with pytest.raises(QueryError):
        Query(name="bad", sql="", select=())
    with pytest.raises(QueryError):
        Query(name="bad", sql="", select=("A1",), aggregate="median",
              agg_expr=Col("A1"))
    with pytest.raises(QueryError):
        Query(name="bad", sql="", select=("A1",), aggregate="sum")
    with pytest.raises(QueryError):
        Query(name="bad", sql="", select=("A1",), passes=0)


def test_columns_deduplicated_stable():
    query = Query(
        name="x", sql="", select=("A2", "A1", "A2"),
        predicate=Col("A1") > 0,
    )
    assert query.columns() == ["A2", "A1"]
