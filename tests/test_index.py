"""Tests for the B+-tree index and the hybrid index/scan execution path."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AccessPath,
    Col,
    Query,
    QueryExecutor,
    RelationalMemorySystem,
    choose_access_path,
)
from repro.errors import ConfigurationError, QueryError, SchemaError
from repro.query.expr import Const, key_range
from repro.storage.index import BPlusTreeIndex
from repro.storage.mvcc import TransactionManager, VersionedRowTable
from repro.storage.schema import Column, Schema, int32
from tests.conftest import build_relation


# -- the index structure ----------------------------------------------------------


def build_index(n=500, fanout=16, seed=5):
    table = build_relation(n_rows=n, seed=seed)
    return table, BPlusTreeIndex.build(table, "A1", fanout)


def test_build_and_point_lookup():
    table, index = build_index()
    assert index.n_entries == 500
    for row_idx in (0, 123, 499):
        key = table.value(row_idx, "A1")
        assert row_idx in index.lookup(key)


def test_lookup_missing_key():
    table, index = build_index()
    assert index.lookup(10**9) == []


def test_range_matches_filter():
    table, index = build_index()
    got = sorted(index.range(-100, 100))
    expected = sorted(
        i for i in range(table.n_rows) if -100 <= table.value(i, "A1") <= 100
    )
    assert got == expected


def test_range_exclusive_bounds():
    table, index = build_index()
    inclusive = set(index.range(0, 50, (True, True)))
    exclusive = set(index.range(0, 50, (False, False)))
    boundary = {i for i in range(table.n_rows)
                if table.value(i, "A1") in (0, 50)}
    assert inclusive - exclusive == boundary & inclusive


def test_open_ranges():
    table, index = build_index()
    assert len(index.range(None, None)) == table.n_rows
    below = index.range(None, -500)
    assert all(table.value(i, "A1") <= -500 for i in below)


def test_insert_keeps_sorted_order():
    _table, index = build_index(n=50)
    index.insert(-9999, 50)
    index.insert(9999, 51)
    assert index.range(None, -9998) == [50]
    assert index.range(9998, None) == [51]
    assert index.n_entries == 52


def test_height_and_nodes_scale():
    _t, small = build_index(n=10, fanout=16)
    _t, large = build_index(n=500, fanout=16)
    assert small.height == 1
    # 500 entries -> 32 leaves -> 2 internal nodes -> 1 root: 3 levels.
    assert large.height == 3
    assert large.n_nodes == 32 + 2 + 1
    assert large.nbytes == large.n_nodes * large.node_bytes


def test_probe_offsets_walk_root_to_leaf():
    table, index = build_index(n=500)
    path = index.probe_offsets(0)
    assert len(path) == index.height
    assert len(set(path)) == len(path)  # distinct nodes
    # The last offset is a leaf (level 0 lives at the front of the array).
    assert path[-1] < index.n_leaves * index.node_bytes


def test_leaf_offsets_cover_range():
    table, index = build_index(n=500)
    leaves = index.leaf_offsets_for_range(-100, 100)
    assert leaves == sorted(leaves)
    assert index.leaf_offsets_for_range(10**9, 10**9 + 1) == []


def test_non_numeric_column_rejected():
    from repro.bench.workloads import make_listing1_table
    table = make_listing1_table(10)
    with pytest.raises(QueryError):
        BPlusTreeIndex.build(table, "text_fld1")
    with pytest.raises(SchemaError):
        BPlusTreeIndex.build(table, "missing")


@given(st.lists(st.integers(min_value=-1000, max_value=1000),
                min_size=1, max_size=300),
       st.integers(min_value=-1000, max_value=1000),
       st.integers(min_value=-1000, max_value=1000))
@settings(max_examples=50, deadline=None)
def test_range_property(values, a, b):
    low, high = min(a, b), max(a, b)
    index = BPlusTreeIndex("k", fanout=8)
    for i, v in enumerate(values):
        index.insert(v, i)
    got = sorted(index.range(low, high))
    expected = sorted(i for i, v in enumerate(values) if low <= v <= high)
    assert got == expected


# -- predicate range extraction ------------------------------------------------------


@pytest.mark.parametrize("expr,expected", [
    (Col("k") < 5, (None, 5, (True, False))),
    (Col("k") <= 5, (None, 5, (True, True))),
    (Col("k") > 5, (5, None, (False, True))),
    (Col("k") >= 5, (5, None, (True, True))),
    (Col("k").eq(5), (5, 5, (True, True))),
])
def test_key_range_extraction(expr, expected):
    assert key_range(expr, "k") == expected


def test_key_range_mirrored_comparison():
    expr = Const(5) > Col("k")  # 5 > k  ==  k < 5
    # Const doesn't define comparisons; build via BinOp directly.
    from repro.query.expr import BinOp
    expr = BinOp(">", Const(5), Col("k"))
    assert key_range(expr, "k") == (None, 5, (True, False))


def test_key_range_rejects_complex_predicates():
    assert key_range(Col("j") < 5, "k") is None
    assert key_range((Col("k") < 5).and_(Col("j") > 0), "k") is None
    assert key_range(Col("k") * 2 < 5, "k") is None


# -- the execution path -----------------------------------------------------------------


@pytest.fixture(scope="module")
def indexed_env():
    table = build_relation(n_rows=1024)
    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    index = system.load_index(loaded, "A1")
    return table, system, loaded, index


def selective_query(k):
    return Query(name="sel", sql=f"SELECT SUM(A2) FROM S WHERE A1 < {k}",
                 select=(), aggregate="sum", agg_expr=Col("A2"),
                 predicate=Col("A1") < k)


def test_index_path_functionally_exact(indexed_env):
    table, system, loaded, index = indexed_env
    executor = QueryExecutor(system)
    for k in (-990, 0, 990):
        query = selective_query(k)
        via_index = executor.run_index(query, loaded, index)
        via_scan = executor.run_direct(query, loaded)
        assert via_index.value == via_scan.value
        assert via_index.path is AccessPath.INDEX


def test_index_wins_when_selective(indexed_env):
    table, system, loaded, index = indexed_env
    executor = QueryExecutor(system)
    query = selective_query(-995)
    via_index = executor.run_index(query, loaded, index)
    via_scan = executor.run_direct(query, loaded)
    assert via_index.selectivity < 0.02
    assert via_index.elapsed_ns < via_scan.elapsed_ns / 4


def test_scan_wins_when_unselective(indexed_env):
    table, system, loaded, index = indexed_env
    executor = QueryExecutor(system)
    query = selective_query(995)
    via_index = executor.run_index(query, loaded, index)
    via_scan = executor.run_direct(query, loaded)
    assert via_index.elapsed_ns > via_scan.elapsed_ns


def test_index_requires_indexable_predicate(indexed_env):
    table, system, loaded, index = indexed_env
    executor = QueryExecutor(system)
    from repro import q4
    with pytest.raises(QueryError):
        executor.run_index(q4(), loaded, index)  # no predicate
    bad = Query(name="x", sql="", select=(), aggregate="sum",
                agg_expr=Col("A2"), predicate=Col("A3") < 0)
    with pytest.raises(QueryError):
        executor.run_index(bad, loaded, index)  # predicate on A3, index on A1


def test_optimizer_alternates_with_selectivity(indexed_env):
    table, system, loaded, index = indexed_env
    selective = choose_access_path(selective_query(-990), loaded,
                                   selectivity=0.005, index=index)
    broad = choose_access_path(selective_query(990), loaded,
                               selectivity=0.95, index=index)
    # Few matches: a point-access path (the index probe, or the in-bank
    # PIM fold, which reads out one register line regardless) beats the
    # streaming scans.
    assert selective.best in (AccessPath.INDEX, AccessPath.PIM)
    assert broad.best not in (AccessPath.INDEX,)
    # The index's own crossover: it undercuts every streaming path when
    # few rows match and loses to them when most do.
    assert selective.estimates_ns[AccessPath.INDEX] < min(
        selective.estimates_ns[AccessPath.DIRECT_ROW],
        selective.estimates_ns[AccessPath.RME])
    assert broad.estimates_ns[AccessPath.INDEX] > min(
        broad.estimates_ns[AccessPath.DIRECT_ROW],
        broad.estimates_ns[AccessPath.RME])


def test_index_refuses_versioned_table():
    # The tree would index every physical version while the scan paths
    # answer from the visible ones, so row ids would shift and rows past
    # the visible count would vanish; building it is refused instead.
    table = VersionedRowTable("v", Schema([Column("K", int32()),
                                           Column("V", int32())]))
    manager = TransactionManager(table)
    for key in range(64):
        manager.insert([key, 10 * key])
    for key in range(0, 64, 2):
        manager.update(key, [key, 10 * key + 1])
    system = RelationalMemorySystem()
    loaded = system.load_table(table, manager=manager)
    with pytest.raises(ConfigurationError, match="versioned"):
        system.load_index(loaded, "K")
    executor = QueryExecutor(system)
    point = Query(name="k40", sql="", select=("K", "V"),
                  predicate=Col("K").eq(40))
    assert executor.run_direct(point, loaded).value == [(40, 401)]
