"""Tests for selection and aggregation pushdown (the paper's groundwork
operators, implemented as extensions)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Col,
    HWAggregation,
    HWSelection,
    Query,
    QueryExecutor,
    RelationalMemorySystem,
)
from repro.errors import ConfigurationError, QueryError
from repro.rme.pushdown import AggregateAccumulator
from repro.storage.row_table import RowTable
from tests.conftest import build_mixed_relation, build_relation


def sum_where_query(op=">", k=0):
    return Query(name="q", sql=f"SELECT SUM(A1) FROM S WHERE A2 {op} {k}",
                 select=(), aggregate="sum", agg_expr=Col("A1"),
                 predicate=Col("A2") > k if op == ">" else Col("A2") < k)


@pytest.fixture()
def env():
    table = build_relation(n_rows=512)
    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    return table, system, loaded, QueryExecutor(system)


# -- HWSelection mechanics -------------------------------------------------------


def test_hw_selection_matches():
    sel = HWSelection(field_offset=4, field_width=4, op=">", constant=10)
    row = (5).to_bytes(4, "little", signed=True) + (11).to_bytes(4, "little", signed=True)
    assert sel.matches(row)
    row = (5).to_bytes(4, "little", signed=True) + (10).to_bytes(4, "little", signed=True)
    assert not sel.matches(row)


def test_hw_selection_signed_values():
    sel = HWSelection(field_offset=0, field_width=4, op="<", constant=0)
    assert sel.matches((-1).to_bytes(4, "little", signed=True))
    assert not sel.matches((1).to_bytes(4, "little", signed=True))


@pytest.mark.parametrize("kwargs", [
    dict(field_offset=0, field_width=3, op="<", constant=0),   # odd width
    dict(field_offset=6, field_width=4, op="<", constant=0),   # outside group
    dict(field_offset=0, field_width=4, op="~", constant=0),   # bad op
])
def test_hw_selection_validation(kwargs):
    with pytest.raises(ConfigurationError):
        HWSelection(**kwargs).validate(group_width=8)


def test_accumulator_funcs():
    def run(func, rows):
        acc = AggregateAccumulator(
            HWAggregation(func=func, field_offset=0, field_width=4)
        )
        for value in rows:
            acc.feed(value.to_bytes(4, "little", signed=True))
        return acc.result()

    assert run("sum", [1, 2, 3]) == 6
    assert run("count", [5, 5]) == 2
    assert run("min", [4, -2, 9]) == -2
    assert run("max", [4, -2, 9]) == 9


def test_accumulator_empty_aggregate_errors():
    acc = AggregateAccumulator(
        HWAggregation(func="min", field_offset=0, field_width=4)
    )
    with pytest.raises(ConfigurationError):
        acc.result()
    assert AggregateAccumulator(
        HWAggregation(func="count", field_offset=0, field_width=4)
    ).result() == 0


# -- selection pushdown end to end -------------------------------------------------


def test_filtered_view_packs_only_matching_rows(env):
    table, system, loaded, executor = env
    fvar = system.register_filtered_var(loaded, ["A1", "A2"], "A2", ">", 0)
    system.warm_up(fvar)
    expected = [(a, b) for a, b in table.project_values(["A1", "A2"]) if b > 0]
    assert fvar.values() == expected
    assert fvar.matched_length == len(expected)
    assert system.rme.match_count == len(expected)
    schema = table.schema
    packed = b"".join(
        schema.column("A1").ctype.pack(a) + schema.column("A2").ctype.pack(b)
        for a, b in expected
    )
    assert system.rme.packed_bytes() == packed


def test_filtered_view_order_preserved_under_mlp(env):
    """16 out-of-order fetch units, yet the output stays in row order."""
    table, system, loaded, executor = env
    fvar = system.register_filtered_var(loaded, ["A3"], "A3", "<", 0)
    system.warm_up(fvar)
    expected = [v for v in table.column_values("A3") if v < 0]
    assert [row[0] for row in fvar.values()] == expected


def test_pushdown_query_agrees_with_software_paths(env):
    table, system, loaded, executor = env
    query = sum_where_query()
    direct = executor.run_direct(query, loaded)
    fvar = system.register_filtered_var(loaded, ["A1", "A2"], "A2", ">", 0)
    hw = executor.run_rme_pushdown(query, fvar)
    assert hw.value == direct.value
    assert hw.state == "cold"
    again = executor.run_rme_pushdown(query, fvar)
    assert again.state == "hot"
    assert again.elapsed_ns < hw.elapsed_ns


def test_each_pushdown_scan_builds_its_packed_view_once(env, monkeypatch):
    """The answer and the timing's row count come from one packed view."""
    table, system, loaded, executor = env
    builds = []
    project_bytes = RowTable.project_bytes

    def counted(self, *args, **kwargs):
        builds.append(self.name)
        return project_bytes(self, *args, **kwargs)

    monkeypatch.setattr(RowTable, "project_bytes", counted)
    fvar = system.register_filtered_var(loaded, ["A1", "A2"], "A2", ">", 0)
    gvar = system.register_hw_group_by(loaded, "A1", "A2", max_groups=4096)
    for scan in (lambda: executor.run_rme_pushdown(sum_where_query(), fvar),
                 lambda: executor.run_rme_hw_group_by(gvar)):
        for state in ("cold", "hot"):
            builds.clear()
            assert scan().state == state
            assert len(builds) == 1


def test_hot_pushdown_beats_software_selection(env):
    """Once warm, scanning only matching rows moves less data."""
    table, system, loaded, executor = env
    query = sum_where_query()
    var = system.register_var(loaded, ["A1", "A2"])
    system.warm_up(var)
    system.flush_caches()
    sw = executor.run_rme(query, var, flush=True)
    fvar = system.register_filtered_var(loaded, ["A1", "A2"], "A2", ">", 0)
    system.warm_up(fvar)
    hw = executor.run_rme_pushdown(query, fvar, flush=True)
    assert hw.value == sw.value
    assert hw.elapsed_ns < sw.elapsed_ns


def test_zero_matches_finalises_cleanly(env):
    table, system, loaded, executor = env
    fvar = system.register_filtered_var(loaded, ["A1"], "A1", ">", 10**9)
    system.warm_up(fvar)
    assert system.rme.match_count == 0
    assert fvar.values() == []
    assert system.rme.is_hot  # every (zero-target) line is complete


def test_predicate_column_must_be_in_group(env):
    table, system, loaded, executor = env
    with pytest.raises(ConfigurationError):
        system.register_filtered_var(loaded, ["A1", "A2"], "A5", ">", 0)


def test_run_rme_pushdown_type_checked(env):
    table, system, loaded, executor = env
    var = system.register_var(loaded, ["A1", "A2"])
    with pytest.raises(QueryError):
        executor.run_rme_pushdown(sum_where_query(), var)


# -- aggregation pushdown end to end ---------------------------------------------------


@pytest.mark.parametrize("func", ["sum", "count", "min", "max"])
def test_hw_aggregate_matches_software(env, func):
    table, system, loaded, executor = env
    avar = system.register_hw_aggregate(loaded, "A1", func)
    result = executor.run_rme_hw_aggregate(avar)
    values = table.column_values("A1")
    expected = {"sum": sum(values), "count": len(values),
                "min": min(values), "max": max(values)}[func]
    assert result.value == expected
    assert system.rme.aggregate_result() == expected


def test_hw_aggregate_with_predicate(env):
    table, system, loaded, executor = env
    avar = system.register_hw_aggregate(loaded, "A1", "sum",
                                        predicate_column="A2", op="<", constant=0)
    result = executor.run_rme_hw_aggregate(avar)
    expected = sum(a for a, b in table.project_values(["A1", "A2"]) if b < 0)
    assert result.value == expected


def test_hw_aggregate_register_read_is_one_line(env):
    table, system, loaded, executor = env
    avar = system.register_hw_aggregate(loaded, "A1", "sum")
    cold = executor.run_rme_hw_aggregate(avar)
    hot = executor.run_rme_hw_aggregate(avar)
    # Cold pays the fetch stream; hot is a single trapper hit.
    assert hot.elapsed_ns < 500
    assert cold.elapsed_ns > 10 * hot.elapsed_ns


@pytest.mark.parametrize("func", ["sum", "count", "min", "max"])
def test_hw_aggregate_over_no_matching_rows(env, func):
    """An empty SUM/MIN/MAX has no value and says so; COUNT is 0."""
    table, system, loaded, executor = env
    avar = system.register_hw_aggregate(loaded, "A1", func, predicate_column="A2",
                                        op=">", constant=2 ** 40)
    if func == "count":
        assert executor.run_rme_hw_aggregate(avar).value == 0
    else:
        with pytest.raises(QueryError, match=f"PL {func} aggregate saw no matching rows"):
            executor.run_rme_hw_aggregate(avar)


def test_hw_aggregate_predicate_needs_op_and_constant(env):
    table, system, loaded, executor = env
    with pytest.raises(ConfigurationError):
        system.register_hw_aggregate(loaded, "A1", "sum", predicate_column="A2")


@pytest.mark.parametrize("flavour", ["aggregate", "group_by"])
@pytest.mark.parametrize("given_parts,missing", [
    (dict(op=">", constant=0), "predicate_column"),
    (dict(op=">"), "predicate_column, constant"),
    (dict(constant=0), "predicate_column, op"),
], ids=["op-and-constant", "op-only", "constant-only"])
def test_partial_pushdown_predicate_is_refused(env, flavour, given_parts, missing):
    """A predicate missing its column, op or constant is an error, never
    a silently unfiltered reduction."""
    table, system, loaded, executor = env
    register = {
        "aggregate": lambda: system.register_hw_aggregate(
            loaded, "A1", "sum", **given_parts),
        "group_by": lambda: system.register_hw_group_by(
            loaded, "A1", "A2", **given_parts),
    }[flavour]
    with pytest.raises(ConfigurationError, match=f"missing {missing}$"):
        register()


def test_pushdown_incompatible_with_windowed(env):
    table, system, loaded, executor = env
    fvar = system.register_filtered_var(loaded, ["A1"], "A1", ">", 0,
                                        activate=False)
    fvar.windowed = True
    with pytest.raises(ConfigurationError):
        system.activate(fvar)


@given(st.integers(min_value=-1000, max_value=1000),
       st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
@settings(max_examples=15, deadline=None)
def test_pushdown_selection_property(constant, op):
    table = build_relation(n_rows=96, seed=constant & 0xFF)
    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    fvar = system.register_filtered_var(loaded, ["A1", "A2"], "A1", op, constant)
    system.warm_up(fvar)
    import operator
    py_op = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
             ">=": operator.ge, "==": operator.eq, "!=": operator.ne}[op]
    expected = [
        (a, b) for a, b in table.project_values(["A1", "A2"])
        if py_op(a, constant)
    ]
    assert fvar.values() == expected
    assert system.rme.match_count == len(expected)


def test_pushdown_rejected_on_versioned_tables():
    """The PL comparator has no snapshot awareness; fail loudly."""
    from repro import (Column, Schema, TransactionManager, VersionedRowTable,
                       int64)
    table = VersionedRowTable(
        "v", Schema([Column("key", int64()), Column("val", int64())])
    )
    manager = TransactionManager(table)
    manager.insert([1, 10])
    system = RelationalMemorySystem()
    loaded = system.load_table(table, manager=manager)
    with pytest.raises(ConfigurationError):
        system.register_filtered_var(loaded, ["key", "val"], "val", ">", 0)
    with pytest.raises(ConfigurationError):
        system.register_hw_aggregate(loaded, "val", "sum")


@pytest.mark.parametrize("register", [
    lambda system, t: system.register_filtered_var(t, ["U"], "U", ">", 3_000_000_060),
    lambda system, t: system.register_hw_aggregate(t, "U", "max"),
    lambda system, t: system.register_hw_aggregate(t, "F", "sum"),
    lambda system, t: system.register_hw_aggregate(t, "A1", "sum", "F", "<", 2),
    lambda system, t: system.register_hw_group_by(t, "A1", "U"),
    lambda system, t: system.register_hw_group_by(t, "F", "A1"),
    lambda system, t: system.register_semijoin_var(t, ["F", "U"], "U", {1}),
], ids=["filter-uint32", "max-uint32", "sum-float64", "predicate-float64",
        "group-key-uint32", "group-agg-float64", "join-key-uint32"])
def test_pushdown_refuses_fields_it_cannot_read(register):
    system = RelationalMemorySystem()
    loaded = system.load_table(build_mixed_relation())
    with pytest.raises(ConfigurationError, match="read only signed integer"):
        register(system, loaded)
