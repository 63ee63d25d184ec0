"""Tests for the cost-based access-path optimizer."""

import pytest

from repro import AccessPath, RelationalMemorySystem, RowTable, choose_access_path, uniform_schema
from repro.query import q1, q4, q7
from repro.query.queries import q3
from tests.conftest import build_relation


@pytest.fixture(scope="module")
def wide_system():
    """A 64-byte-row relation: low projectivity for single columns."""
    system = RelationalMemorySystem()
    return system, system.load_table(build_relation(n_rows=512, n_cols=16))


@pytest.fixture(scope="module")
def loaded_wide(wide_system):
    return wide_system[1]


@pytest.fixture(scope="module")
def copy_a1(wide_system):
    """A columnar copy of the wide relation's A1 alone."""
    system, loaded = wide_system
    return system.load_column_group(loaded.table, ["A1"])


@pytest.fixture(scope="module")
def loaded_narrow():
    """An 8-byte-row relation: projecting both columns = whole row."""
    system = RelationalMemorySystem()
    table = RowTable("narrow", uniform_schema(2, 4))
    for i in range(512):
        table.append([i, -i])
    return system.load_table(table)


def test_low_projectivity_prefers_rme(loaded_wide):
    choice = choose_access_path(q4(), loaded_wide)
    # The in-bank PIM fold may take the overall win for an aggregate;
    # among the paths that stream rows to the CPU, RME's narrow
    # column-group fetch must beat the full-row scan.
    assert choice.best in (AccessPath.RME, AccessPath.PIM)
    assert (choice.estimates_ns[AccessPath.RME]
            < choice.estimates_ns[AccessPath.DIRECT_ROW])
    assert choice.speedup_vs(AccessPath.DIRECT_ROW) > 1.0
    assert choice.reason


def test_full_row_projection_prefers_direct(loaded_narrow):
    query = q3(("A1", "A2"))  # touches the whole 8-byte row
    choice = choose_access_path(query, loaded_narrow)
    assert choice.best is AccessPath.DIRECT_ROW


def test_columnar_estimate_only_when_copy_exists(loaded_wide, copy_a1):
    without = choose_access_path(q1(), loaded_wide)
    assert AccessPath.COLUMNAR not in without.estimates_ns
    with_copy = choose_access_path(q1(), loaded_wide, columnar=copy_a1)
    assert AccessPath.COLUMNAR in with_copy.estimates_ns
    # A copy that lacks a column the query reads is never priced.
    uncovered = choose_access_path(q1("A2"), loaded_wide, columnar=copy_a1)
    assert AccessPath.COLUMNAR not in uncovered.estimates_ns


def test_hot_rme_beats_columnar_estimate(loaded_wide, copy_a1):
    choice = choose_access_path(q1(), loaded_wide, columnar=copy_a1,
                                rme_hot=True)
    assert choice.best in (AccessPath.RME, AccessPath.COLUMNAR)
    ratio = (choice.estimates_ns[AccessPath.RME]
             / choice.estimates_ns[AccessPath.COLUMNAR])
    assert 0.5 < ratio < 2.0  # "same latency" claim


def test_two_pass_query_amortizes_transformation(loaded_wide):
    """Q7's second pass runs hot, making RME still more attractive."""
    one_pass = choose_access_path(q4(), loaded_wide)
    two_pass = choose_access_path(q7(), loaded_wide)

    def rme_speedup(choice):
        # RME's own advantage over the row scan, independent of which
        # path (possibly PIM) won overall.
        return (choice.estimates_ns[AccessPath.DIRECT_ROW]
                / choice.estimates_ns[AccessPath.RME])

    assert rme_speedup(two_pass) >= rme_speedup(one_pass)


def test_speedup_vs_unestimated_path_raises(loaded_wide):
    from repro.errors import QueryError
    choice = choose_access_path(q1(), loaded_wide)
    with pytest.raises(QueryError):
        choice.speedup_vs(AccessPath.COLUMNAR)


def test_estimates_are_positive(loaded_wide, copy_a1):
    choice = choose_access_path(q4(), loaded_wide, columnar=copy_a1)
    assert all(v > 0 for v in choice.estimates_ns.values())
