"""Tests for the columnar copy."""

import pytest

from repro.errors import SchemaError
from repro.storage import ColumnTable, RowTable, uniform_schema


def make_row_table(n=8):
    table = RowTable("t", uniform_schema(4, 4))
    for i in range(n):
        table.append([i, i + 100, i - 100, i * 3])
    return table


def test_from_rows_matches_source():
    rows = make_row_table()
    cols = ColumnTable.from_rows(rows)
    assert cols.n_rows == rows.n_rows
    assert cols.column_values("A2") == rows.column_values("A2")
    assert cols.nbytes == rows.nbytes


def test_column_bytes_are_packed():
    rows = make_row_table(4)
    cols = ColumnTable.from_rows(rows)
    a1 = cols.group_bytes(["A1"])
    assert len(a1) == 16
    assert cols.column_values("A1") == [0, 1, 2, 3]


def test_group_bytes_equal_row_projection():
    """The columnar copy's interleaved group == the RME's packed output."""
    rows = make_row_table(16)
    cols = ColumnTable.from_rows(rows)
    assert cols.group_bytes(["A2", "A3"]) == rows.project_bytes(["A2", "A3"])


def test_append_arity_checked():
    cols = ColumnTable("c", uniform_schema(3, 4))
    with pytest.raises(SchemaError):
        cols.append([1, 2])
    cols.append([1, 2, 3])
    assert len(cols) == 1


def test_unknown_column_rejected():
    cols = ColumnTable.from_rows(make_row_table(2))
    with pytest.raises(SchemaError):
        cols.group_bytes(["missing"])
