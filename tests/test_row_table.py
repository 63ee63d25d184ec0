"""Tests for the row-store."""

import pytest

from repro.errors import SchemaError
from repro.storage import Column, RowTable, Schema, char, int32, int64, uniform_schema


def make_table(n=10):
    table = RowTable("t", uniform_schema(4, 4))
    for i in range(n):
        table.append([i, i * 10, -i, i * i])
    return table


def test_append_and_read():
    table = make_table(5)
    assert table.n_rows == 5
    assert len(table) == 5
    assert table.row(3) == (3, 30, -3, 9)
    assert table.value(4, "A2") == 40
    assert table.nbytes == 5 * 16


def test_scan_order():
    table = make_table(4)
    assert [row[0] for row in table.scan()] == [0, 1, 2, 3]


def test_extend():
    table = RowTable("t", uniform_schema(2, 4))
    table.extend([[i, -i] for i in range(3)])
    assert table.n_rows == 3


def test_update_row_and_column():
    table = make_table(3)
    table.update(1, [100, 200, 300, 400])
    assert table.row(1) == (100, 200, 300, 400)
    table.update_column(1, "A3", -7)
    assert table.row(1) == (100, 200, -7, 400)


def test_bounds_checked():
    table = make_table(2)
    with pytest.raises(SchemaError):
        table.row(2)
    with pytest.raises(SchemaError):
        table.update(-1, [0, 0, 0, 0])


def test_column_values():
    table = make_table(4)
    assert table.column_values("A2") == [0, 10, 20, 30]


def char_table(n):
    """A CHAR column between numeric ones, and one at the row's end."""
    schema = Schema([Column("key", int64()), Column("txt", char(8)),
                     Column("num", int32()), Column("tag", char(3))])
    table = RowTable("chars", schema)
    for i in range(n):
        table.append([i - 3, b"row%d" % i, i * 7, b"t%d" % (i % 10)])
    return table


def wide_int_table(n):
    """28-B rows, int32 and int64 fields: elements off the 8-B grid."""
    schema = Schema([Column("A1", int32()), Column("A2", int64()),
                     Column("A3", int32()), Column("A4", int64()),
                     Column("A5", int32())])
    table = RowTable("m", schema)
    for i in range(n):
        table.append([i * 7 - 500, i * 13 - 2**40, -i, i * 3, i % 11])
    return table


#: name -> (table, a contiguous group, a group of two or more runs).
PROJECTIONS = {
    "uniform": (lambda: make_table(8), ["A2", "A3"], ["A1", "A3"]),
    "char": (lambda: char_table(6), ["txt", "num"], ["key", "num", "tag"]),
    "int64-28B": (lambda: wide_int_table(9), ["A2", "A3", "A4"],
                  ["A2", "A4"]),
    "one-row": (lambda: make_table(1), ["A4"], ["A1", "A4"]),
    "empty": (lambda: make_table(0), ["A1", "A2"], ["A2", "A4"]),
}


def manual_projection(table, columns):
    """Each row's requested fields, sliced one by one in schema order."""
    raw = table.raw_bytes()
    fields = [(table.schema.offset_of(col.name), col.size)
              for col in table.schema.columns if col.name in columns]
    return b"".join(
        raw[row * table.row_size + offset:][:size]
        for row in range(table.n_rows) for offset, size in fields
    )


@pytest.mark.parametrize("name", sorted(PROJECTIONS))
def test_project_bytes_equals_manual_slicing(name):
    build, group, _runs = PROJECTIONS[name]
    table = build()
    assert len(table.schema.column_runs(group)) == 1
    packed = table.project_bytes(group)
    assert packed == manual_projection(table, group)
    width = sum(table.schema.column(c).size for c in group)
    assert len(packed) == width * table.n_rows
    if name == "uniform":
        raw = table.raw_bytes()
        assert packed == b"".join(raw[i * 16 + 4 : i * 16 + 12]
                                  for i in range(8))


def test_project_values_any_order():
    table = make_table(3)
    assert table.project_values(["A3", "A1"]) == [(0, 0), (-1, 1), (-2, 2)]


@pytest.mark.parametrize("name", sorted(PROJECTIONS))
def test_project_bytes_noncontiguous_packs_runs(name):
    build, _group, group = PROJECTIONS[name]
    table = build()
    assert len(table.schema.column_runs(group)) >= 2
    assert table.project_bytes(group) == manual_projection(table, group)
    if name == "uniform":
        raw = table.raw_bytes()
        assert table.project_bytes(group) == b"".join(
            raw[i * 16 : i * 16 + 4] + raw[i * 16 + 8 : i * 16 + 12]
            for i in range(8)
        )


def test_mixed_schema_listing1_style():
    schema = Schema([Column("key", int64()), Column("txt", char(8)), Column("num", int32())])
    table = RowTable("mixed", schema)
    table.append([1, b"hello", 42])
    assert table.row(0) == (1, b"hello\x00\x00\x00", 42)
    assert table.value(0, "num") == 42
