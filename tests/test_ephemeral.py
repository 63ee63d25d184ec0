"""Tests for ephemeral variables (functional + timing faces)."""

import pytest

from repro import (Column, RelationalMemorySystem, Schema, TransactionManager,
                   VersionedRowTable, int64)
from repro.errors import QueryError


def kv_schema():
    return Schema([Column("key", int64()), Column("val", int64())])


def test_values_match_software_projection(system, loaded):
    var = system.register_var(loaded, ["A2", "A3"])
    assert var.values() == loaded.table.project_values(["A2", "A3"])
    assert len(var) == loaded.table.n_rows


def test_column_accessor(system, loaded):
    var = system.register_var(loaded, ["A2", "A3"])
    assert var.column("A3") == loaded.table.column_values("A3")
    with pytest.raises(QueryError):
        var.column("A1")


def test_getitem_like_listing4(system, loaded):
    var = system.register_var(loaded, ["A1", "A2"])
    assert var[0] == (loaded.table.value(0, "A1"), loaded.table.value(0, "A2"))
    assert var[var.length - 1][0] == loaded.table.value(loaded.table.n_rows - 1, "A1")
    expected = loaded.table.project_values(["A1", "A2"])
    assert [var[i] for i in range(var.length)] == expected
    assert [var[i] for i in range(-var.length, 0)] == expected
    for past_the_end in (var.length, -var.length - 1):
        with pytest.raises(IndexError):
            var[past_the_end]


def test_scan_segment_shape(system, loaded):
    var = system.register_var(loaded, ["A2", "A3"])
    (seg,) = var.scan_segment(compute_ns=1.5)
    assert seg.start == var.region.base
    assert seg.elem_size == 8 and seg.stride == 8
    assert seg.n_elems == loaded.table.n_rows
    assert seg.compute_ns == 1.5
    two = var.scan_segment(0.0, passes=2)
    assert len(two) == 2


def test_mvcc_snapshot_filtering():
    table = VersionedRowTable("v", kv_schema())
    mgr = TransactionManager(table)
    mgr.insert([1, 10])
    ts_before = mgr.now_ts
    mgr.update(1, [1, 11])
    mgr.insert([2, 20])

    system = RelationalMemorySystem()
    loaded = system.load_table(table, manager=mgr)

    current = system.register_var(loaded, ["key", "val"])
    assert sorted(current.values()) == [(1, 11), (2, 20)]

    old = system.register_var(loaded, ["key", "val"], snapshot_ts=ts_before,
                              activate=False)
    assert old.values() == [(1, 10)]


def test_getitem_exposes_physical_slots_for_versioned():
    """Physical indexing sees all versions; values() filters visibility."""
    table = VersionedRowTable("v", kv_schema())
    mgr = TransactionManager(table)
    mgr.insert([1, 10])
    mgr.update(1, [1, 11])
    system = RelationalMemorySystem()
    loaded = system.load_table(table, manager=mgr)
    var = system.register_var(loaded, ["key", "val"])
    assert var[0] == (1, 10)   # superseded version still physically present
    assert var.values() == [(1, 11)]


def test_repr_reports_state(system, loaded):
    var = system.register_var(loaded, ["A1"])
    assert "cold" in repr(var)
    system.warm_up(var)
    assert "hot" in repr(var)
