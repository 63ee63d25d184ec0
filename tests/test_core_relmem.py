"""Tests for the RelationalMemorySystem façade."""

import pytest

from repro import (
    RelationalMemorySystem,
    RowTable,
    TransactionManager,
    VersionedRowTable,
    uniform_schema,
)
from repro.errors import CapacityError, ConfigurationError, SchemaError
from repro.query.executor import QueryExecutor
from repro.query.queries import q1
from repro.rme.designs import MLP
from tests.conftest import build_relation


def test_load_table_copies_bytes(system, relation):
    loaded = system.load_table(relation)
    data = system.memory.read(loaded.base_addr, relation.nbytes)
    assert data == relation.raw_bytes()
    assert system.tables == ["s"]


def test_empty_table_rejected(system):
    empty = RowTable("empty", uniform_schema(2, 4))
    with pytest.raises(ConfigurationError):
        system.load_table(empty)


def test_duplicate_load_rejected(system, relation):
    system.load_table(relation)
    with pytest.raises(ConfigurationError):
        system.load_table(relation)


def test_register_var_geometry(system, loaded):
    var = system.register_var(loaded, ["A2", "A3"])
    assert var.config.col_offset == 4
    assert var.config.col_width == 8
    assert var.config.row_size == 64
    assert var.length == loaded.table.n_rows
    assert var.region.kind == "pl"


def test_register_var_requires_contiguous_columns(system, loaded):
    with pytest.raises(SchemaError):
        system.register_var(loaded, ["A1", "A3"])


def test_warm_up_makes_var_hot(system, loaded):
    var = system.register_var(loaded, ["A1"])
    assert not var.is_hot
    fill_ns = system.warm_up(var)
    assert fill_ns > 0
    assert var.is_hot


def test_activating_other_var_evicts(system, loaded):
    var_a = system.register_var(loaded, ["A1"])
    system.warm_up(var_a)
    var_b = system.register_var(loaded, ["A2"])  # activates B
    assert not var_a.is_hot
    assert system.is_active(var_b)
    # Reactivating A goes cold again (single-projection prototype).
    system.activate(var_a)
    assert not var_a.is_hot


def test_reactivating_active_var_keeps_heat(system, loaded):
    var = system.register_var(loaded, ["A1"])
    system.warm_up(var)
    system.activate(var)  # no-op
    assert var.is_hot


def test_rme_packed_bytes_match_software_projection(system, loaded):
    var = system.register_var(loaded, ["A2", "A3"])
    system.warm_up(var)
    assert system.rme.packed_bytes() == var.expected_packed_bytes()


def test_sync_table_propagates_updates(system, relation):
    loaded = system.load_table(relation)
    relation.update_column(0, "A1", 999_999)
    system.sync_table(loaded)
    var = system.register_var(loaded, ["A1"])
    system.warm_up(var)
    packed = system.rme.packed_bytes()
    assert packed[:4] == (999_999).to_bytes(4, "little", signed=True)


def test_sync_table_makes_the_active_variable_cold(system, loaded):
    # A write synced under a hot variable must not leave the stale
    # projection in the reorganization buffer: the next scan transforms
    # the new bytes cold.
    var = system.register_var(loaded, ["A1"])
    system.warm_up(var)
    assert var.is_hot
    loaded.table.update_column(0, "A1", 999_999)
    system.sync_table(loaded)
    assert not var.is_hot
    executor = QueryExecutor(system)
    result = executor.run_rme(q1("A1"), var)
    assert result.state == "cold"
    assert system.rme.packed_bytes() == var.expected_packed_bytes()
    assert result.value == executor.run_direct(q1("A1"), loaded).value


def test_unsynced_append_blocks_register(system, relation):
    loaded = system.load_table(relation)
    relation.append([0] * 16)
    with pytest.raises(ConfigurationError):
        system.register_var(loaded, ["A1"])


def test_appends_past_region_rejected_on_sync(system):
    table = build_relation(n_rows=8)
    system2 = RelationalMemorySystem()
    loaded = system2.load_table(table)
    for _ in range(64):
        table.append([0] * 16)
    with pytest.raises(CapacityError):
        system2.sync_table(loaded)


def test_projection_over_buffer_capacity(relation):
    system = RelationalMemorySystem(design=MLP, buffer_capacity=256)
    loaded = system.load_table(relation)
    with pytest.raises(CapacityError):
        system.register_var(loaded, ["A1"])  # 256 rows * 4B > 256B


def test_versioned_table_loads_physical_versions(system):
    table = VersionedRowTable("v", uniform_schema(2, 8))
    mgr = TransactionManager(table)
    mgr.insert([1, 10])
    mgr.insert([2, 20])
    mgr.update(1, [1, 11])
    loaded = system.load_table(table, manager=mgr)
    assert loaded.versioned is table
    assert loaded.table.n_rows == 3  # all versions are physical rows
    assert loaded.current_ts() == mgr.now_ts


def test_measure_and_flush(system, loaded):
    from repro.memsys.cpu import ScanSegment
    seg = ScanSegment(loaded.base_addr, 64, 4, 64)
    t_cold = system.measure([seg])
    t_warm = system.measure([seg])
    assert t_warm < t_cold
    system.flush_caches()
    t_again = system.measure([seg])
    assert t_again > t_warm
