"""Tests for the non-contiguous (multi-run) column-group extension."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RelationalMemorySystem, RMEConfig
from repro.bench.workloads import make_listing1_table
from repro.errors import ConfigurationError, GeometryError, SchemaError
from repro.rme import TableGeometry
from tests.conftest import build_relation


def listing2_config(n_rows=32) -> RMEConfig:
    """Listing 2's group over the 96-byte Listing 1 row: num_fld1 (offset
    64, 8 bytes) and num_fld3+num_fld4 (offset 80, 16 bytes)."""
    return RMEConfig(row_size=96, row_count=n_rows, runs=((64, 8), (80, 16)))


# -- configuration -----------------------------------------------------------------


def test_config_derived_quantities():
    cfg = listing2_config()
    assert cfg.col_width == 24
    assert cfg.col_offset == 64
    assert cfg.projected_bytes == 24 * 32
    assert cfg.projectivity == pytest.approx(24 / 96)
    assert len(cfg.runs) == 2


def test_config_register_file_extends_table1():
    writes = dict(listing2_config().register_writes(base=0))
    assert writes[0x00] == 96 and writes[0x04] == 32
    assert writes[0x08] == 8 and writes[0x0C] == 64     # run 0: width, offset
    assert writes[0x10] == 16 and writes[0x14] == 80    # run 1


@pytest.mark.parametrize("runs", [
    (),                       # empty
    ((0, 0),),                # zero width
    ((90, 16),),              # past the row end
    ((16, 8), (0, 8)),        # unsorted
    ((0, 8), (4, 8)),         # overlapping
])
def test_config_validation_rejects(runs):
    with pytest.raises(ConfigurationError):
        RMEConfig(row_size=96, row_count=4, runs=runs).validate()


def test_from_single_round_trips_table1():
    single = RMEConfig(row_size=64, row_count=10, runs=((12, 4),))
    assert single.runs == ((12, 4),)
    assert single.col_width == 4
    assert single.projected_bytes == 40


# -- geometry -------------------------------------------------------------------------


def test_descriptors_per_row_and_run():
    geometry = TableGeometry(listing2_config(n_rows=3), base_addr=0)
    descs = list(geometry.descriptors())
    assert len(descs) == 6  # 3 rows x 2 runs
    first_row = descs[:2]
    assert first_row[0].w_addr == 0 and first_row[0].col_width == 8
    assert first_row[1].w_addr == 8 and first_row[1].col_width == 16
    second_row = descs[2:4]
    assert second_row[0].w_addr == 24  # dense packing continues


@pytest.mark.parametrize("runs", [
    ((0, 0),),                # zero-width run
    ((8, 0), (16, 8)),        # zero width hiding among valid runs
    ((0, 8), (4, 8)),         # overlapping runs
    ((0, 16), (8, 8)),        # second run starts inside the first
    ((96, 4),),               # starts past the row end
    ((80, 32),),              # extends past the row end
])
def test_geometry_construction_rejects_bad_runs(runs):
    """Building a geometry over an invalid run list must raise — the
    descriptor generator never sees a zero-width, overlapping or
    out-of-row run."""
    config = RMEConfig(row_size=96, row_count=8, runs=runs)
    with pytest.raises((GeometryError, ConfigurationError)):
        TableGeometry(config, base_addr=0)


def test_geometry_rejects_nonpositive_row_shape():
    with pytest.raises((GeometryError, ConfigurationError)):
        TableGeometry(
            RMEConfig(row_size=0, row_count=4, runs=((0, 4),)),
            base_addr=0,
        )
    with pytest.raises((GeometryError, ConfigurationError)):
        TableGeometry(
            RMEConfig(row_size=96, row_count=0, runs=((0, 4),)),
            base_addr=0,
        )


@pytest.mark.parametrize("base_addr,bus_bytes", [
    (-16, 16),   # negative base
    (0, 0),      # zero bus
    (0, 24),     # non-power-of-two bus
    (8, 16),     # misaligned base
])
def test_geometry_rejects_bad_placement(base_addr, bus_bytes):
    with pytest.raises(GeometryError):
        TableGeometry(
            listing2_config(n_rows=4), base_addr=base_addr,
            bus_bytes=bus_bytes,
        )


def test_geometry_bounds_checked():
    geometry = TableGeometry(listing2_config(n_rows=2), base_addr=0)
    with pytest.raises(GeometryError):
        geometry.descriptor(2, 0)
    with pytest.raises(GeometryError):
        geometry.descriptor(0, 2)


# -- end to end -------------------------------------------------------------------------


def test_listing2_projection_matches_software():
    table = make_listing1_table(64)
    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    var = system.register_var(
        loaded, ["num_fld1", "num_fld3", "num_fld4"], allow_noncontiguous=True
    )
    assert var.width == 8 + 8 + 8
    system.warm_up(var)
    assert system.rme.packed_bytes() == table.project_bytes(
        ["num_fld1", "num_fld3", "num_fld4"]
    )


def test_values_match_subset_projection():
    table = make_listing1_table(16)
    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    var = system.register_var(
        loaded, ["key", "num_fld2"], allow_noncontiguous=True
    )
    assert var.values() == table.project_values(["key", "num_fld2"])


def test_default_still_rejects_noncontiguous(system, loaded):
    with pytest.raises(SchemaError):
        system.register_var(loaded, ["A1", "A3"])


def test_contiguous_group_ignores_flag(system, loaded):
    var = system.register_var(loaded, ["A1", "A2"], allow_noncontiguous=True)
    assert var.config.runs == ((0, 8),)  # single run stays on Table 1


def test_gaps_cost_fill_time():
    """Two descriptors per row make the cold fill slower than one covering
    run — the throughput trade-off of the extension."""
    def fill_time(columns, allow):
        table = build_relation(n_rows=256)
        system = RelationalMemorySystem()
        loaded = system.load_table(table)
        var = system.register_var(loaded, columns, allow_noncontiguous=allow)
        return system.warm_up(var)

    gaps = fill_time(["A1", "A3"], True)
    covering = fill_time(["A1", "A2", "A3"], False)
    assert gaps > covering


@st.composite
def sparse_groups(draw):
    n_cols = draw(st.integers(min_value=3, max_value=12))
    picked = draw(st.lists(st.integers(min_value=0, max_value=n_cols - 1),
                           min_size=1, max_size=n_cols, unique=True))
    n_rows = draw(st.integers(min_value=1, max_value=24))
    return n_cols, sorted(picked), n_rows


@given(sparse_groups())
@settings(max_examples=25, deadline=None)
def test_multirun_projection_property(params):
    n_cols, picked, n_rows = params
    table = build_relation(n_rows=n_rows, n_cols=n_cols, col_width=4)
    columns = [f"A{i + 1}" for i in picked]
    system = RelationalMemorySystem()
    loaded = system.load_table(table)
    var = system.register_var(loaded, columns, allow_noncontiguous=True)
    system.warm_up(var)
    assert system.rme.packed_bytes() == table.project_bytes(columns)
    assert var.values() == table.project_values(columns)
