"""Tests for column types, schemas, the row codec and the row decoder."""

import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.storage import (
    Column,
    RowTable,
    Schema,
    TransactionManager,
    VersionedRowTable,
    char,
    float64,
    int32,
    int64,
    listing1_schema,
    uint32,
    uniform_schema,
)
from repro.storage.schema import intn


# -- column types ----------------------------------------------------------------


@pytest.mark.parametrize("ctype,value", [
    (int64(), -123456789),
    (int32(), -42),
    (uint32(), 4_000_000_000),
    (float64(), 3.14159),
])
def test_numeric_roundtrip(ctype, value):
    assert ctype.unpack(ctype.pack(value)) == value
    assert len(ctype.pack(value)) == ctype.size
    assert ctype.is_numeric


def test_char_roundtrip_pads():
    c = char(8)
    assert c.pack(b"abc") == b"abc\x00\x00\x00\x00\x00"
    assert c.unpack(b"abc\x00\x00\x00\x00\x00") == b"abc\x00\x00\x00\x00\x00"
    assert not c.is_numeric
    with pytest.raises(SchemaError):
        c.pack(b"way too long for 8")


@pytest.mark.parametrize("width", [1, 2, 3, 4, 6, 8, 16])
def test_intn_any_width_roundtrip(width):
    t = intn(width)
    assert t.size == width
    bound = (1 << (8 * width - 1)) - 1
    for value in (-bound, -1, 0, 1, bound):
        assert t.unpack(t.pack(value)) == value


def test_unpack_wrong_size_rejected():
    with pytest.raises(SchemaError):
        int32().unpack(b"\x00" * 8)


# -- schemas -----------------------------------------------------------------------


def test_offsets_accumulate_without_padding():
    schema = Schema([Column("a", int64()), Column("b", char(12)), Column("c", int32())])
    assert schema.offset_of("a") == 0
    assert schema.offset_of("b") == 8
    assert schema.offset_of("c") == 20
    assert schema.row_size == 24


def test_listing1_layout_matches_paper():
    schema = listing1_schema()
    assert schema.row_size == 96
    assert schema.offset_of("key") == 0
    assert schema.offset_of("num_fld1") == 64
    assert schema.offset_of("num_fld4") == 88
    # Listing 2's ephemeral group: num_fld1..num_fld3 is contiguous,
    offset, width = schema.column_group(["num_fld1", "num_fld2", "num_fld3"])
    assert (offset, width) == (64, 24)


def test_duplicate_and_unknown_columns():
    with pytest.raises(SchemaError):
        Schema([Column("a", int32()), Column("a", int32())])
    schema = Schema([Column("a", int32())])
    with pytest.raises(SchemaError):
        schema.offset_of("b")
    with pytest.raises(SchemaError):
        schema.column("b")
    with pytest.raises(SchemaError):
        schema.index_of("b")


def test_empty_schema_rejected():
    with pytest.raises(SchemaError):
        Schema([])


def test_column_group_contiguity_enforced():
    schema = uniform_schema(8, 4)
    offset, width = schema.column_group(["A2", "A3", "A4"])
    assert (offset, width) == (4, 12)
    # Any order is fine, as long as positions are consecutive.
    assert schema.column_group(["A4", "A2", "A3"]) == (4, 12)
    with pytest.raises(SchemaError):
        schema.column_group(["A1", "A3"])  # gap at A2
    with pytest.raises(SchemaError):
        schema.column_group([])
    with pytest.raises(SchemaError):
        schema.column_group(["A1", "A1"])


def test_group_schema_in_schema_order():
    schema = uniform_schema(8, 4)
    group = schema.group_schema(["A3", "A2"])
    assert group.names == ["A2", "A3"]
    assert group.row_size == 8


def test_pack_unpack_row_roundtrip():
    schema = Schema([Column("k", int64()), Column("t", char(4)), Column("v", int32())])
    row = (7, b"ab\x00\x00", -5)
    packed = schema.pack_row(row)
    assert len(packed) == schema.row_size
    assert schema.unpack_row(packed) == row


def test_schema_pickles_after_using_its_codec():
    # The compiled records and packer hold struct.Struct objects, which
    # do not pickle; a table that has packed rows must still travel to a
    # worker.
    schema = Schema([Column("k", int64()), Column("v", int32())])
    rows = [(7, -5), (-(2 ** 63), 2 ** 31 - 1)]
    packed = [schema.pack_row(row) for row in rows]
    assert [schema.unpack_row(data) for data in packed] == rows
    copy = pickle.loads(pickle.dumps(schema))
    assert [copy.unpack_row(data) for data in packed] == rows
    assert [copy.pack_row(row) for row in rows] == packed


def test_pack_row_arity_checked():
    schema = uniform_schema(4, 4)
    with pytest.raises(SchemaError):
        schema.pack_row([1, 2, 3])
    with pytest.raises(SchemaError):
        schema.unpack_row(b"\x00" * 3)


def _per_field(schema, values):
    """The reference encoding: one ``ColumnType.pack`` per column, joined."""
    return b"".join(
        col.ctype.pack(value) for col, value in zip(schema.columns, values)
    )


#: Boundary values per numeric type the one-struct packer handles.
_BOUNDARIES = [
    (intn(1), (-128, -1, 0, 1, 127)),
    (intn(2), (-32768, -1, 0, 32767)),
    (int32(), (-(2 ** 31), -1, 0, 2 ** 31 - 1)),
    (uint32(), (0, 1, 2 ** 32 - 1)),
    (int64(), (-(2 ** 63), -1, 0, 2 ** 63 - 1)),
    (float64(), (-0.0, 5e-324, -1.5, 1.7976931348623157e308, float("inf"))),
]


@pytest.mark.parametrize("ctype,values", _BOUNDARIES,
                         ids=[ctype.name for ctype, _ in _BOUNDARIES])
def test_pack_row_one_struct_matches_per_field(ctype, values):
    schema = Schema([Column(f"c{i}", ctype) for i in range(len(values))])
    assert schema.packer is not None
    packed = schema.pack_row(values)
    assert packed == _per_field(schema, values)
    assert schema.unpack_row(packed) == tuple(values)


def test_pack_row_mixed_numeric_row_matches_per_field():
    schema = Schema([Column(f"c{i}", ctype)
                     for i, (ctype, _) in enumerate(_BOUNDARIES)])
    for pick in (0, -1):
        row = [values[pick] for _, values in _BOUNDARIES]
        assert schema.pack_row(row) == _per_field(schema, row)


@pytest.mark.parametrize("ctype,bad", [
    (intn(1), 128), (intn(2), -32769), (int32(), 2 ** 31),
    (uint32(), -1), (int64(), 2 ** 63), (int32(), 1.5),
])
def test_pack_row_out_of_range_raises_struct_error(ctype, bad):
    schema = Schema([Column("a", ctype), Column("b", ctype)])
    with pytest.raises(struct.error):
        schema.pack_row([0, bad])
    with pytest.raises(struct.error):
        _per_field(schema, [0, bad])


def test_pack_row_char_and_raw_int_schemas_pack_per_field():
    # struct's "ns" would silently truncate an oversized CHAR(n) value,
    # so any schema with a CHAR(n) or arbitrary-width column keeps the
    # per-field path and its SchemaError.
    schema = Schema([Column("k", int64()), Column("t", char(4))])
    assert schema.packer is None
    assert schema.pack_row([1, b"ab"]) == _per_field(schema, [1, b"ab"])
    with pytest.raises(SchemaError):
        schema.pack_row([1, b"too long"])
    wide = Schema([Column("a", intn(3)), Column("b", int32())])
    assert wide.packer is None
    assert wide.pack_row([-5, 7]) == _per_field(wide, [-5, 7])


def test_pack_row_arity_checked_on_the_one_struct_path():
    schema = uniform_schema(4, 4)
    assert schema.packer is not None
    for values in ([1, 2, 3], [1, 2, 3, 4, 5]):
        with pytest.raises(SchemaError):
            schema.pack_row(values)


def test_uniform_schema_shape():
    schema = uniform_schema(16, 4)
    assert len(schema) == 16
    assert schema.row_size == 64
    assert schema.names[0] == "A1" and schema.names[-1] == "A16"
    assert "A5" in schema and "B1" not in schema


# -- the record against the per-field reference ---------------------------------------


def _signed(ctype):
    bound = 1 << (8 * ctype.size - 1)
    return ctype, st.integers(-bound, bound - 1)


_FLOATS = st.floats(allow_nan=False) | st.sampled_from(
    [-0.0, float("inf"), float("-inf"), 5e-324, -1.5e-310]
)

#: (column type, value strategy) for every type the record decodes.
_FIELDS = st.one_of(
    st.sampled_from([intn(1), intn(2), int32(), int64(),
                     intn(3), intn(5), intn(7)]).map(_signed),
    st.just((uint32(), st.integers(0, 2 ** 32 - 1))),
    st.just((float64(), _FLOATS)),
    st.integers(1, 9).map(lambda n: (char(n), st.binary(max_size=n))),
)


def _unpack_fields(schema, data, base, names):
    """The reference decode: one ``ColumnType.unpack`` per named field."""
    values = []
    for name in names:
        start = base + schema.offset_of(name)
        column = schema.column(name)
        values.append(column.ctype.unpack(bytes(data[start:start + column.size])))
    return tuple(values)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_record_matches_the_per_field_reference(data):
    fields = data.draw(st.lists(_FIELDS, min_size=1, max_size=12))
    schema = Schema([Column(f"c{i}", ctype) for i, (ctype, _) in enumerate(fields)])
    row_values = st.tuples(*(values for _ctype, values in fields))
    rows = data.draw(st.lists(row_values, max_size=6, unique_by=lambda r: r[0]))
    names = data.draw(st.lists(st.sampled_from(schema.names), max_size=16))

    table = RowTable("t", schema)
    table.extend(rows)
    raw = table.raw_bytes()
    size = schema.row_size
    expected = [_unpack_fields(schema, raw, base, names)
                for base in range(0, len(raw), size)]
    record = schema.record(names)
    assert schema.record(names) is record
    # repr() tells -0.0 from 0.0; equality does not.
    assert repr(list(record.rows(raw))) == repr(expected)
    assert repr([record.row(raw, base) for base in range(0, len(raw), size)]) \
        == repr(expected)

    # MVCC visibility reads only the two timestamps; the reference decodes
    # each whole physical row field by field.
    versioned = VersionedRowTable("v", schema)
    manager = TransactionManager(versioned)
    keys = [row[0] for row in rows]
    for row in rows:
        manager.insert(row)
    if keys:
        ops = data.draw(st.lists(st.tuples(
            st.sampled_from(["update", "delete"]),
            st.integers(0, len(keys) - 1), row_values), max_size=8))
        for op, pick, values in ops:
            key = keys[pick]
            values = (key,) + values[1:]
            if versioned.live_version_of(key) is None:
                manager.insert(values)
            elif op == "delete":
                manager.delete(key)
            else:
                manager.update(key, values)
    physical = versioned.table.schema
    raw = versioned.table.raw_bytes()
    whole = [_unpack_fields(physical, raw, base, physical.names)
             for base in range(0, len(raw), physical.row_size)]
    for ts in range(manager.now_ts + 2):
        mask = [row[-2] <= ts < row[-1] for row in whole]
        assert versioned.visibility_mask(ts) == mask
        assert repr(versioned.snapshot_values(ts)) == repr(
            [row[:-2] for row, visible in zip(whole, mask) if visible])
