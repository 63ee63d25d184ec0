"""Column types, schemas and the byte-exact row decoder.

A :class:`Schema` is an ordered list of typed columns; it computes the
byte offset of every column inside a packed row (no padding — the RME
addresses raw byte offsets, Table 1's ``O_An``), encodes and decodes rows,
and resolves *column groups*: the contiguous runs of columns an ephemeral
variable projects. The paper's prototype requires the requested columns to
be contiguous ("the column of interest are assumed to be contiguous",
Section 5) and the same constraint is enforced here, with the same remark:
it is an implementation artifact, not fundamental.

Every host-side decode of packed rows goes through one mechanism,
:meth:`Schema.record`: one :class:`struct.Struct` exactly one row wide
per (schema, columns), which reads only the named columns and skips the
rest of the row as pad bytes — a narrow projection over a wide row does
not pay for the columns it skips.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import SchemaError


#: Marker format for arbitrary-width little-endian signed integers.
RAW_INT_FMT = "int"


@dataclass(frozen=True)
class ColumnType:
    """A fixed-width column type with a struct codec.

    ``fmt`` is a :mod:`struct` format (little-endian applied by the
    schema), the marker ``"int"`` for an arbitrary-width little-endian
    signed integer, or ``""`` for raw fixed-width byte strings (CHAR(n)).
    """

    name: str
    size: int
    fmt: str = ""

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise SchemaError(f"type {self.name!r}: size must be positive")
        if self.fmt and self.fmt != RAW_INT_FMT:
            if struct.calcsize("<" + self.fmt) != self.size:
                raise SchemaError(
                    f"type {self.name!r}: struct format {self.fmt!r} does not "
                    f"encode {self.size} bytes"
                )

    @property
    def is_numeric(self) -> bool:
        return bool(self.fmt)

    def pack(self, value: Any) -> bytes:
        if self.fmt == RAW_INT_FMT:
            return int(value).to_bytes(self.size, "little", signed=True)
        if self.fmt:
            return struct.pack("<" + self.fmt, value)
        data = bytes(value) if not isinstance(value, (bytes, bytearray)) else bytes(value)
        if len(data) > self.size:
            raise SchemaError(
                f"value of {len(data)} bytes overflows {self.name} ({self.size} bytes)"
            )
        return data.ljust(self.size, b"\x00")

    def unpack(self, data: bytes) -> Any:
        if len(data) != self.size:
            raise SchemaError(
                f"{self.name}: expected {self.size} bytes, got {len(data)}"
            )
        if self.fmt == RAW_INT_FMT:
            return int.from_bytes(data, "little", signed=True)
        if self.fmt:
            return struct.unpack("<" + self.fmt, data)[0]
        return data


def int64() -> ColumnType:
    """A signed 64-bit integer (the paper's ``long`` fields)."""
    return ColumnType("int64", 8, "q")


def int32() -> ColumnType:
    """A signed 32-bit integer (the 4-byte columns of the microbenchmarks)."""
    return ColumnType("int32", 4, "i")


def uint32() -> ColumnType:
    """An unsigned 32-bit integer."""
    return ColumnType("uint32", 4, "I")


def float64() -> ColumnType:
    """An IEEE-754 double."""
    return ColumnType("float64", 8, "d")


def char(n: int) -> ColumnType:
    """A fixed-width byte string (the paper's ``char text_fld[n]``)."""
    return ColumnType(f"char({n})", n)


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    ctype: ColumnType

    @property
    def size(self) -> int:
        return self.ctype.size


class Record:
    """A compiled decoder for the named columns of one schema's rows.

    One :class:`struct.Struct` exactly one row wide: ``x`` pads skip the
    bytes the names do not cover, CHAR(n) reads as ``ns`` and an
    arbitrary-width integer as ``ns`` then ``int.from_bytes``. Values
    come back in the order the names were given, duplicates included.
    Build it with :meth:`Schema.record`, which caches it per schema.
    """

    __slots__ = ("struct", "_finish")

    def __init__(self, schema: "Schema", names: Sequence[str]):
        positions = [schema.index_of(name) for name in names]
        wanted = set(positions)
        fields: List[int] = []  # schema position of each struct field
        wide = set()  # struct fields holding arbitrary-width integers
        parts = ["<"]
        gap = 0
        for position, column in enumerate(schema.columns):
            if position not in wanted:
                gap += column.size
                continue
            if gap:
                parts.append(f"{gap}x")
                gap = 0
            fmt = column.ctype.fmt
            if fmt == RAW_INT_FMT:
                wide.add(len(fields))
            parts.append(fmt if fmt and fmt != RAW_INT_FMT else f"{column.size}s")
            fields.append(position)
        if gap:
            parts.append(f"{gap}x")
        #: The compiled one-row :class:`struct.Struct`.
        self.struct = struct.Struct("".join(parts))
        order = [fields.index(position) for position in positions]
        if wide:
            steps = tuple((field, field in wide) for field in order)

            def finish(values, _from_bytes=int.from_bytes):
                return tuple(
                    _from_bytes(values[field], "little", signed=True)
                    if is_wide else values[field]
                    for field, is_wide in steps
                )

            self._finish = finish
        elif order != list(range(len(fields))):
            # Reordered or duplicated names: two or more fields.
            self._finish = operator.itemgetter(*order)
        else:
            self._finish = None

    def rows(self, buffer) -> Iterator[Tuple[Any, ...]]:
        """Decode a buffer of whole rows, lazily, with one ``iter_unpack``.

        A ``bytearray`` cannot be resized while the iterator is open.
        """
        rows = self.struct.iter_unpack(buffer)
        return rows if self._finish is None else map(self._finish, rows)

    def row(self, buffer, base: int = 0) -> Tuple[Any, ...]:
        """Decode the one row that starts at byte ``base`` of ``buffer``."""
        values = self.struct.unpack_from(buffer, base)
        return values if self._finish is None else self._finish(values)


class Schema:
    """An ordered, offset-resolved set of columns."""

    def __init__(self, columns: Sequence[Column]):
        if not columns:
            raise SchemaError("a schema needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._offsets: Dict[str, int] = {}
        offset = 0
        for column in self.columns:
            self._offsets[column.name] = offset
            offset += column.size
        self.row_size = offset
        # Compiled lazily: records by name tuple (None: the whole row),
        # and the one-struct packer (False until resolved).
        self._records: Dict[Optional[Tuple[str, ...]], Record] = {}
        self._packer: "struct.Struct | None | bool" = False

    # -- lookups ---------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._offsets

    def __len__(self) -> int:
        return len(self.columns)

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"unknown column {name!r}")

    def index_of(self, name: str) -> int:
        for index, col in enumerate(self.columns):
            if col.name == name:
                return index
        raise SchemaError(f"unknown column {name!r}")

    def offset_of(self, name: str) -> int:
        """Byte offset of a column inside the packed row (Table 1's O_An)."""
        try:
            return self._offsets[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None

    @property
    def names(self) -> List[str]:
        return [c.name for c in self.columns]

    # -- column groups ------------------------------------------------------------
    def column_group(self, names: Sequence[str]) -> Tuple[int, int]:
        """Resolve a *contiguous* column group to ``(offset, width)``.

        The names may be given in any order but must occupy consecutive
        schema positions — the prototype RME's contiguity constraint.
        """
        if not names:
            raise SchemaError("a column group needs at least one column")
        indices = sorted(self.index_of(n) for n in names)
        if len(set(indices)) != len(indices):
            raise SchemaError(f"duplicate columns in group {list(names)}")
        if indices != list(range(indices[0], indices[-1] + 1)):
            gap = [self.columns[i].name for i in range(indices[0], indices[-1] + 1)]
            raise SchemaError(
                f"columns {sorted(names)} are not contiguous in the schema "
                f"(the run {gap} has gaps); the prototype RME requires "
                "contiguous column groups — reorder the schema or project "
                "the covering run"
            )
        offset = self._offsets[self.columns[indices[0]].name]
        width = sum(self.columns[i].size for i in indices)
        return offset, width

    def covering_group(self, names: Sequence[str]) -> Tuple[int, int]:
        """The contiguous byte run covering the columns (gaps included).

        This is what a CPU-side row scan actually touches per row when the
        query's columns are not adjacent — and what a covering ephemeral
        variable must project (the paper's prototype fetches contiguous
        groups; Listing 2's num_fld1/3/4 ride along with num_fld2).
        """
        if not names:
            raise SchemaError("a column group needs at least one column")
        indices = sorted(self.index_of(n) for n in names)
        first = self.columns[indices[0]]
        last = self.columns[indices[-1]]
        offset = self._offsets[first.name]
        width = self._offsets[last.name] + last.size - offset
        return offset, width

    def covering_columns(self, names: Sequence[str]) -> List[str]:
        """The full contiguous run of column names covering ``names``."""
        indices = sorted(self.index_of(n) for n in names)
        return [c.name for c in self.columns[indices[0] : indices[-1] + 1]]

    def column_runs(self, names: Sequence[str]) -> List[Tuple[int, int]]:
        """The requested columns as maximal contiguous ``(offset, width)``
        runs, in schema order.

        A contiguous group yields one run; Listing 2's num_fld1/3/4 yields
        two. This is the geometry the extended (multi-run) RME consumes.
        """
        if not names:
            raise SchemaError("a column group needs at least one column")
        indices = sorted(self.index_of(n) for n in names)
        if len(set(indices)) != len(indices):
            raise SchemaError(f"duplicate columns in group {list(names)}")
        runs: List[Tuple[int, int]] = []
        run_start = indices[0]
        previous = indices[0]
        for index in indices[1:] + [None]:
            if index is not None and index == previous + 1:
                previous = index
                continue
            first = self.columns[run_start]
            last = self.columns[previous]
            offset = self._offsets[first.name]
            width = self._offsets[last.name] + last.size - offset
            runs.append((offset, width))
            if index is not None:
                run_start = previous = index
        return runs

    def subset_schema(self, names: Sequence[str]) -> "Schema":
        """The sub-schema of the named columns, in schema order (no
        contiguity requirement — used by multi-run ephemeral views)."""
        indices = sorted(self.index_of(n) for n in names)
        if len(set(indices)) != len(indices):
            raise SchemaError(f"duplicate columns in group {list(names)}")
        return Schema([self.columns[i] for i in indices])

    def group_schema(self, names: Sequence[str]) -> "Schema":
        """The sub-schema of a contiguous group, in schema order."""
        indices = sorted(self.index_of(n) for n in names)
        self.column_group(names)  # validates contiguity
        return Schema([self.columns[i] for i in indices])

    # -- the row codec ----------------------------------------------------------------
    def record(self, names: Optional[Sequence[str]] = None) -> Record:
        """The compiled decoder of ``names`` (every column by default).

        Built once per (schema, names) and cached. The names may come in
        any order, with gaps and duplicates:

        >>> schema = Schema([Column("k", int32()), Column("pad", int64()),
        ...                  Column("tag", char(3)), Column("v", intn(3))])
        >>> record = schema.record(["v", "tag", "k"])
        >>> record.struct.format
        '<i8x3s3s'
        >>> data = (schema.pack_row([7, 0, b"ab", -2])
        ...         + schema.pack_row([-1, 5, b"xyz", 9]))
        >>> list(record.rows(data))
        [(-2, b'ab\\x00', 7), (9, b'xyz', -1)]
        >>> record.row(data, schema.row_size)
        (9, b'xyz', -1)
        """
        key = None if names is None else tuple(names)
        record = self._records.get(key)
        if record is None:
            record = self._records[key] = Record(
                self, self.names if key is None else key
            )
        return record

    @property
    def packer(self) -> "struct.Struct | None":
        """The whole-row record's Struct if every column is numeric.

        ``struct``'s ``ns`` silently truncates an oversized CHAR(n) value
        where :meth:`ColumnType.pack` raises, and an arbitrary-width
        integer has no struct code, so a schema with either column packs
        field by field and this is ``None``.
        """
        packer = self._packer
        if packer is False:
            numeric = all(
                col.ctype.fmt and col.ctype.fmt != RAW_INT_FMT
                for col in self.columns
            )
            packer = self._packer = self.record().struct if numeric else None
        return packer

    def pack_row(self, values: Sequence[Any]) -> bytes:
        if len(values) != len(self.columns):
            raise SchemaError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        packer = self.packer
        if packer is not None:
            return packer.pack(*values)
        return b"".join(
            col.ctype.pack(value) for col, value in zip(self.columns, values)
        )

    def __getstate__(self) -> dict:
        # Records hold struct.Struct objects, which do not pickle; a copy
        # rebuilds them on first use.
        state = self.__dict__.copy()
        state["_records"] = {}
        state["_packer"] = False
        return state

    def unpack_row(self, data: bytes) -> Tuple[Any, ...]:
        return self.record().row(self._whole_row(data))

    def _whole_row(self, data: bytes) -> bytes:
        if len(data) != self.row_size:
            raise SchemaError(
                f"row of {len(data)} bytes does not match row size {self.row_size}"
            )
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(f"{c.name}:{c.ctype.name}" for c in self.columns)
        return f"Schema({cols}; row={self.row_size}B)"


def listing1_schema() -> Schema:
    """The 96-byte example row of the paper's Listing 1."""
    return Schema(
        [
            Column("key", int64()),
            Column("text_fld1", char(8)),
            Column("text_fld2", char(12)),
            Column("text_fld3", char(20)),
            Column("text_fld4", char(16)),
            Column("num_fld1", int64()),
            Column("num_fld2", int64()),
            Column("num_fld3", int64()),
            Column("num_fld4", int64()),
        ]
    )


def intn(n: int) -> ColumnType:
    """An ``n``-byte little-endian signed integer (any width)."""
    return {1: ColumnType("int8", 1, "b"), 2: ColumnType("int16", 2, "h"),
            4: int32(), 8: int64()}.get(n, ColumnType(f"int{8 * n}", n, RAW_INT_FMT))


def uniform_schema(n_cols: int, col_width: int) -> Schema:
    """The benchmark relation S: n numeric columns A1..An of identical
    width (Section 6.1)."""
    ctype = intn(col_width)
    return Schema([Column(f"A{i + 1}", ctype) for i in range(n_cols)])
