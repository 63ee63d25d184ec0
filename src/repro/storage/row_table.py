"""The n-ary storage model: the row-oriented base table.

This is the single physical format Relational Memory keeps in main memory
(Section 3): an array of packed rows, ``struct row table[]``. Everything
else — columnar copies, ephemeral column-groups — is derived from it.

The table owns its bytes; :class:`repro.core.relmem.RelationalMemorySystem`
copies them into a mapped DRAM region when the table is loaded, so the
simulated hardware reads the same data tests can verify against.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import SchemaError
from .schema import Schema


class RowTable:
    """A byte-exact row-store."""

    def __init__(self, name: str, schema: Schema):
        self.name = name
        self.schema = schema
        self._data = bytearray()

    @classmethod
    def from_raw(cls, name: str, schema: Schema, raw: bytes) -> "RowTable":
        """Rehydrate a table from previously packed rows.

        The workload generators cache the packed bytes of expensive random
        relations; rebuilding from the cache is a single copy instead of a
        per-cell pack. The copy keeps the returned table independently
        mutable.
        """
        if len(raw) % schema.row_size:
            raise SchemaError(
                f"raw size {len(raw)} is not a whole number of "
                f"{schema.row_size}-byte rows"
            )
        table = cls(name, schema)
        table._data = bytearray(raw)
        return table

    # -- shape -------------------------------------------------------------------
    @property
    def row_size(self) -> int:
        return self.schema.row_size

    @property
    def n_rows(self) -> int:
        return len(self._data) // self.row_size

    @property
    def nbytes(self) -> int:
        return len(self._data)

    def __len__(self) -> int:
        return self.n_rows

    # -- writes -------------------------------------------------------------------
    def append(self, values: Sequence[Any]) -> int:
        """Append one row; returns its index."""
        self._data.extend(self.schema.pack_row(values))
        return self.n_rows - 1

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        for values in rows:
            self.append(values)

    def update(self, row_idx: int, values: Sequence[Any]) -> None:
        """Overwrite a row in place."""
        start = self._slot(row_idx)
        self._data[start : start + self.row_size] = self.schema.pack_row(values)

    def update_column(self, row_idx: int, column: str, value: Any) -> None:
        """Overwrite one field of a row in place."""
        col = self.schema.column(column)
        start = self._slot(row_idx) + self.schema.offset_of(column)
        self._data[start : start + col.size] = col.ctype.pack(value)

    # -- reads ---------------------------------------------------------------------
    def row(self, row_idx: int,
            columns: Optional[Sequence[str]] = None) -> Tuple[Any, ...]:
        """One row's values of ``columns`` (every column by default)."""
        return self.schema.record(columns).row(self._data, self._slot(row_idx))

    def value(self, row_idx: int, column: str) -> Any:
        return self.row(row_idx, (column,))[0]

    def scan(self, columns: Optional[Sequence[str]] = None) -> Iterator[Tuple[Any, ...]]:
        """Row-ordered tuples of ``columns`` (every column by default),
        decoded lazily; the table cannot grow while a scan is open."""
        return self.schema.record(columns).rows(self._data)

    def column_values(self, column: str) -> List[Any]:
        """All values of one column (a software full-column projection)."""
        return [value for (value,) in self.scan((column,))]

    # -- projections (the software reference the RME must match) ---------------------
    def project_bytes(self, columns: Sequence[str]) -> bytes:
        """The packed column-group bytes a perfect projection produces.

        Non-contiguous groups are packed run by run within each row (the
        layout of Listing 2's ephemeral struct). This is the golden
        reference the RME's reorganization buffer is compared against in
        the functional tests. One pass over the rows: a row-wide
        ``struct.Struct`` holds one ``Ns`` field per run, with ``x`` pads
        over the bytes between runs.
        """
        fields = ["<"]
        cursor = 0
        for offset, width in self.schema.column_runs(columns):
            fields.append(f"{offset - cursor}x{width}s")
            cursor = offset + width
        fields.append(f"{self.row_size - cursor}x")
        row = struct.Struct("".join(fields))
        return b"".join(chain.from_iterable(row.iter_unpack(self._data)))

    def project_values(self, columns: Sequence[str]) -> List[Tuple[Any, ...]]:
        """Row-ordered tuples of the requested columns (any order).

        Decodes only the requested columns, straight out of the packed
        buffer — a narrow projection over a wide schema does not pay for
        the columns it skips.
        """
        return list(self.scan(columns))

    # -- raw access for the simulator -------------------------------------------------
    def raw_bytes(self) -> bytes:
        return bytes(self._data)

    def _slot(self, row_idx: int) -> int:
        if not 0 <= row_idx < self.n_rows:
            raise SchemaError(
                f"row {row_idx} out of range [0, {self.n_rows}) in {self.name!r}"
            )
        return row_idx * self.row_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowTable({self.name!r}, {self.n_rows} rows x {self.row_size}B)"
