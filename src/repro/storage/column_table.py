"""The decomposition storage model: a column-oriented copy of a relation.

The paper's "Columnar Access" baseline (Figure 6) reads from data that is
physically stored one column at a time — the layout analytical systems
maintain at the cost of conversion pipelines and duplicated data. The
reproduction materialises such a copy from a :class:`RowTable` so the
query layer can time scans over it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from ..errors import SchemaError
from .row_table import RowTable
from .schema import Schema


class ColumnTable:
    """Per-column byte arrays derived from a row-store."""

    def __init__(self, name: str, schema: Schema):
        self.name = name
        self.schema = schema
        self._columns: Dict[str, bytearray] = {c.name: bytearray() for c in schema.columns}
        self._n_rows = 0

    @classmethod
    def from_rows(cls, table: RowTable, name: str = "") -> "ColumnTable":
        """Materialise the columnar copy (the HTAP conversion step the
        paper's design makes unnecessary)."""
        column_table = cls(name or f"{table.name}_columnar", table.schema)
        for values in table.scan():
            column_table.append(values)
        return column_table

    # -- shape ---------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self._n_rows

    def __len__(self) -> int:
        return self._n_rows

    @property
    def nbytes(self) -> int:
        return sum(len(b) for b in self._columns.values())

    # -- writes ---------------------------------------------------------------
    def append(self, values: Sequence[Any]) -> int:
        if len(values) != len(self.schema.columns):
            raise SchemaError(
                f"row has {len(values)} values for {len(self.schema.columns)} columns"
            )
        for column, value in zip(self.schema.columns, values):
            self._columns[column.name].extend(column.ctype.pack(value))
        self._n_rows += 1
        return self._n_rows - 1

    def update(self, row_idx: int, values: Sequence[Any]) -> None:
        """Overwrite one row's value in every column array in place."""
        if not 0 <= row_idx < self._n_rows:
            raise SchemaError(
                f"row {row_idx} outside table of {self._n_rows} rows"
            )
        if len(values) != len(self.schema.columns):
            raise SchemaError(
                f"row has {len(values)} values for {len(self.schema.columns)} columns"
            )
        for column, value in zip(self.schema.columns, values):
            start = row_idx * column.size
            self._columns[column.name][start : start + column.size] = \
                column.ctype.pack(value)

    # -- reads ------------------------------------------------------------------
    def column_values(self, name: str) -> List[Any]:
        """One column's values, decoded in one pass over its array."""
        record = self.schema.subset_schema([name]).record()
        return [value for (value,) in record.rows(self._columns[name])]

    def group_bytes(self, names: Sequence[str]) -> bytes:
        """Interleaved (row-ordered) packed bytes of a contiguous group —
        byte-identical to what the RME produces for the same group."""
        group = self.schema.group_schema(names)
        parts = [self._columns[c.name] for c in group.columns]
        sizes = [c.size for c in group.columns]
        out = bytearray()
        for row in range(self._n_rows):
            for data, size in zip(parts, sizes):
                out.extend(data[row * size : (row + 1) * size])
        return bytes(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnTable({self.name!r}, {self._n_rows} rows)"
