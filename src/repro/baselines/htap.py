"""Fractured-mirrors and conversion-based HTAP baselines.

Both baselines track the *accounting* the paper's argument rests on:

* **bytes written** per ingested/updated row (write amplification);
* **bytes resident** (storage overhead of the duplicate layout);
* **stale rows** (data analytics cannot see yet).

The Relational Memory architecture needs neither mirror nor conversion:
one row-store copy, writes land once, and every ephemeral access is as
fresh as the base data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..errors import ConfigurationError
from ..storage.column_table import ColumnTable
from ..storage.row_table import RowTable
from ..storage.schema import Schema


@dataclass
class HTAPCosts:
    """Accumulated bookkeeping of one baseline architecture."""

    bytes_written: int = 0       #: total bytes written across all copies
    rows_ingested: int = 0
    conversions: int = 0
    bytes_converted: int = 0

    def write_amplification(self, row_size: int) -> float:
        """Bytes written per logical row byte ingested."""
        logical = self.rows_ingested * row_size
        return self.bytes_written / logical if logical else 0.0


class FracturedMirrors:
    """Row-store and column-store copies, synchronised on every write.

    Every insert/update lands in both layouts immediately: analytics are
    always fresh, at the price of doubled writes and doubled storage —
    the "multiple copies of the data" Section 4 removes.
    """

    def __init__(self, name: str, schema: Schema):
        self.rows = RowTable(f"{name}_rows", schema)
        self.columns = ColumnTable(f"{name}_cols", schema)
        self.costs = HTAPCosts()

    @property
    def schema(self) -> Schema:
        return self.rows.schema

    def insert(self, values: Sequence[Any]) -> int:
        index = self.rows.append(values)
        self.columns.append(values)
        self.costs.rows_ingested += 1
        self.costs.bytes_written += 2 * self.schema.row_size
        return index

    def update(self, row_idx: int, values: Sequence[Any]) -> None:
        # Row side updates in place; the column side rewrites each field.
        self.rows.update(row_idx, values)
        self.columns.update(row_idx, values)
        self.costs.bytes_written += 2 * self.schema.row_size

    # -- analytics surface -------------------------------------------------------
    @property
    def fresh_rows(self) -> int:
        return self.columns.n_rows  # always everything

    @property
    def stale_rows(self) -> int:
        return 0

    @property
    def resident_bytes(self) -> int:
        return self.rows.nbytes + self.columns.nbytes

    def analytic_column_bytes(self, columns: Sequence[str]) -> bytes:
        return self.columns.group_bytes(columns)


class DeltaConvertHTAP:
    """Row-format ingest with background conversion to columns.

    New rows land in a row-oriented *delta*; a conversion job drains the
    delta into the columnar main in batches. Analytics read only the
    converted main, so freshness lags by up to the un-drained delta — the
    classic HTAP conversion pipeline of the introduction.
    """

    def __init__(self, name: str, schema: Schema, batch_rows: int = 256):
        if batch_rows < 1:
            raise ConfigurationError("conversion batch must be >= 1 row")
        self.delta = RowTable(f"{name}_delta", schema)
        self.main = ColumnTable(f"{name}_main", schema)
        self.batch_rows = batch_rows
        self.costs = HTAPCosts()
        self._drained = 0  #: delta rows already converted

    @property
    def schema(self) -> Schema:
        return self.delta.schema

    def insert(self, values: Sequence[Any]) -> int:
        index = self.delta.append(values)
        self.costs.rows_ingested += 1
        self.costs.bytes_written += self.schema.row_size
        return index

    @property
    def pending_rows(self) -> int:
        return self.delta.n_rows - self._drained

    # -- the background conversion job ------------------------------------------------
    def convert_batch(self) -> int:
        """Drain up to one batch into the columnar main; returns rows moved.

        Conversion re-reads the delta rows and re-writes them as columns:
        each converted byte is read once and written once.
        """
        todo = min(self.batch_rows, self.pending_rows)
        for offset in range(todo):
            self.main.append(self.delta.row(self._drained + offset))
        self._drained += todo
        moved = todo * self.schema.row_size
        self.costs.bytes_written += moved
        self.costs.bytes_converted += moved
        if todo:
            self.costs.conversions += 1
        return todo

    def convert_all(self) -> int:
        total = 0
        while self.pending_rows:
            total += self.convert_batch()
        return total

    # -- analytics surface ------------------------------------------------------------
    @property
    def fresh_rows(self) -> int:
        return self.main.n_rows

    @property
    def stale_rows(self) -> int:
        return self.pending_rows

    @property
    def resident_bytes(self) -> int:
        # The drained delta prefix is typically reclaimed; count live data.
        return self.pending_rows * self.schema.row_size + self.main.nbytes

    def analytic_column_bytes(self, columns: Sequence[str]) -> bytes:
        return self.main.group_bytes(columns)

    def conversion_scan_bytes(self, rows: int) -> int:
        """Bytes of memory traffic one conversion of ``rows`` rows causes
        (read the delta + write the columns)."""
        return 2 * rows * self.schema.row_size
