"""Ephemeral variables — the paper's software/hardware interface.

An ephemeral variable (Listings 2 and 4) is a pointer-like object over a
*column group* of a loaded row table: one contiguous run of columns, as
in the paper's prototype, or several runs packed back to back. It has an
address range (the PL alias region) that never corresponds to
main-memory data: CPU accesses to it are trapped by the RME, which
projects the group out of the row-store on the fly.

The object carries both faces of the co-design:

* the **functional** face — ``values()``, ``__getitem__``, ``length`` —
  returns the actual tuples, applying MVCC visibility when the underlying
  table is versioned (Section 4);
* the **timing** face — ``scan_segment()`` — describes the packed access
  pattern the CPU performs, which the simulator prices through the
  Trapper.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..config import RMEConfig
from ..errors import QueryError
from ..memsys.cpu import ScanSegment
from ..memsys.memmap import Region
from ..storage.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .relmem import LoadedTable, RelationalMemorySystem


class EphemeralVariable:
    """A packed, never-materialised view of a column group."""

    def __init__(
        self,
        system: "RelationalMemorySystem",
        loaded: "LoadedTable",
        columns: Sequence[str],
        config: RMEConfig,
        region: Region,
        snapshot_ts: Optional[int] = None,
        windowed: bool = False,
        pushdown=None,
    ):
        #: Projection larger than the on-chip buffer, processed in windows.
        self.windowed = windowed
        #: Optional HWSelection/HWAggregation evaluated inside the engine.
        self.pushdown = pushdown
        self.system = system
        self.loaded = loaded
        self.columns = list(columns)
        self.config = config
        self.region = region
        self.snapshot_ts = snapshot_ts
        # Subset (not group) schema: multi-run views may have gaps in the
        # base row; the packed view is dense either way.
        self.group_schema: Schema = loaded.schema.subset_schema(columns)

    # -- identity ---------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.region.name

    @property
    def base_addr(self) -> int:
        return self.region.base

    @property
    def width(self) -> int:
        """Bytes per packed element (the column-group width C_An)."""
        return self.config.col_width

    @property
    def length(self) -> int:
        """Number of rows in the view (the ``cg.length`` of Listing 4)."""
        return self.config.row_count

    def __len__(self) -> int:
        return self.length

    @property
    def is_hot(self) -> bool:
        """True when this variable's projection sits in the buffer."""
        return self.system.is_active(self) and self.system.rme.is_hot

    # -- functional face ------------------------------------------------------------
    def values(self, columns: Optional[Sequence[str]] = None) -> List[Tuple[Any, ...]]:
        """Row-ordered tuples of ``columns`` of the group (all of them, in
        schema order, by default).

        For a versioned table, only versions visible at the variable's
        snapshot timestamp are returned — the paper's ephemeral variables
        "generate the (group of) column(s) that contain the rows that are
        valid at the time of the query".
        """
        names = self.group_schema.names if columns is None else columns
        return list(self._visible(self.loaded.table.scan(names)))

    def column(self, name: str) -> List[Any]:
        if name not in self.group_schema:
            raise QueryError(
                f"column {name!r} is outside ephemeral view {self.name!r} "
                f"({self.group_schema.names})"
            )
        return [value for (value,) in self.values((name,))]

    def __getitem__(self, row_idx: int) -> Tuple[Any, ...]:
        """Physical-slot indexing, like ``cg[i]`` in Listing 4."""
        n_rows = self.loaded.table.n_rows
        if not -n_rows <= row_idx < n_rows:
            raise IndexError(f"slot {row_idx} outside {self.name!r}")
        return self.loaded.table.row(row_idx % n_rows, self.group_schema.names)

    def expected_packed_bytes(self) -> bytes:
        """The byte-exact packed projection (software golden reference)."""
        return self.loaded.table.project_bytes(self.group_schema.names)

    def _packed_rows(self) -> Iterator[bytes]:
        """The visible rows of the packed view, as the PL models read them."""
        packed = self.expected_packed_bytes()
        width = self.group_schema.row_size
        return self._visible(
            packed[base:base + width] for base in range(0, len(packed), width)
        )

    def _visible(self, rows: Iterator[Any]) -> Iterator[Any]:
        """``rows`` (one item per physical row) under MVCC visibility."""
        versioned = self.loaded.versioned
        if versioned is None:
            return rows
        ts = self.snapshot_ts
        if ts is None:
            ts = self.loaded.current_ts()
        return compress(rows, versioned.visibility_mask(ts))

    # -- timing face -------------------------------------------------------------------
    def scan_segment(self, compute_ns: float = 0.0, passes: int = 1) -> List[ScanSegment]:
        """The packed scan the CPU performs over this view."""
        segment = ScanSegment(
            start=self.region.base,
            n_elems=self.length,
            elem_size=self.width,
            stride=self.width,
            compute_ns=compute_ns,
            name=f"scan:{self.name}",
        )
        return [segment] * passes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "hot" if self.is_hot else "cold"
        return (
            f"EphemeralVariable({self.name!r}, cols={self.columns}, "
            f"{self.length}x{self.width}B, {state})"
        )


class FilteredEphemeralVariable(EphemeralVariable):
    """An ephemeral view whose rows are selected *inside the engine*.

    The PL comparator drops non-matching rows before they reach the
    reorganization buffer, so the packed view contains only the rows
    satisfying the hardware predicate — selection pushdown, the first
    operator on the paper's groundwork list.
    """

    def values(self, columns: Optional[Sequence[str]] = None) -> List[Tuple[Any, ...]]:
        """Only the rows the hardware predicate keeps (after MVCC)."""
        kept = b"".join(filter(self.pushdown.matches, self._packed_rows()))
        return list(self.group_schema.record(columns).rows(kept))

    @property
    def matched_length(self) -> int:
        """Rows in the filtered view (the engine's count register)."""
        return sum(map(self.pushdown.matches, self._packed_rows()))

    def scan_segment(self, compute_ns: float = 0.0, passes: int = 1) -> List[ScanSegment]:
        """The packed scan over *matching* rows only."""
        segment = ScanSegment(
            start=self.region.base,
            n_elems=self.matched_length,
            elem_size=self.width,
            stride=self.width,
            compute_ns=compute_ns,
            name=f"scan:{self.name}:filtered",
        )
        return [segment] * passes


class HWAggregateVariable(EphemeralVariable):
    """A one-line ephemeral "register" holding a PL-computed aggregate.

    Accessing it returns the aggregation result; the only memory traffic
    toward the CPU is a single cache line, available once the engine's
    fetch stream drains.
    """

    @property
    def hw_aggregation(self):
        return self.pushdown

    def expected_result(self) -> int:
        """The functional answer, computed from the stored values."""
        accumulator = _accumulate(self)
        func = self.pushdown.func
        if func != "count" and not accumulator.count:
            raise QueryError(f"PL {func} aggregate saw no matching rows")
        return accumulator.result()

    def scan_segment(self, compute_ns: float = 0.0, passes: int = 1) -> List[ScanSegment]:
        """One 8-byte register read per pass."""
        segment = ScanSegment(
            start=self.region.base,
            n_elems=1,
            elem_size=8,
            stride=8,
            compute_ns=compute_ns,
            name=f"read:{self.name}:register",
        )
        return [segment] * passes


class HWGroupByVariable(EphemeralVariable):
    """A register-table ephemeral view holding a PL-computed GROUP BY.

    The engine's group table streams out as packed (key, value) entries;
    the CPU reads ``n_groups`` 16-byte entries — data movement scales
    with the group cardinality, not the row count.
    """

    @property
    def hw_group_by(self):
        return self.pushdown

    def expected_result(self) -> dict:
        """The functional {key: aggregate} answer from the stored values."""
        return _accumulate(self).result()

    @property
    def n_groups(self) -> int:
        return len(self.expected_result())

    def scan_segment(self, compute_ns: float = 0.0, passes: int = 1) -> List[ScanSegment]:
        """Read the emitted group entries (16 bytes each)."""
        segment = ScanSegment(
            start=self.region.base,
            n_elems=max(1, self.n_groups),
            elem_size=16,
            stride=16,
            compute_ns=compute_ns,
            name=f"read:{self.name}:groups",
        )
        return [segment] * passes


def _accumulate(var: EphemeralVariable):
    """The variable's PL accumulator, fed every stored row of its group."""
    accumulator = var.pushdown.make_accumulator()
    for row in var._packed_rows():
        accumulator.feed(row)
    return accumulator
