"""Multi-run geometries: non-contiguous column groups in hardware.

The paper's prototype assumes the requested columns are contiguous and
lists lifting that as future work ("enable fetching multiple
non-contiguous columns", Section 8). This module implements that
extension: an extended configuration that carries *several* (offset,
width) runs per row, and a geometry that emits one request descriptor per
run per row, packing all runs of a row back to back in the
reorganization buffer — exactly the layout of Listing 2's ephemeral
struct (num_fld1, num_fld3, num_fld4 packed densely).

The rest of the engine is untouched: descriptors are descriptors, and
the Monitor Bypass tracks packed-line completion purely by byte counts.
The only real cost of gaps is throughput — the Requestor emits (and the
Fetch Units service) one descriptor per run instead of one per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from ..config import RMEConfig
from ..errors import ConfigurationError, GeometryError
from .descriptors import RequestDescriptor


@dataclass(frozen=True)
class MultiRMEConfig:
    """The extended configuration port: N runs instead of one (O, C) pair.

    A hardware implementation would expose ``2 + 2k`` registers (row
    size, row count, then one offset/width pair per run); Table 1's
    single-run port is the ``k = 1`` special case.
    """

    row_size: int
    row_count: int
    runs: Tuple[Tuple[int, int], ...]  #: (offset, width) pairs, schema order

    def validate(self) -> None:
        if self.row_size <= 0:
            raise ConfigurationError("row size R must be positive")
        if self.row_count <= 0:
            raise ConfigurationError("row count N must be positive")
        if not self.runs:
            raise ConfigurationError("a multi-run group needs at least one run")
        previous_end = 0
        first = True
        for offset, width in self.runs:
            if width <= 0:
                raise ConfigurationError(f"run width {width} must be positive")
            if offset < 0 or offset + width > self.row_size:
                raise ConfigurationError(
                    f"run [{offset}, +{width}) outside the {self.row_size}-byte row"
                )
            if not first and offset < previous_end:
                raise ConfigurationError(
                    "runs must be sorted by offset and non-overlapping"
                )
            previous_end = offset + width
            first = False

    # -- RMEConfig-compatible surface ---------------------------------------------
    @property
    def col_width(self) -> int:
        """Packed element width: the sum of all run widths."""
        return sum(width for _offset, width in self.runs)

    @property
    def col_offset(self) -> int:
        """Offset of the first run (for display/compatibility)."""
        return self.runs[0][0]

    @property
    def projected_bytes(self) -> int:
        return self.col_width * self.row_count

    @property
    def base_bytes(self) -> int:
        return self.row_size * self.row_count

    @property
    def projectivity(self) -> float:
        return self.col_width / self.row_size

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    def register_writes(self, base: int = 0) -> List[Tuple[int, int]]:
        """The extended register file a driver would program."""
        writes = [(base + 0x00, self.row_size), (base + 0x04, self.row_count)]
        for index, (offset, width) in enumerate(self.runs):
            writes.append((base + 0x08 + 8 * index, width))
            writes.append((base + 0x0C + 8 * index, offset))
        return writes

    @classmethod
    def from_single(cls, config: RMEConfig) -> "MultiRMEConfig":
        """Lift a Table-1 configuration into the extended port."""
        return cls(
            row_size=config.row_size,
            row_count=config.row_count,
            runs=config.runs,
        )


@dataclass(frozen=True)
class MultiRunTableGeometry:
    """Descriptor generation for a multi-run configuration.

    Duck-type compatible with :class:`repro.rme.geometry.TableGeometry`:
    the engine only needs ``row_count``, ``projected_bytes`` and
    ``descriptors()``.
    """

    config: MultiRMEConfig
    base_addr: int
    bus_bytes: int = 16

    def __post_init__(self) -> None:
        self.config.validate()
        if self.base_addr < 0:
            raise GeometryError("table base address must be non-negative")
        if self.bus_bytes <= 0 or self.bus_bytes & (self.bus_bytes - 1):
            raise GeometryError("bus width must be a positive power of two")
        if self.base_addr % self.bus_bytes:
            raise GeometryError("table base must be bus-aligned")

    @property
    def row_size(self) -> int:
        return self.config.row_size

    @property
    def row_count(self) -> int:
        return self.config.row_count

    @property
    def col_width(self) -> int:
        return self.config.col_width

    @property
    def projected_bytes(self) -> int:
        return self.config.projected_bytes

    def _packed_prefixes(self) -> List[int]:
        prefixes = []
        total = 0
        for _offset, width in self.config.runs:
            prefixes.append(total)
            total += width
        return prefixes

    def descriptor(self, row: int, run_index: int) -> RequestDescriptor:
        """Eqs. (1)-(6) applied per run: P_{i,j} = R*i + O_j."""
        if not 0 <= row < self.row_count:
            raise GeometryError(f"row {row} out of range [0, {self.row_count})")
        if not 0 <= run_index < self.config.n_runs:
            raise GeometryError(f"run {run_index} out of range")
        offset, width = self.config.runs[run_index]
        bw = self.bus_bytes
        p = self.base_addr + self.row_size * row + offset
        prefix = self._packed_prefixes()[run_index]
        return RequestDescriptor(
            row=row,
            r_addr=(p // bw) * bw,
            burst=-(-((p % bw) + width) // bw),
            w_addr=self.col_width * row + prefix,
            lead_skip=p % bw,
            trail_cut=(p + width) % bw,
            col_width=width,
            bus_bytes=bw,
        )

    def descriptors(self, rows: "range" = None) -> Iterator[RequestDescriptor]:
        """Row-major, run-minor: all of a row's runs complete together.

        ``rows`` restricts generation to a row window, as for the
        single-run geometry.
        """
        for row in rows if rows is not None else range(self.row_count):
            for run_index in range(self.config.n_runs):
                yield self.descriptor(row, run_index)

    def packed_line_count(self, line_size: int = 64) -> int:
        return -(-self.projected_bytes // line_size)
