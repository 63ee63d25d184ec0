"""Table geometry and the Requestor's descriptor equations.

This module is the arithmetic heart of the RME: given the configuration
registers of Table 1 — row size ``R``, row count ``N``, column-group width
``C_An`` and row offset ``O_An`` — it produces, for each row ``i``, the
request descriptor of Section 5 ("Requestor"):

.. math::

    P_i       &= R \\cdot i + O_{A_n}                     &\\text{(1)} \\\\
    R_i^{addr} &= (P_i // B_w) \\cdot B_w                  &\\text{(2)} \\\\
    R_i^{burst} &= \\lceil ((P_i \\% B_w) + C_{A_n}) / B_w \\rceil &\\text{(3)} \\\\
    W_i^{addr} &= C_{A_n} \\cdot i                          &\\text{(4)} \\\\
    E_i^s     &= P_i \\% B_w                               &\\text{(5)} \\\\
    E_i^e     &= (P_i + C_{A_n}) \\% B_w                    &\\text{(6)}

where ``B_w`` is the platform bus width. Descriptors are always
bus-aligned and use variable burst lengths so the engine "never fetches
more data than strictly needed".

A configuration with several ``(O_j, C_j)`` runs applies the same
equations once per run: ``P_{i,j} = R * i + O_j``, the burst and edge
markers use the run's width ``C_j``, and run ``j`` writes at
``C * i + (C_0 + ... + C_{j-1})``, where ``C`` is the packed width of
all runs together. Table 1's single run is the ``j = 0`` case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from ..config import RMEConfig
from ..errors import GeometryError
from .descriptors import RequestDescriptor


@dataclass(frozen=True)
class TableGeometry:
    """A configured view: an RMEConfig bound to a base address and bus width.

    ``base_addr`` is the main-memory address of row 0 of the row-oriented
    table; ``bus_bytes`` the width of one bus beat (16 bytes on the
    ZCU102's PL-side memory port).

    Each row yields one descriptor per run, and a row's runs pack back to
    back in the reorganization buffer. The rest of the engine is the same
    for any run count: the Monitor Bypass tracks packed-line completion by
    byte counts alone. The only cost of gaps between runs is throughput,
    since the Requestor emits, and the Fetch Units serve, one descriptor
    per run instead of one per row.
    """

    config: RMEConfig
    base_addr: int
    bus_bytes: int = 16

    def __post_init__(self) -> None:
        self.config.validate()
        if self.base_addr < 0:
            raise GeometryError("table base address must be non-negative")
        if self.bus_bytes <= 0 or self.bus_bytes & (self.bus_bytes - 1):
            raise GeometryError("bus width must be a positive power of two")
        if self.base_addr % self.bus_bytes:
            raise GeometryError(
                f"table base {self.base_addr:#x} must be bus-aligned "
                f"({self.bus_bytes} bytes)"
            )

    # -- shorthand accessors -----------------------------------------------------
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

    # -- the paper's equations -----------------------------------------------------
    def useful_start(self, row: int, run: int = 0) -> int:
        """Eq. (1): absolute position P_i of run ``run``'s useful bytes in
        row ``row``."""
        self._check(row, run)
        return self.base_addr + self.row_size * row + self.config.runs[run][0]

    def descriptor(self, row: int, run: int = 0) -> RequestDescriptor:
        """Eqs. (1)-(6): the request descriptor for run ``run`` of row ``row``."""
        self._check(row, run)
        return self._descriptor(row, *self._run_layout()[run], self.col_width)

    def descriptors(self, rows: "range" = None) -> Iterator[RequestDescriptor]:
        """Descriptors row-major, run-minor — the Requestor's output stream.

        All of a row's runs complete together. ``rows`` restricts
        generation to a row window (used by the windowed large-projection
        mode); defaults to all N rows.
        """
        layout = self._run_layout()
        packed = self.col_width
        for row in rows if rows is not None else range(self.row_count):
            for offset, width, prefix in layout:
                yield self._descriptor(row, offset, width, prefix, packed)

    def _descriptor(self, row: int, offset: int, width: int, prefix: int,
                    packed: int) -> RequestDescriptor:
        bw = self.bus_bytes
        p = self.base_addr + self.row_size * row + offset  # Eq. (1)
        return RequestDescriptor(
            row=row,
            r_addr=(p // bw) * bw,  # Eq. (2)
            burst=-(-((p % bw) + width) // bw),  # Eq. (3)
            w_addr=packed * row + prefix,  # Eq. (4)
            lead_skip=p % bw,  # Eq. (5)
            trail_cut=(p + width) % bw,  # Eq. (6)
            col_width=width,
            bus_bytes=bw,
        )

    # -- helpers ----------------------------------------------------------------------
    def _run_layout(self) -> List[Tuple[int, int, int]]:
        """Each run as ``(offset, width, packed prefix)``: where its bytes
        sit in the row, and where they land in the row's packed element."""
        layout = []
        prefix = 0
        for offset, width in self.config.runs:
            layout.append((offset, width, prefix))
            prefix += width
        return layout

    def _check(self, row: int, run: int) -> None:
        if not 0 <= row < self.row_count:
            raise GeometryError(
                f"row {row} out of range [0, {self.row_count})"
            )
        if not 0 <= run < len(self.config.runs):
            raise GeometryError(
                f"run {run} out of range [0, {len(self.config.runs)})"
            )

    def packed_line_count(self, line_size: int = 64) -> int:
        """Number of cache lines in the packed column-group output."""
        return -(-self.projected_bytes // line_size)
