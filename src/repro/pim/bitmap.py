"""Selection bitmaps: the result format of in-bank predicate evaluation.

A bank-level PIM filter (Membrane-style) never moves rows toward the
CPU while filtering — each bank evaluates one comparator over its local
rows and materialises the verdicts as a *selection bitmap*, one bit per
row in physical row order. Compound predicates combine those per-
comparator bitmaps with bulk bitwise AND/OR inside the bank, and only
the final bitmap (``n_rows / 8`` bytes) crosses the AXI boundary.

The bitmap here is an arbitrary-precision integer under the hood, which
makes the bulk combine operators one-line and exact, and keeps
``count``/``nbytes`` cheap for the cost model's readout pricing.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import ConfigurationError


class SelectionBitmap:
    """One bit per row, little-endian bit order (bit ``i`` = row ``i``).

    >>> bitmap = SelectionBitmap(5, 0b1101) | SelectionBitmap(5, 0b10)
    >>> bitmap.count(), list(bitmap.indices()), bitmap.nbytes
    (4, [0, 1, 2, 3], 1)
    """

    __slots__ = ("n_rows", "bits")

    def __init__(self, n_rows: int, bits: int = 0):
        if n_rows < 0:
            raise ConfigurationError("a bitmap cannot cover negative rows")
        self.n_rows = n_rows
        self.bits = bits & ((1 << n_rows) - 1)

    # -- bulk combining ----------------------------------------------------------
    def _check_peer(self, other: "SelectionBitmap") -> None:
        if self.n_rows != other.n_rows:
            raise ConfigurationError(
                f"cannot combine bitmaps of {self.n_rows} and "
                f"{other.n_rows} rows"
            )

    def __and__(self, other: "SelectionBitmap") -> "SelectionBitmap":
        self._check_peer(other)
        return SelectionBitmap(self.n_rows, self.bits & other.bits)

    def __or__(self, other: "SelectionBitmap") -> "SelectionBitmap":
        self._check_peer(other)
        return SelectionBitmap(self.n_rows, self.bits | other.bits)

    # -- reading -----------------------------------------------------------------
    def count(self) -> int:
        """Popcount: how many rows matched."""
        return bin(self.bits).count("1")

    def indices(self) -> Iterator[int]:
        """Set row indices, ascending."""
        digits = bin(self.bits)[:1:-1]  # bit i is digit i
        index = digits.find("1")
        while index >= 0:
            yield index
            index = digits.find("1", index + 1)

    @property
    def nbytes(self) -> int:
        """Packed size: what a bitmap readout actually moves."""
        return (self.n_rows + 7) // 8

    # -- comparisons -------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SelectionBitmap):
            return NotImplemented
        return self.n_rows == other.n_rows and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.n_rows, self.bits))

    def __repr__(self) -> str:
        return f"SelectionBitmap({self.count()}/{self.n_rows})"
