"""Bank geometry: how a loaded row table shards across DRAM banks.

The PIM engine computes *where the data already is*: each DRAM bank owns
the rows whose bytes live in its arrays, so the unit of parallelism is
fixed by the same address mapping the timing model uses
(:meth:`repro.memsys.dram.DRAM.locate` — page-interleaved,
``bank = (addr // row_buffer_bytes) % n_banks``). This module splits a
loaded table by DRAM page: the rows whose first byte lies in one page
form one contiguous row-id range, owned by that page's bank, so the
cost model's activation counts and the banks' local bitmaps line up with
the memory system the rest of the simulator prices.

A row that straddles a page boundary is assigned to the bank of its
first byte; the spill into the neighbouring page is folded into that
slice's activation count rather than modelled as a cross-bank handoff
(the in-bank sequencer reads the straddling beats through the shared
array interface). A page in which no row starts (rows wider than a
page) holds no range and is not counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..config import DRAMTimings
from ..errors import ConfigurationError


#: Knuth's multiplicative constant (2^64 / golden ratio) — the fixed
#: mixing step of the in-bank join's key router.
_HASH_MULT = 0x9E3779B97F4A7C15


def bank_of_key(key: int, n_banks: int) -> int:
    """The bank a join key hash-routes to (build and probe agree).

    A deterministic multiplicative hash over the key's low 64 bits: the
    build phase parks each build row's key in this bank's table, the
    probe phase sends each probe row's key to the same bank.

    >>> {bank_of_key(k, 8) for k in range(64)} == set(range(8))
    True
    >>> bank_of_key(-5, 8) == bank_of_key(-5, 8)
    True
    """
    if n_banks <= 0:
        raise ConfigurationError("hash routing needs at least one bank")
    mixed = ((key & 0xFFFFFFFFFFFFFFFF) * _HASH_MULT) & 0xFFFFFFFFFFFFFFFF
    return (mixed >> 32) % n_banks


@dataclass(frozen=True)
class BankSlice:
    """One bank's share of a table: one row-id range per page it opens.

    Each range holds the rows whose first byte lies in one DRAM page of
    this bank, ascending, so the slice's rows are the ranges in order.
    """

    bank: int
    ranges: Tuple[range, ...]

    @property
    def n_pages(self) -> int:
        """Distinct DRAM pages the slice's rows start in."""
        return len(self.ranges)

    @property
    def n_rows(self) -> int:
        """Rows the bank holds."""
        return sum(len(rows) for rows in self.ranges)


class BankLayout:
    """The per-bank partition of one loaded table's rows.

    One step per page the table spans (not per row): the rows starting
    in page ``p`` are ``range(first, stop)`` where ``stop`` is the first
    row whose start address reaches page ``p + 1``.

    >>> from repro.config import DRAMTimings
    >>> layout = BankLayout(0, 64, 256, DRAMTimings())
    >>> [s.n_rows for s in layout.slices]
    [32, 32, 32, 32, 32, 32, 32, 32]
    >>> layout.slices[1].ranges
    (range(32, 64),)
    >>> [s.ranges for s in BankLayout(2000, 24, 90, DRAMTimings()).slices]
    [(range(0, 2),), (range(2, 88),), (range(88, 90),)]
    """

    def __init__(self, base_addr: int, row_size: int, n_rows: int,
                 timings: DRAMTimings):
        if row_size <= 0:
            raise ConfigurationError("rows must be at least one byte wide")
        if n_rows < 0:
            raise ConfigurationError("row count cannot be negative")
        self.base_addr = base_addr
        self.row_size = row_size
        self.n_rows = n_rows
        self.timings = timings
        page = timings.row_buffer_bytes
        ranges: Dict[int, List[range]] = {}
        first = 0
        while first < n_rows:
            block = (base_addr + first * row_size) // page
            # The first row whose start reaches the next page boundary.
            stop = min(n_rows, -(-((block + 1) * page - base_addr) // row_size))
            ranges.setdefault(block % timings.n_banks, []).append(
                range(first, stop))
            first = stop
        self.slices: Tuple[BankSlice, ...] = tuple(
            BankSlice(bank, tuple(ranges[bank])) for bank in sorted(ranges)
        )

    def page_of(self, row_id: int) -> int:
        """The global DRAM page (block) index a row starts in."""
        if not 0 <= row_id < self.n_rows:
            raise ConfigurationError(
                f"row {row_id} outside table of {self.n_rows} rows"
            )
        return (self.base_addr + row_id * self.row_size) \
            // self.timings.row_buffer_bytes
