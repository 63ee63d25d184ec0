"""Hardware selection and aggregation pushdown.

The paper's conclusion: "implementing projection in hardware lays the
groundwork for other relational operators (selection, aggregation, group
by, join pre-processing)". This module builds the first two on top of the
projection engine:

* **HWSelection** — the Column Extractor additionally evaluates one
  comparison against a field of the extracted group and only *matching*
  rows are written (densely) to the reorganization buffer. A commit stage
  keeps the output in row order even though the MLP fetch units complete
  out of order, and the stream is finalised when the last row is decided
  (the CPU learns the match count from the engine, as it would from a
  count register).
* **HWAggregation** — SUM / COUNT / MIN / MAX over one field (optionally
  behind a HWSelection) accumulates inside the engine; the result is
  deposited as a single "register" cache line the CPU reads once. Data
  movement toward the CPU collapses to one line.

Both are configured through :meth:`repro.rme.engine.RMEngine.configure`'s
``pushdown`` parameter and surfaced through
:meth:`repro.core.relmem.RelationalMemorySystem.register_filtered_var`
and :meth:`~repro.core.relmem.RelationalMemorySystem.register_hw_aggregate`.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..storage.schema import RAW_INT_FMT

#: Comparison operators the PL comparator implements — and the in-bank
#: PIM comparator (:func:`repro.pim.predicate.sweep_bank`), which sweeps
#: a whole bank through the same table.
CMP_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}

#: Aggregation functions the PL accumulator implements.
AGG_FUNCS = ("sum", "count", "min", "max")

#: Column formats of the little-endian signed integers every field reader
#: here decodes: int8/16/32/64 and ``intn``'s any-width raw integer.
_SIGNED_INT_FORMATS = frozenset(("b", "h", "i", "q", RAW_INT_FMT))


def unreadable_field(schema, *columns: str) -> str:
    """Why the in-memory datapaths cannot read one of ``columns``, or ``""``.

    The PL comparator, join filter, accumulators and group table here,
    and the PIM bank sweep that shares their op table, decode every
    field as a little-endian signed integer; an unsigned, floating-point
    or byte-string column would be read as a different number.

    >>> from repro.storage.schema import Column, Schema, float64, int32
    >>> schema = Schema([Column("A", int32()), Column("F", float64())])
    >>> unreadable_field(schema, "A")
    ''
    >>> print(unreadable_field(schema, "A", "F"))
    column 'F' is float64; the in-memory datapaths read only signed integer fields
    """
    for column in columns:
        ctype = schema.column(column).ctype
        if ctype.fmt not in _SIGNED_INT_FORMATS:
            return (f"column {column!r} is {ctype.name}; the in-memory "
                    "datapaths read only signed integer fields")
    return ""


@dataclass(frozen=True)
class HWSelection:
    """One comparison evaluated in the programmable logic.

    ``field_offset``/``field_width`` locate a little-endian signed integer
    *within the packed column group*; rows failing ``value OP constant``
    are dropped before the buffer.
    """

    field_offset: int
    field_width: int
    op: str
    constant: int

    def validate(self, group_width: int) -> None:
        if self.op not in CMP_OPS:
            raise ConfigurationError(
                f"unsupported PL comparator {self.op!r}; "
                f"expected one of {sorted(CMP_OPS)}"
            )
        if self.field_width not in (1, 2, 4, 8):
            raise ConfigurationError(
                f"PL comparator field width must be 1/2/4/8 bytes, "
                f"got {self.field_width}"
            )
        if not 0 <= self.field_offset <= group_width - self.field_width:
            raise ConfigurationError(
                f"comparator field [{self.field_offset}, "
                f"+{self.field_width}) outside the {group_width}-byte group"
            )

    def matches(self, packed_row: bytes) -> bool:
        """Evaluate the comparison against one packed row."""
        raw = packed_row[self.field_offset : self.field_offset + self.field_width]
        value = int.from_bytes(raw, "little", signed=True)
        return CMP_OPS[self.op](value, self.constant)


@dataclass(frozen=True)
class HWJoinFilter:
    """Join pre-processing: a key-membership filter in the PL.

    The build side of a (semi-)join — the distinct join keys of the
    already-filtered dimension — is loaded into on-chip memory as a
    membership structure (a key bitmap/CAM in BRAM); the engine then
    drops every fact row whose key is absent. Drop-in compatible with
    :class:`HWSelection` wherever a row filter is accepted.
    """

    field_offset: int
    field_width: int
    keys: frozenset

    def validate(self, group_width: int) -> None:
        if self.field_width not in (1, 2, 4, 8):
            raise ConfigurationError(
                "join-filter key width must be 1/2/4/8 bytes"
            )
        if not 0 <= self.field_offset <= group_width - self.field_width:
            raise ConfigurationError(
                f"join key [{self.field_offset}, +{self.field_width}) "
                f"outside the {group_width}-byte group"
            )
        if not self.keys:
            raise ConfigurationError("join filter needs at least one key")

    def matches(self, packed_row: bytes) -> bool:
        raw = packed_row[self.field_offset : self.field_offset + self.field_width]
        return int.from_bytes(raw, "little", signed=True) in self.keys


#: Anything a pushdown row filter can be.
ROW_FILTERS = (HWSelection, HWJoinFilter)


@dataclass(frozen=True)
class HWAggregation:
    """An accumulator in the programmable logic.

    ``func`` applies to the little-endian signed field at
    ``field_offset``; rows are optionally pre-filtered by ``predicate``
    (a comparison or a join filter). The 8-byte result lands in the
    engine's result register line.
    """

    func: str
    field_offset: int
    field_width: int
    predicate: Optional[HWSelection] = None

    #: Bytes of the result register line the CPU reads.
    RESULT_BYTES = 64

    @property
    def result_buffer_bytes(self) -> int:
        return self.RESULT_BYTES

    def validate(self, group_width: int) -> None:
        if self.func not in AGG_FUNCS:
            raise ConfigurationError(
                f"unsupported PL aggregate {self.func!r}; "
                f"expected one of {AGG_FUNCS}"
            )
        if self.field_width not in (1, 2, 4, 8):
            raise ConfigurationError("PL aggregate field width must be 1/2/4/8")
        if not 0 <= self.field_offset <= group_width - self.field_width:
            raise ConfigurationError(
                f"aggregate field [{self.field_offset}, +{self.field_width}) "
                f"outside the {group_width}-byte group"
            )
        if self.predicate is not None:
            self.predicate.validate(group_width)

    def extract(self, packed_row: bytes) -> int:
        raw = packed_row[self.field_offset : self.field_offset + self.field_width]
        return int.from_bytes(raw, "little", signed=True)

    def make_accumulator(self) -> "AggregateAccumulator":
        return AggregateAccumulator(self)


@dataclass(frozen=True)
class HWGroupBy:
    """A grouped accumulator in the programmable logic.

    Rows (optionally pre-filtered) update a small on-chip group table
    keyed by the field at ``group_offset``; each entry holds one running
    ``func`` aggregate of the field at ``agg_offset``. The table is
    bounded like real hardware would be (``max_groups`` CAM entries) and
    is emitted at end-of-stream as packed (key, value) register lines —
    16 bytes per group, four groups per cache line.
    """

    group_offset: int
    group_width: int
    func: str
    agg_offset: int
    agg_width: int
    predicate: Optional[HWSelection] = None
    max_groups: int = 256

    #: Bytes per emitted (key, value) entry.
    ENTRY_BYTES = 16

    @property
    def result_buffer_bytes(self) -> int:
        # Line-aligned worst case: every CAM entry used.
        total = self.max_groups * self.ENTRY_BYTES
        return -(-total // 64) * 64

    def validate(self, group_width: int) -> None:
        if self.func not in AGG_FUNCS:
            raise ConfigurationError(
                f"unsupported PL aggregate {self.func!r}; "
                f"expected one of {AGG_FUNCS}"
            )
        for label, offset, width in (
            ("group key", self.group_offset, self.group_width),
            ("aggregate field", self.agg_offset, self.agg_width),
        ):
            if width not in (1, 2, 4, 8):
                raise ConfigurationError(f"{label} width must be 1/2/4/8")
            if not 0 <= offset <= group_width - width:
                raise ConfigurationError(
                    f"{label} [{offset}, +{width}) outside the "
                    f"{group_width}-byte group"
                )
        if self.max_groups < 1:
            raise ConfigurationError("the PL group table needs >= 1 entry")
        if self.predicate is not None:
            self.predicate.validate(group_width)

    def key_of(self, packed_row: bytes) -> int:
        raw = packed_row[self.group_offset : self.group_offset + self.group_width]
        return int.from_bytes(raw, "little", signed=True)

    def value_of(self, packed_row: bytes) -> int:
        raw = packed_row[self.agg_offset : self.agg_offset + self.agg_width]
        return int.from_bytes(raw, "little", signed=True)

    def make_accumulator(self) -> "GroupByAccumulator":
        return GroupByAccumulator(self)


class AggregateAccumulator:
    """The running PL-side accumulator for one configured aggregation."""

    def __init__(self, config: HWAggregation):
        self.config = config
        self.count = 0
        self.value: Optional[int] = None

    def feed(self, packed_row: bytes) -> None:
        if self.config.predicate is not None and not self.config.predicate.matches(
            packed_row
        ):
            return
        self.count += 1
        if self.config.func == "count":
            return
        sample = self.config.extract(packed_row)
        if self.value is None:
            self.value = sample
        elif self.config.func == "sum":
            self.value += sample
        elif self.config.func == "min":
            self.value = min(self.value, sample)
        elif self.config.func == "max":
            self.value = max(self.value, sample)

    def result(self) -> int:
        if self.config.func == "count":
            return self.count
        if self.value is None:
            raise ConfigurationError(
                f"PL {self.config.func} aggregate saw no matching rows"
            )
        return self.value

    def register_line(self) -> bytes:
        """The result register line: result (8 B) + match count (8 B)."""
        result = self.result() if (self.count or self.config.func == "count") else 0
        return (
            struct.pack("<qq", result, self.count).ljust(
                HWAggregation.RESULT_BYTES, b"\x00"
            )
        )

    def register_payload(self) -> bytes:
        return self.register_line()


class GroupByAccumulator:
    """The running PL-side group table for one configured GROUP BY."""

    def __init__(self, config: HWGroupBy):
        self.config = config
        #: key -> (count, running value)
        self.groups: dict = {}

    def feed(self, packed_row: bytes) -> None:
        cfg = self.config
        if cfg.predicate is not None and not cfg.predicate.matches(packed_row):
            return
        key = cfg.key_of(packed_row)
        if key not in self.groups and len(self.groups) >= cfg.max_groups:
            raise ConfigurationError(
                f"PL group table overflow: more than {cfg.max_groups} "
                "distinct keys (raise max_groups or group in software)"
            )
        sample = cfg.value_of(packed_row)
        count, value = self.groups.get(key, (0, None))
        if value is None:
            value = sample
        elif cfg.func == "sum":
            value += sample
        elif cfg.func == "min":
            value = min(value, sample)
        elif cfg.func == "max":
            value = max(value, sample)
        self.groups[key] = (count + 1, value)

    @property
    def count(self) -> int:
        """Rows that entered the group table (for trace parity)."""
        return sum(count for count, _value in self.groups.values())

    def result(self) -> dict:
        """key -> aggregate (counts for ``count``)."""
        if self.config.func == "count":
            return {key: count for key, (count, _v) in self.groups.items()}
        return {key: value for key, (_c, value) in self.groups.items()}

    def register_payload(self) -> bytes:
        """Packed (key, value) entries in ascending key order."""
        result = self.result()
        return b"".join(
            struct.pack("<qq", key, result[key]) for key in sorted(result)
        )
