"""Bank-level processing-in-memory engine (``@pim``).

The third execution engine of the shootout: predicates evaluate *inside*
DRAM banks (Membrane-style in-bank comparators producing selection
bitmaps, combined with bulk bitwise AND/OR), aggregates fold into an
in-bank accumulator — plain or GROUP BY (each bank keeps a local
key→state table merged at the transfer boundary) — and equi-joins
hash-partition the smaller side across the banks and stream the larger
side through the per-bank tables. Only bitmaps, register lines, group
entries, or matched row-id pairs cross the AXI boundary. See
``docs/pim.md`` for the design and the cost model's derivation.
"""

from .bank import BankLayout, BankSlice, bank_of_key
from .bitmap import SelectionBitmap
from .cost import (
    DEFAULT_GROUP_GUESS,
    GROUP_ENTRY_BYTES,
    MERGE_ENTRY_NS,
    PAIR_BYTES,
    RESULT_LINE_BYTES,
    PIMCostModel,
    estimate_join_ns,
    estimate_query_ns,
    expected_pages_touched,
)
from .engine import (BankPIM, PIMExecution, PIMJoinExecution,
                     pim_join_refusal, pim_refusal)
from .predicate import (
    PimUnsupportedError,
    PredicateProgram,
    PredicateSpec,
    bank_fields,
    predicate_spec,
    supports_join,
    supports_query,
)

__all__ = [
    "BankLayout",
    "BankSlice",
    "bank_of_key",
    "SelectionBitmap",
    "DEFAULT_GROUP_GUESS",
    "GROUP_ENTRY_BYTES",
    "MERGE_ENTRY_NS",
    "PAIR_BYTES",
    "RESULT_LINE_BYTES",
    "PIMCostModel",
    "estimate_join_ns",
    "estimate_query_ns",
    "expected_pages_touched",
    "BankPIM",
    "PIMExecution",
    "PIMJoinExecution",
    "pim_join_refusal",
    "pim_refusal",
    "PimUnsupportedError",
    "PredicateProgram",
    "PredicateSpec",
    "bank_fields",
    "predicate_spec",
    "supports_join",
    "supports_query",
]
