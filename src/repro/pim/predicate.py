"""Compile query predicates onto the in-bank comparator array.

The PIM sequencer evaluates exactly what the RME's pushdown surface
already defines — :class:`repro.rme.pushdown.HWSelection` comparators
(``column OP integer-constant`` over a little-endian signed field) —
but it runs one comparator pass per *bank* and combines the resulting
per-comparator bitmaps with bulk bitwise AND/OR, instead of filtering a
projection stream. This module turns a query's predicate expression
tree into that program:

1. :func:`predicate_spec` — a structural pass with no schema: the tree
   must be comparisons of one column against one integer constant,
   combined with AND/OR. Anything else (arithmetic inside a comparison,
   column-vs-column, float constants) raises
   :class:`PimUnsupportedError` naming the offending subtree.
2. :meth:`PredicateSpec.bind` — resolve column names against a schema
   into :class:`HWSelection` leaves (this is where field offsets and
   1/2/4/8-byte width constraints are enforced) and return a runnable
   :class:`PredicateProgram`.

The split lets the planner test eligibility cheaply (and the CLI report
ineligibility as a one-line usage error) before any table exists.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import repeat
from typing import List, Tuple, Union

from ..errors import ConfigurationError, QueryError
from ..rme.pushdown import AGG_FUNCS, CMP_OPS, HWSelection, unreadable_field
from .bitmap import SelectionBitmap

#: ``struct`` codes of the comparator's signed 1/2/4/8-byte fields.
_FIELD_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}

#: Verdict bytes 0/1 as the ASCII digits ``int(..., 2)`` parses.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")

#: Flip a comparison when the constant is on the left: ``5 < A1`` == ``A1 > 5``.
_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


class PimUnsupportedError(QueryError):
    """The query cannot be lowered onto the bank-level PIM engine."""


@dataclass(frozen=True)
class CmpLeaf:
    """One comparator: ``column OP constant``."""

    column: str
    op: str
    constant: int


@dataclass(frozen=True)
class BoolNode:
    """A bulk bitwise combine of two sub-programs."""

    op: str  #: "and" | "or"
    left: Union["BoolNode", CmpLeaf]
    right: Union["BoolNode", CmpLeaf]


@dataclass(frozen=True)
class PredicateSpec:
    """The schema-free comparator/combine program of one predicate."""

    root: Union[BoolNode, CmpLeaf]
    leaves: Tuple[CmpLeaf, ...]

    @property
    def n_compare(self) -> int:
        """Comparator passes per row (one per leaf)."""
        return len(self.leaves)

    @property
    def n_combine(self) -> int:
        """Bulk bitwise AND/OR passes over the bank's bitmap words."""
        return len(self.leaves) - 1

    @property
    def columns(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for leaf in self.leaves:
            if leaf.column not in seen:
                seen.append(leaf.column)
        return tuple(seen)

    def bind(self, schema) -> "PredicateProgram":
        """Resolve columns to offsets/widths and validate the comparators."""
        comparators = []
        for leaf in self.leaves:
            if leaf.column not in schema:
                raise PimUnsupportedError(
                    f"predicate references unknown column {leaf.column!r}"
                )
            reason = unreadable_field(schema, leaf.column)
            if reason:
                raise PimUnsupportedError(reason)
            comparator = HWSelection(
                field_offset=schema.offset_of(leaf.column),
                field_width=schema.column(leaf.column).size,
                op=leaf.op,
                constant=leaf.constant,
            )
            try:
                comparator.validate(schema.row_size)
            except ConfigurationError as error:
                raise PimUnsupportedError(
                    f"column {leaf.column!r} does not fit the in-bank "
                    f"comparator: {error}"
                ) from None
            comparators.append(comparator)
        return PredicateProgram(self, tuple(comparators))


@dataclass(frozen=True)
class PredicateProgram:
    """A bound program: comparators with resolved field offsets."""

    spec: PredicateSpec
    comparators: Tuple[HWSelection, ...]

    @property
    def n_compare(self) -> int:
        return self.spec.n_compare

    @property
    def n_combine(self) -> int:
        return self.spec.n_combine

    def run(self, blob: bytes, n_rows: int) -> SelectionBitmap:
        """Evaluate over one bank's ``n_rows`` packed rows, end to end in
        ``blob``: comparator bitmaps, then the bulk AND/OR combine tree.
        Bit ``i`` = row ``i`` of the blob matched.

        Each comparator sweeps the whole bank at once
        (:func:`sweep_bank`); the combine is bigint bitwise AND/OR.
        """
        by_leaf = {
            leaf: SelectionBitmap(n_rows, sweep_bank(cmp, blob, n_rows))
            for leaf, cmp in zip(self.spec.leaves, self.comparators)
        }

        def fold(node) -> SelectionBitmap:
            if isinstance(node, CmpLeaf):
                return by_leaf[node]
            left, right = fold(node.left), fold(node.right)
            return (left & right) if node.op == "and" else (left | right)

        return fold(self.spec.root)


def sweep_bank(comparator: HWSelection, blob: bytes, n_rows: int) -> int:
    """One comparator over a bank's packed rows: the selection bits.

    ``blob`` is ``n_rows`` equal-size packed rows end to end; bit ``i``
    of the result is set iff row ``i`` matches, exactly as
    :meth:`HWSelection.matches` decides it row by row. One ``struct``
    pattern (byte order pinned little-endian) unpacks every row's field
    as a Python int, the comparison goes through the same op table
    (:data:`repro.rme.pushdown.CMP_OPS`) and so is exact for any
    integer constant, and the verdict bytes become the bitmap at C
    speed.

    >>> rows = struct.pack("<3h", 5, -3, 9)  # three 2-byte rows
    >>> bin(sweep_bank(HWSelection(0, 2, ">", 0), rows, 3))
    '0b101'
    """
    if not n_rows:
        return 0
    offset, width = comparator.field_offset, comparator.field_width
    pad = len(blob) // n_rows - offset - width
    row = f"{offset}x{_FIELD_CODES[width]}{pad}x"
    values = struct.unpack("<" + row * n_rows, blob)
    verdicts = bytes(map(CMP_OPS[comparator.op], values,
                         repeat(comparator.constant, n_rows)))
    return int(verdicts[::-1].translate(_DIGITS), 2)


def _fold_const(expr):
    """Collapse a column-free arithmetic subtree to one ``Const``.

    The SQL parser spells negative literals as ``Const(0) - Const(k)``;
    the comparator array only takes an immediate, so fold anything that
    evaluates without a row before rejecting it as arithmetic.
    """
    from ..query.expr import Col, Const

    if isinstance(expr, (Col, Const)):
        return expr
    try:
        return Const(expr.eval({}))
    except Exception:
        return expr


def _as_leaf(node) -> CmpLeaf:
    """One comparison expression -> a comparator leaf, or raise."""
    from ..query.expr import BinOp, Col, Const

    if not isinstance(node, BinOp) or node.op not in CMP_OPS:
        raise PimUnsupportedError(
            f"subexpression {node!r} is not a comparison the in-bank "
            f"comparator implements"
        )
    left, right, op = node.left, node.right, node.op
    left, right = _fold_const(left), _fold_const(right)
    if isinstance(left, Const) and isinstance(right, Col):
        left, right, op = right, left, _MIRROR[op]
    if not (isinstance(left, Col) and isinstance(right, Const)):
        raise PimUnsupportedError(
            f"comparison {node!r} must compare one column against one "
            f"constant (no arithmetic, no column-vs-column) for PIM"
        )
    if not isinstance(right.value, int) or isinstance(right.value, bool):
        raise PimUnsupportedError(
            f"comparison constant {right.value!r} is not an integer; the "
            f"comparator array is integer-only"
        )
    return CmpLeaf(column=left.name, op=op, constant=right.value)


def predicate_spec(predicate) -> PredicateSpec:
    """Lower a predicate expression tree to a comparator/combine spec.

    >>> from repro.query.expr import Col
    >>> spec = predicate_spec((Col("A1") < 5).and_(Col("A2") >= 0))
    >>> spec.n_compare, spec.n_combine, spec.columns
    (2, 1, ('A1', 'A2'))
    """
    from ..query.expr import BinOp

    leaves: List[CmpLeaf] = []

    def walk(node):
        if isinstance(node, BinOp) and node.op in ("and", "or"):
            return BoolNode(node.op, walk(node.left), walk(node.right))
        leaf = _as_leaf(node)
        leaves.append(leaf)
        return leaf

    root = walk(predicate)
    return PredicateSpec(root=root, leaves=tuple(leaves))


def supports_query(query) -> str:
    """Why ``query`` cannot run on the PIM engine, or ``""`` if it can.

    Eligible queries either aggregate (COUNT/SUM/MIN/MAX of a bare
    column, single pass — grouped or plain: with a GROUP BY each bank
    folds its matches into a local key→state table that the CPU merges
    at the transfer boundary) or select rows with a comparator-compilable
    predicate; a bare full projection moves every row anyway, so there
    is nothing to push down.
    """
    from ..query.expr import Col

    if query.passes != 1:
        return "multi-pass aggregates recirculate on the CPU"
    if query.aggregate is not None:
        if query.aggregate not in AGG_FUNCS:
            kind = ("in-bank group accumulators" if query.group_by is not None
                    else "in-bank accumulators")
            return (f"aggregate {query.aggregate!r} is not one of the "
                    f"{kind} {AGG_FUNCS}")
        if query.aggregate != "count" and not isinstance(query.agg_expr, Col):
            return ("the in-bank accumulator reads one column field, not "
                    f"the expression {query.agg_expr!r}")
    elif query.group_by is not None:
        return ("GROUP BY without an aggregate gives the in-bank group "
                "table nothing to fold")
    elif query.predicate is None:
        return "a bare projection has nothing to push down"
    if query.predicate is not None:
        try:
            predicate_spec(query.predicate)
        except PimUnsupportedError as error:
            return str(error)
    return ""


def bank_fields(query) -> Tuple[str, ...]:
    """The columns whose fields the banks decode for an eligible query:
    the predicate's, the aggregated one (not for COUNT) and the GROUP BY
    key. Projected columns are decoded by the CPU's gather.

    >>> from repro.query.sql import parse_query
    >>> bank_fields(parse_query("SELECT SUM(A3) FROM S WHERE A1 < 5 GROUP BY A2"))
    ('A1', 'A3', 'A2')
    """
    fields = list(predicate_spec(query.predicate).columns
                  if query.predicate is not None else ())
    if query.aggregate not in (None, "count"):
        fields.append(query.agg_expr.name)
    if query.group_by is not None:
        fields.append(query.group_by)
    return tuple(dict.fromkeys(fields))


def supports_join(on: str, lhs_query, rhs_query) -> str:
    """Why the join cannot run at the banks, or ``""`` if it can.

    Each side must be a plain single-pass selection/projection scan (no
    aggregates below the join) whose predicate — if any — compiles onto
    the comparator array, and both sides must project the join key so
    the banks can hash-partition on it.
    """
    for label, query in (("left", lhs_query), ("right", rhs_query)):
        if query.aggregate is not None or query.group_by is not None:
            return (f"the {label} side aggregates below the join; in-bank "
                    "join inputs are plain scans")
        if query.passes != 1:
            return f"the {label} side is multi-pass"
        if on not in query.select:
            return (f"the {label} side does not project the join key "
                    f"{on!r}; the banks hash-partition on it")
        if query.predicate is not None:
            try:
                predicate_spec(query.predicate)
            except PimUnsupportedError as error:
                return f"the {label} side: {error}"
    return ""
