"""A B+-tree index over a row-store key column (Section 4).

The paper keeps indexes in the story: "Base data indexes on the row-major
data can still be very useful when updating the data [...] and when we
have a very selective query. [...] the query optimizer can decide to
execute one query with indexes and another query with columns".

The index here is a bulk-loaded B+-tree over one numeric column:

* **leaves** hold sorted ``(key, row_index)`` pairs in fixed-size blocks
  and are chained left to right;
* **internal levels** hold separator keys and child pointers.

Besides the functional operations (point and range lookup, append), the
index exposes its *physical* layout — every node has a deterministic byte
offset in a serialised node array — so the simulator can price an index
probe as the real memory accesses it causes: one cache-line-sized touch
per node on the root-to-leaf path, plus the chained leaves of the range.
"""

from __future__ import annotations

import bisect
from itertools import count
from typing import Any, List, Optional, Tuple

from ..errors import QueryError, SchemaError
from .row_table import RowTable

#: Bytes one (key, pointer) slot occupies in a serialised node.
SLOT_BYTES = 16


class BPlusTreeIndex:
    """A bulk-loaded B+-tree mapping key values to row indices."""

    def __init__(self, column: str, fanout: int = 16):
        if fanout < 2:
            raise QueryError("B+-tree fanout must be at least 2")
        self.column = column
        self.fanout = fanout
        #: Sorted leaf entries: parallel arrays of keys and row indices.
        self._keys: List[Any] = []
        self._rows: List[int] = []

    # -- construction -----------------------------------------------------------
    @classmethod
    def build(cls, table: RowTable, column: str, fanout: int = 16) -> "BPlusTreeIndex":
        """Bulk-load the index from a table (sort once, pack leaves)."""
        if column not in table.schema:
            raise SchemaError(f"unknown column {column!r}")
        if not table.schema.column(column).ctype.is_numeric:
            raise QueryError(f"index column {column!r} must be numeric")
        index = cls(column, fanout)
        pairs = sorted(zip(table.column_values(column), count()))
        index._keys = [k for k, _r in pairs]
        index._rows = [r for _k, r in pairs]
        return index

    def insert(self, key: Any, row_idx: int) -> None:
        """Insert one entry (appends during ingest keep the index usable)."""
        position = bisect.bisect_right(self._keys, key)
        self._keys.insert(position, key)
        self._rows.insert(position, row_idx)

    # -- shape ---------------------------------------------------------------------
    @property
    def n_entries(self) -> int:
        return len(self._keys)

    @property
    def n_leaves(self) -> int:
        return max(1, -(-len(self._keys) // self.fanout))

    @property
    def height(self) -> int:
        """Levels from root to leaf, inclusive (a root-only tree is 1)."""
        levels = 1
        nodes = self.n_leaves
        while nodes > 1:
            nodes = -(-nodes // self.fanout)
            levels += 1
        return levels

    @property
    def n_nodes(self) -> int:
        total = 0
        nodes = self.n_leaves
        while True:
            total += nodes
            if nodes == 1:
                return total
            nodes = -(-nodes // self.fanout)

    @property
    def node_bytes(self) -> int:
        """Serialised size of one node."""
        return self.fanout * SLOT_BYTES

    @property
    def nbytes(self) -> int:
        return self.n_nodes * self.node_bytes

    # -- functional lookups ----------------------------------------------------------
    def lookup(self, key: Any) -> List[int]:
        """Row indices of every entry with exactly this key."""
        left = bisect.bisect_left(self._keys, key)
        right = bisect.bisect_right(self._keys, key)
        return self._rows[left:right]

    def range(
        self,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        inclusive: Tuple[bool, bool] = (True, True),
    ) -> List[int]:
        """Row indices with keys in the given (optionally open) range."""
        if low is None:
            left = 0
        elif inclusive[0]:
            left = bisect.bisect_left(self._keys, low)
        else:
            left = bisect.bisect_right(self._keys, low)
        if high is None:
            right = len(self._keys)
        elif inclusive[1]:
            right = bisect.bisect_right(self._keys, high)
        else:
            right = bisect.bisect_left(self._keys, high)
        return self._rows[left:max(left, right)]

    # -- physical layout (for the timing model) -----------------------------------------
    def _level_sizes(self) -> List[int]:
        """Node counts per level, leaves first."""
        sizes = [self.n_leaves]
        while sizes[-1] > 1:
            sizes.append(-(-sizes[-1] // self.fanout))
        return sizes

    def node_offset(self, level: int, node: int) -> int:
        """Byte offset of a node in the serialised array (root last).

        ``level`` 0 is the leaf level.
        """
        sizes = self._level_sizes()
        if not 0 <= level < len(sizes):
            raise QueryError(f"level {level} out of range")
        if not 0 <= node < sizes[level]:
            raise QueryError(f"node {node} out of range at level {level}")
        return (sum(sizes[:level]) + node) * self.node_bytes

    def probe_offsets(self, key: Any) -> List[int]:
        """Byte offsets of the root-to-leaf path for a point probe."""
        sizes = self._level_sizes()
        leaf = min(
            bisect.bisect_left(self._keys, key) // self.fanout,
            sizes[0] - 1,
        )
        offsets = []
        for level in range(len(sizes) - 1, -1, -1):
            ancestor = leaf // (self.fanout ** level)
            offsets.append(self.node_offset(level, min(ancestor, sizes[level] - 1)))
        return offsets

    def leaf_offsets_for_range(
        self, low: Optional[Any], high: Optional[Any]
    ) -> List[int]:
        """Byte offsets of the chained leaves a range scan walks."""
        left = 0 if low is None else bisect.bisect_left(self._keys, low)
        right = len(self._keys) if high is None else bisect.bisect_right(self._keys, high)
        if right <= left:
            return []
        first_leaf = left // self.fanout
        last_leaf = min((right - 1) // self.fanout, self.n_leaves - 1)
        return [self.node_offset(0, leaf) for leaf in range(first_leaf, last_leaf + 1)]
