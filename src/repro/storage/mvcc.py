"""MVCC row versioning and snapshot-isolation transactions (Section 4).

The paper handles updates on the row-oriented base data with two hidden
timestamp fields per row version:

    "The first timestamp is set when the row is inserted and marks the
    beginning of its validity, and the second is set when the row is
    deleted or replaced by a newer version, marking the end of its
    validity. Every time an ephemeral variable is accessed, it generates
    the (group of) column(s) that contain the rows that are valid at the
    time of the query. [...] Relational Memory also supports MVCC
    transactions through snapshot isolation."

:class:`VersionedRowTable` appends ``__begin_ts``/``__end_ts`` columns to
the user schema and stores every version as a physical row (new versions
are appended — row-stores are good at that). :class:`TransactionManager`
provides begin/commit with snapshot reads and first-committer-wins
write-conflict detection.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import SchemaError, TransactionError, WriteConflictError
from .row_table import RowTable
from .schema import Column, Schema, int64

#: End-timestamp of a live (not yet superseded) version.
LIVE_TS = (1 << 63) - 1

#: Names of the hidden versioning columns.
BEGIN_COL = "__begin_ts"
END_COL = "__end_ts"
_TIMESTAMPS = (BEGIN_COL, END_COL)


class VersionedRowTable:
    """A row-store whose rows carry begin/end validity timestamps.

    Logical rows are identified by a stable ``key`` (the first schema
    column by default); each update appends a new physical version and
    closes the previous one. The physical layout keeps the timestamps
    *after* the user columns so user column groups stay contiguous for the
    RME.
    """

    def __init__(self, name: str, schema: Schema, key_column: Optional[str] = None):
        for reserved in (BEGIN_COL, END_COL):
            if reserved in schema:
                raise SchemaError(f"column name {reserved!r} is reserved for MVCC")
        self.user_schema = schema
        self.key_column = key_column or schema.columns[0].name
        schema.column(self.key_column)  # validate it exists
        physical = list(schema.columns) + [
            Column(BEGIN_COL, int64()),
            Column(END_COL, int64()),
        ]
        self.table = RowTable(name, Schema(physical))
        #: key -> physical index of the live version (None if deleted).
        self._live: Dict[Any, Optional[int]] = {}
        #: key -> physical indices of every version, oldest first. Point
        #: reads walk one key's chain instead of rescanning the table.
        self._versions: Dict[Any, List[int]] = {}

    # -- shape ----------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.table.name

    @property
    def n_versions(self) -> int:
        return self.table.n_rows

    def live_count(self) -> int:
        return sum(1 for idx in self._live.values() if idx is not None)

    # -- version-level operations (used by transactions) --------------------------
    def insert(self, values: Sequence[Any], ts: int) -> int:
        key = values[self.user_schema.index_of(self.key_column)]
        if self._live.get(key) is not None:
            raise TransactionError(f"key {key!r} already has a live version")
        idx = self.table.append(tuple(values) + (ts, LIVE_TS))
        self._live[key] = idx
        self._versions.setdefault(key, []).append(idx)
        return idx

    def update(self, key: Any, values: Sequence[Any], ts: int) -> int:
        """Close the live version of ``key`` and append the new one."""
        old = self._require_live(key)
        new_key = values[self.user_schema.index_of(self.key_column)]
        if new_key != key:
            raise TransactionError("updates may not change the row key")
        self.table.update_column(old, END_COL, ts)
        idx = self.table.append(tuple(values) + (ts, LIVE_TS))
        self._live[key] = idx
        self._versions.setdefault(key, []).append(idx)
        return idx

    def delete(self, key: Any, ts: int) -> None:
        old = self._require_live(key)
        self.table.update_column(old, END_COL, ts)
        self._live[key] = None

    def _require_live(self, key: Any) -> int:
        idx = self._live.get(key)
        if idx is None:
            raise TransactionError(f"key {key!r} has no live version")
        return idx

    def live_version_of(self, key: Any) -> Optional[int]:
        return self._live.get(key)

    # -- snapshot reads -----------------------------------------------------------
    def visible_at(self, version_idx: int, ts: int) -> bool:
        """Standard MVCC visibility: begin <= ts < end."""
        begin, end = self.table.row(version_idx, _TIMESTAMPS)
        return begin <= ts < end

    def visible_version(self, key: Any, ts: int) -> Optional[int]:
        """The physical index of ``key``'s version visible at ``ts``.

        Walks only that key's version chain (newest first — at most one
        version is visible at any timestamp), so a point read costs
        O(chain) instead of a full physical rescan.
        """
        for idx in reversed(self._versions.get(key, [])):
            if self.visible_at(idx, ts):
                return idx
        return None

    def snapshot(self, ts: int) -> Iterator[Tuple[Any, ...]]:
        """User-schema tuples of every version valid at time ``ts``."""
        return iter(self.snapshot_values(ts))

    def snapshot_values(self, ts: int) -> List[Tuple[Any, ...]]:
        return list(compress(self.table.scan(self.user_schema.names),
                             self.visibility_mask(ts)))

    def visibility_mask(self, ts: int) -> List[bool]:
        """Per physical version: valid at ``ts``? The ephemeral-variable
        layer uses this to filter the projected column group the same way
        the hardware would while regenerating the columns. Reads only the
        two timestamp fields of each row, in one pass."""
        return [begin <= ts < end
                for begin, end in self.table.scan(_TIMESTAMPS)]


class Transaction:
    """One snapshot-isolation transaction."""

    def __init__(self, manager: "TransactionManager", txn_id: int, start_ts: int):
        self.manager = manager
        self.txn_id = txn_id
        self.start_ts = start_ts
        self.write_set: Dict[Any, Tuple[str, Optional[Sequence[Any]]]] = {}
        self.active = True

    # -- reads ------------------------------------------------------------------
    def read(self, key: Any) -> Optional[Tuple[Any, ...]]:
        """Point read: own buffered write, else the key's version chain
        (via the per-key index — O(chain), not O(n_versions))."""
        self._check_active()
        table = self.manager.table
        if key in self.write_set:
            op, values = self.write_set[key]
            return None if op == "delete" else tuple(values)
        idx = table.visible_version(key, self.start_ts)
        if idx is None:
            return None
        return table.table.row(idx)[:-2]

    # -- buffered writes ------------------------------------------------------------
    #
    # Same-key operations coalesce at buffer time into the single table
    # operation their net effect requires, so the write set always applies
    # cleanly at commit: insert→update stays an insert (of the new values),
    # delete→insert of a snapshot-visible key becomes an update, and
    # insert→delete cancels out. Without this the dict write-set collapses
    # such pairs into an op that fails against live table state mid-apply,
    # after other keys' writes already landed.
    def insert(self, values: Sequence[Any]) -> None:
        self._check_active()
        table = self.manager.table
        key = values[table.user_schema.index_of(table.key_column)]
        if self.read(key) is not None:
            raise TransactionError(f"insert: key {key!r} already visible")
        pending = self.write_set.get(key)
        if (pending is not None and pending[0] == "delete"
                and table.visible_version(key, self.start_ts) is not None):
            # Re-insert over a snapshot-visible version this transaction
            # deleted: the table sees one close-and-append, i.e. an update.
            self.write_set[key] = ("update", tuple(values))
            return
        self.write_set[key] = ("insert", tuple(values))

    def update(self, key: Any, values: Sequence[Any]) -> None:
        self._check_active()
        table = self.manager.table
        if self.read(key) is None:
            raise TransactionError(f"update: key {key!r} not visible")
        new_key = values[table.user_schema.index_of(table.key_column)]
        if new_key != key:
            raise TransactionError("updates may not change the row key")
        pending = self.write_set.get(key)
        if pending is not None and pending[0] == "insert":
            # The row exists only in this transaction's buffer: the table
            # will see a plain insert of the latest values.
            self.write_set[key] = ("insert", tuple(values))
            return
        self.write_set[key] = ("update", tuple(values))

    def delete(self, key: Any) -> None:
        self._check_active()
        if self.read(key) is None:
            raise TransactionError(f"delete: key {key!r} not visible")
        pending = self.write_set.get(key)
        if pending is not None and pending[0] == "insert":
            # The insert never reached the table; the pair is a no-op.
            del self.write_set[key]
            return
        self.write_set[key] = ("delete", None)

    # -- lifecycle ----------------------------------------------------------------------
    def commit(self) -> int:
        return self.manager.commit(self)

    def abort(self) -> None:
        self._check_active()
        self.active = False
        self.write_set.clear()

    def _check_active(self) -> None:
        if not self.active:
            raise TransactionError(f"transaction {self.txn_id} is finished")


class TransactionManager:
    """Timestamps, snapshots and first-committer-wins conflict detection."""

    def __init__(self, table: VersionedRowTable):
        self.table = table
        self._clock = 0
        self._next_txn = 0
        #: key -> commit timestamp of its last writer.
        self._last_writer_ts: Dict[Any, int] = {}

    @property
    def now_ts(self) -> int:
        """The current logical time (latest commit)."""
        return self._clock

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def begin(self) -> Transaction:
        self._next_txn += 1
        return Transaction(self, self._next_txn, self._clock)

    def commit(self, txn: Transaction) -> int:
        """Apply a transaction's writes atomically at a fresh timestamp.

        Raises :class:`WriteConflictError` if any written key was committed
        by another transaction after ``txn`` took its snapshot
        (first-committer-wins, the classical snapshot-isolation rule).
        """
        txn._check_active()
        for key in txn.write_set:
            last = self._last_writer_ts.get(key, 0)
            if last > txn.start_ts:
                txn.active = False
                raise WriteConflictError(
                    f"write-write conflict on key {key!r}: committed at "
                    f"ts={last} after snapshot ts={txn.start_ts}"
                )
        # Validate the whole write set against live table state before
        # mutating anything: either every write applies or none does.
        for key, (op, _values) in txn.write_set.items():
            live = self.table.live_version_of(key)
            if op == "insert" and live is not None:
                txn.active = False
                raise TransactionError(
                    f"commit: key {key!r} already has a live version"
                )
            if op in ("update", "delete") and live is None:
                txn.active = False
                raise TransactionError(
                    f"commit: key {key!r} has no live version"
                )
        commit_ts = self._tick()
        for key, (op, values) in txn.write_set.items():
            if op == "insert":
                self.table.insert(values, commit_ts)
            elif op == "update":
                self.table.update(key, values, commit_ts)
            else:
                self.table.delete(key, commit_ts)
            self._last_writer_ts[key] = commit_ts
        txn.active = False
        return commit_ts

    # -- autocommit conveniences --------------------------------------------------------
    def insert(self, values: Sequence[Any]) -> int:
        txn = self.begin()
        txn.insert(values)
        return txn.commit()

    def update(self, key: Any, values: Sequence[Any]) -> int:
        txn = self.begin()
        txn.update(key, values)
        return txn.commit()

    def delete(self, key: Any) -> int:
        txn = self.begin()
        txn.delete(key)
        return txn.commit()
