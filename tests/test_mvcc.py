"""Tests for MVCC versioning and snapshot-isolation transactions."""

import pytest

from repro.errors import SchemaError, TransactionError, WriteConflictError
from repro.storage import (
    Column,
    Schema,
    TransactionManager,
    VersionedRowTable,
    int64,
)
from repro.storage.mvcc import BEGIN_COL, END_COL, LIVE_TS


def make_versioned():
    schema = Schema([Column("key", int64()), Column("val", int64())])
    table = VersionedRowTable("accounts", schema)
    return table, TransactionManager(table)


def test_reserved_column_names_rejected():
    with pytest.raises(SchemaError):
        VersionedRowTable("x", Schema([Column(BEGIN_COL, int64())]))


def test_physical_layout_appends_timestamps_after_user_columns():
    table, _mgr = make_versioned()
    names = table.table.schema.names
    assert names == ["key", "val", BEGIN_COL, END_COL]
    # User column groups stay contiguous for the RME.
    offset, width = table.table.schema.column_group(["key", "val"])
    assert (offset, width) == (0, 16)


def test_insert_and_snapshot_visibility():
    table, mgr = make_versioned()
    ts = mgr.insert([1, 100])
    assert table.snapshot_values(ts) == [(1, 100)]
    assert table.snapshot_values(ts - 1) == []  # before the insert


def test_update_appends_version_old_snapshot_stable():
    table, mgr = make_versioned()
    ts1 = mgr.insert([1, 100])
    ts2 = mgr.update(1, [1, 200])
    assert table.n_versions == 2
    assert table.snapshot_values(ts1) == [(1, 100)]
    assert table.snapshot_values(ts2) == [(1, 200)]


def test_delete_hides_row_going_forward():
    table, mgr = make_versioned()
    ts1 = mgr.insert([1, 100])
    ts2 = mgr.delete(1)
    assert table.snapshot_values(ts1) == [(1, 100)]
    assert table.snapshot_values(ts2) == []
    assert table.live_count() == 0


def test_visibility_mask_matches_snapshot():
    table, mgr = make_versioned()
    mgr.insert([1, 100])
    mgr.insert([2, 200])
    ts = mgr.update(1, [1, 111])
    mask = table.visibility_mask(ts)
    assert mask == [False, True, True]  # old v1 hidden, v2 and new v1 visible
    visible = [row for row, ok in zip(table.table.scan(), mask) if ok]
    assert sorted(r[0] for r in visible) == [1, 2]


def test_live_ts_sentinel():
    table, mgr = make_versioned()
    mgr.insert([1, 100])
    row = table.table.row(0)
    assert row[-1] == LIVE_TS


def test_transaction_read_your_writes():
    table, mgr = make_versioned()
    mgr.insert([1, 100])
    txn = mgr.begin()
    txn.update(1, [1, 999])
    assert txn.read(1) == (1, 999)
    txn.insert([2, 200])
    assert txn.read(2) == (2, 200)
    txn.delete(1)
    assert txn.read(1) is None


def test_uncommitted_writes_invisible_to_others():
    table, mgr = make_versioned()
    txn = mgr.begin()
    txn.insert([1, 100])
    other = mgr.begin()
    assert other.read(1) is None
    txn.commit()
    late = mgr.begin()
    assert late.read(1) == (1, 100)


def test_snapshot_isolation_repeatable_reads():
    table, mgr = make_versioned()
    mgr.insert([1, 100])
    reader = mgr.begin()
    assert reader.read(1) == (1, 100)
    mgr.update(1, [1, 200])  # concurrent committed write
    assert reader.read(1) == (1, 100)  # snapshot unchanged


def test_first_committer_wins():
    table, mgr = make_versioned()
    mgr.insert([1, 100])
    t1 = mgr.begin()
    t2 = mgr.begin()
    t1.update(1, [1, 111])
    t2.update(1, [1, 222])
    t1.commit()
    with pytest.raises(WriteConflictError):
        t2.commit()
    assert table.snapshot_values(mgr.now_ts) == [(1, 111)]


def test_disjoint_writes_both_commit():
    table, mgr = make_versioned()
    mgr.insert([1, 100])
    mgr.insert([2, 200])
    t1 = mgr.begin()
    t2 = mgr.begin()
    t1.update(1, [1, 111])
    t2.update(2, [2, 222])
    t1.commit()
    t2.commit()
    assert sorted(table.snapshot_values(mgr.now_ts)) == [(1, 111), (2, 222)]


def test_abort_discards_writes():
    table, mgr = make_versioned()
    txn = mgr.begin()
    txn.insert([1, 100])
    txn.abort()
    assert table.n_versions == 0
    with pytest.raises(TransactionError):
        txn.commit()


def test_finished_transaction_unusable():
    table, mgr = make_versioned()
    txn = mgr.begin()
    txn.insert([1, 1])
    txn.commit()
    with pytest.raises(TransactionError):
        txn.read(1)


def test_write_validation():
    table, mgr = make_versioned()
    mgr.insert([1, 100])
    txn = mgr.begin()
    with pytest.raises(TransactionError):
        txn.insert([1, 999])  # duplicate key
    with pytest.raises(TransactionError):
        txn.update(42, [42, 0])  # unknown key
    with pytest.raises(TransactionError):
        txn.delete(42)


def test_update_cannot_change_key():
    table, mgr = make_versioned()
    mgr.insert([1, 100])
    with pytest.raises(TransactionError):
        table.update(1, [2, 100], ts=99)


def test_buffered_update_cannot_change_key():
    table, mgr = make_versioned()
    mgr.insert([1, 100])
    txn = mgr.begin()
    with pytest.raises(TransactionError):
        txn.update(1, [2, 100])  # rejected at buffer time, not at commit


# -- commit atomicity and same-key coalescing -------------------------------------


def test_reinsert_after_delete_coalesces_to_update():
    table, mgr = make_versioned()
    mgr.insert([1, 100])
    txn = mgr.begin()
    txn.delete(1)
    assert txn.read(1) is None
    txn.insert([1, 999])
    assert txn.read(1) == (1, 999)
    txn.commit()
    assert table.snapshot_values(mgr.now_ts) == [(1, 999)]
    # One close-and-append, not a delete plus a blocked insert.
    assert table.n_versions == 2


def test_insert_then_update_coalesces_to_insert():
    table, mgr = make_versioned()
    txn = mgr.begin()
    txn.insert([1, 100])
    txn.update(1, [1, 200])
    txn.commit()
    assert table.snapshot_values(mgr.now_ts) == [(1, 200)]
    assert table.n_versions == 1


def test_insert_then_delete_cancels_out():
    table, mgr = make_versioned()
    txn = mgr.begin()
    txn.insert([1, 100])
    txn.delete(1)
    assert txn.write_set == {}
    txn.commit()
    assert table.n_versions == 0


def test_first_committer_wins_interleaved_write_sets():
    table, mgr = make_versioned()
    mgr.insert([1, 100])
    mgr.insert([2, 200])
    t1 = mgr.begin()
    t2 = mgr.begin()
    t1.update(1, [1, 111])
    t1.update(2, [2, 211])
    t2.update(2, [2, 222])  # overlaps t1 on key 2 only
    t2.insert([3, 333])     # disjoint key
    t1.commit()
    with pytest.raises(WriteConflictError):
        t2.commit()
    # The loser's whole write set is discarded — key 3 never landed.
    assert sorted(table.snapshot_values(mgr.now_ts)) == [(1, 111), (2, 211)]
    assert table.live_version_of(3) is None


def test_late_conflict_applies_nothing():
    table, mgr = make_versioned()
    mgr.insert([1, 100])
    txn = mgr.begin()
    txn.update(1, [1, 111])
    txn.insert([2, 222])
    # The key vanishes out-of-band (no timestamp bump, so the
    # first-committer check cannot see it): the whole-write-set
    # validation must refuse before anything mutates.
    table.delete(1, ts=mgr.now_ts)
    versions_before = table.n_versions
    with pytest.raises(TransactionError, match="no live version"):
        txn.commit()
    assert table.n_versions == versions_before  # key 2 never landed
    assert table.live_version_of(2) is None
    assert not txn.active


def test_point_read_walks_one_chain():
    table, mgr = make_versioned()
    for key in range(8):
        mgr.insert([key, 0])
    for bump in range(1, 4):
        mgr.update(3, [3, bump])
    assert table.visible_version(3, mgr.now_ts) is not None
    reader = mgr.begin()
    assert reader.read(3) == (3, 3)
    assert reader.read(42) is None
    assert len(table._versions[3]) == 4
    assert [reader.read(k) for k in range(8)] == \
        [(k, 3 if k == 3 else 0) for k in range(8)]


# -- property: snapshot visibility is begin <= ts < end ---------------------------


from hypothesis import given, settings
from hypothesis import strategies as st

_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "update", "delete"]),
              st.integers(0, 3), st.integers(-100, 100)),
    max_size=24,
)


@settings(max_examples=50, deadline=None)
@given(_ops)
def test_snapshot_visibility_property(ops):
    table, mgr = make_versioned()
    expected = {}          # key -> values, live state after each commit
    states = [dict(expected)]
    for op, key, val in ops:
        try:
            if op == "insert":
                mgr.insert([key, val])
                expected[key] = (key, val)
            elif op == "update":
                mgr.update(key, [key, val])
                expected[key] = (key, val)
            else:
                mgr.delete(key)
                del expected[key]
        except TransactionError:
            continue  # op invalid against live state; clock untouched
        states.append(dict(expected))
    for ts, state in enumerate(states):
        assert sorted(table.snapshot_values(ts)) == sorted(state.values())
        # Every version the mask admits satisfies begin <= ts < end.
        for idx, ok in enumerate(table.visibility_mask(ts)):
            row = table.table.row(idx)
            assert ok == (row[-2] <= ts < row[-1])
