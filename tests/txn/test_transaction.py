"""Tests for transaction identifiers, read/write sets and status bookkeeping."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.txn.transaction import (
    AbortReason,
    ReadEntry,
    Transaction,
    TxnAborted,
    TxnId,
    UserAbort,
    WriteEntry,
)


def make_txn(sequence=1, coordinator=0) -> Transaction:
    return Transaction(tid=TxnId(sequence, coordinator), coordinator=coordinator)


def test_txn_id_ordering_by_sequence_then_coordinator():
    assert TxnId(1, 3) < TxnId(2, 0)
    assert TxnId(2, 0) < TxnId(2, 1)
    assert TxnId(5, 2) == TxnId(5, 2)
    assert len({TxnId(5, 2), TxnId(5, 2), TxnId(6, 2)}) == 2


@settings(max_examples=50, deadline=None)
@given(
    a=st.tuples(st.integers(0, 1000), st.integers(0, 16)),
    b=st.tuples(st.integers(0, 1000), st.integers(0, 16)),
)
def test_txn_id_ordering_is_total_and_consistent(a, b):
    """Property: exactly one of <, ==, > holds for any two TIDs."""
    tid_a, tid_b = TxnId(*a), TxnId(*b)
    relations = [tid_a < tid_b, tid_a == tid_b, tid_b < tid_a]
    assert sum(relations) == 1


def test_effective_ts_prefers_assigned_ts():
    txn = make_txn()
    txn.lower_bound_ts = 5.0
    assert txn.effective_ts() == 5.0
    txn.ts = 9.0
    assert txn.effective_ts() == 9.0


def test_add_read_tracks_participants_and_distribution():
    txn = make_txn(coordinator=0)
    txn.add_read(ReadEntry(partition=0, table="t", key=1, value={}, local=True))
    assert not txn.is_distributed
    txn.add_read(ReadEntry(partition=2, table="t", key=7, value={}, local=False))
    assert txn.is_distributed
    assert txn.participants == {2}
    assert txn.all_partitions() == {0, 2}


def test_add_write_merges_updates_for_same_key():
    txn = make_txn()
    txn.add_write(WriteEntry(partition=0, table="t", key=1, updates={"a": 1}))
    txn.add_write(WriteEntry(partition=0, table="t", key=1, updates={"b": 2}))
    assert len(txn.write_set) == 1
    assert txn.write_set[0].updates == {"a": 1, "b": 2}


def test_writes_and_reads_filtered_by_partition():
    txn = make_txn()
    txn.add_read(ReadEntry(partition=0, table="t", key=1, value={}))
    txn.add_read(ReadEntry(partition=1, table="t", key=2, value={}, local=False))
    txn.add_write(WriteEntry(partition=1, table="t", key=2, updates={}, local=False))
    assert len(txn.reads_for_partition(0)) == 1
    assert len(txn.reads_for_partition(1)) == 1
    assert len(txn.writes_for_partition(1)) == 1
    assert txn.writes_for_partition(0) == []


def test_find_read_is_keyed_by_partition_table_and_key():
    txn = make_txn()
    entry = ReadEntry(partition=0, table="t", key=1, value={})
    txn.add_read(entry)
    assert txn.find_read(0, "t", 1) is entry
    assert txn.find_read(0, "t", 2) is None
    assert txn.find_read(1, "t", 1) is None


def test_breakdown_accumulates_and_ignores_non_positive():
    txn = make_txn()
    txn.add_breakdown("execute", 10.0)
    txn.add_breakdown("execute", 5.0)
    txn.add_breakdown("execute", 0.0)
    assert txn.breakdown["execute"] == 15.0


def test_abort_exceptions_carry_reasons():
    error = TxnAborted(AbortReason.LOCK_CONFLICT, "hot key")
    assert error.reason is AbortReason.LOCK_CONFLICT
    assert "hot key" in str(error)
    user = UserAbort("rollback requested")
    assert user.reason is AbortReason.USER
    assert isinstance(user, TxnAborted)
