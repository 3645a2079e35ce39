"""Tests for the write-ahead log manager and its replication-backed flushes."""

import copy

import pytest

from repro.cluster.cluster import Cluster
from repro.commit.logging import LogManager, LogRecordKind
from repro.protocols.base import install_write_entries
from repro.replication.raft import ReplicationGroup
from repro.sim.engine import Environment
from repro.sim.network import Network
from repro.txn.transaction import Transaction, TxnId, WriteEntry

from tests.conftest import tiny_config, tiny_ycsb


def make_log(n_replicas=3):
    env = Environment()
    network = Network(env, one_way_latency_us=50.0)
    replication = ReplicationGroup(env, network, 0, n_replicas, 100, storage_persist_us=20.0)
    return env, LogManager(env, 0, replication, log_write_us=10.0)


def flush(env, log):
    proc = env.process(log.flush())
    env.run(until=env.now + 10_000)
    return proc.value


def test_appends_get_increasing_lsns():
    env, log = make_log()
    first = log.append(LogRecordKind.WRITESET, txn_ts=1.0)
    second = log.append(LogRecordKind.WATERMARK)
    assert second.lsn == first.lsn + 1
    assert log.last_lsn == second.lsn
    assert log.unpersisted_count == 2


def test_flush_makes_prefix_durable_and_costs_time():
    env, log = make_log()
    log.append(LogRecordKind.WRITESET, txn_ts=1.0)
    log.append(LogRecordKind.WRITESET, txn_ts=2.0)
    start = env.now
    durable = flush(env, log)
    assert durable == 2
    assert log.durable_lsn == 2
    assert log.unpersisted_count == 0
    assert env.now > start  # log write + replication round trip took time
    assert log.is_durable(1) and log.is_durable(2)
    assert not log.is_durable(3)


def test_flush_with_empty_buffer_is_a_noop():
    env, log = make_log()
    assert flush(env, log) == 0
    assert log.counters.get("log_flushes") == 0


def test_unpersisted_min_ts_only_counts_writeset_records():
    env, log = make_log()
    log.append(LogRecordKind.WATERMARK, payload={"watermark": 1.0})
    assert log.unpersisted_min_ts() is None
    log.append(LogRecordKind.WRITESET, txn_ts=9.0)
    log.append(LogRecordKind.WRITESET, txn_ts=4.0)
    assert log.unpersisted_min_ts() == 4.0
    flush(env, log)
    assert log.unpersisted_min_ts() is None


def test_concurrent_flushes_group_together():
    env, log = make_log()
    log.append(LogRecordKind.WRITESET, txn_ts=1.0)
    first = env.process(log.flush())
    log.append(LogRecordKind.WRITESET, txn_ts=2.0)
    second = env.process(log.flush())
    env.run(until=env.now + 10_000)
    assert first.triggered and second.triggered
    assert log.durable_lsn == 2
    assert log.unpersisted_count == 0


def test_append_writeset_records_undo_images():
    env, log = make_log()
    txn = Transaction(tid=TxnId(1, 0), coordinator=0)
    txn.ts = 7.0
    dict_row = (("v",), (1,))
    record = log.append_writeset(txn, {("kv", 1): (1, 2.5), ("kv", 9): None,
                                       ("orders", (1, 2)): dict_row})
    assert record.kind is LogRecordKind.WRITESET
    assert record.txn_ts == 7.0
    # One flat tuple in write order, an image per key (None: an insert), no
    # redo copy and no wrapper.
    assert record.payload == ("kv", 1, (1, 2.5), "kv", 9, None, "orders", (1, 2), dict_row)
    assert list(record.undo_images()) == [("kv", 1, (1, 2.5)), ("kv", 9, None),
                                          ("orders", (1, 2), dict_row)]
    # Without undo images (no rollback can read them) the record is bare.
    bare = log.append_writeset(txn, None)
    assert bare.payload is None and bare.lsn == record.lsn + 1
    assert list(bare.undo_images()) == []


def test_writeset_records_at_or_after_filters_by_ts():
    env, log = make_log()
    for ts in (1.0, 5.0, 9.0):
        log.append(LogRecordKind.WRITESET, txn_ts=ts)
    log.append(LogRecordKind.WATERMARK, payload={"watermark": 9.0})
    selected = log.writeset_records_at_or_after(5.0)
    assert [r.txn_ts for r in selected] == [5.0, 9.0]


def test_latest_persisted_watermark_requires_replication():
    env, log = make_log()
    log.append(LogRecordKind.WATERMARK, payload={"watermark": 3.0})
    assert log.latest_persisted_watermark() == 0.0  # not yet replicated
    flush(env, log)
    log.append(LogRecordKind.WATERMARK, payload={"watermark": 8.0})
    assert log.latest_persisted_watermark() == 3.0
    flush(env, log)
    assert log.latest_persisted_watermark() == 8.0


def test_forget_keeps_only_what_a_recovery_can_read():
    env, log = make_log()
    for ts in (1.0, 5.0, 9.0):
        log.append(LogRecordKind.WRITESET, txn_ts=ts)
    log.append(LogRecordKind.WATERMARK, payload={"watermark": 2.0})
    log.append(LogRecordKind.WATERMARK, payload={"watermark": 3.0})
    flush(env, log)
    log.append(LogRecordKind.WATERMARK, payload={"watermark": 8.0})   # not persisted
    update = ("kv", 1, {"v": 1}, False, False)
    insert = ("kv", 2, {"v": 2}, True, False)
    log.append(LogRecordKind.COMMIT_DECISION, txn_ts=2.0, payload={1: (update,)})
    log.append(LogRecordKind.COMMIT_DECISION, txn_ts=2.0, payload={1: (update, insert)})
    log.append(LogRecordKind.COMMIT_DECISION, txn_ts=2.0)
    log.append(LogRecordKind.COMMIT_DECISION, txn_ts=7.0, payload={1: (update,)})
    log.append(LogRecordKind.EPOCH, payload={"epoch": 1})

    log.forget(writeset_floor=5.0, decision_floor=4.0)
    assert [(r.kind.name, r.txn_ts) for r in log.records()] == [
        ("WRITESET", 5.0), ("WRITESET", 9.0),
        ("WATERMARK", None), ("WATERMARK", None),   # the newest persisted, and 8.0
        ("COMMIT_DECISION", 2.0),                   # ships an insert
        ("COMMIT_DECISION", 7.0), ("EPOCH", None)]
    assert log.latest_persisted_watermark() == 3.0
    flush(env, log)
    assert log.latest_persisted_watermark() == 8.0
    assert [r.txn_ts for r in log.writeset_records_at_or_after(5.0)] == [5.0, 9.0]


def test_a_rollback_below_the_forgotten_history_fails_loudly():
    env, log = make_log()
    for ts in (1.0, 5.0, 9.0):
        log.append(LogRecordKind.WRITESET, txn_ts=ts)
    log.forget(writeset_floor=5.0, decision_floor=0.0)
    log.forget(writeset_floor=3.0, decision_floor=0.0)   # a lower floor forgets nothing back
    assert log.forgotten_below == 5.0
    with pytest.raises(RuntimeError, match="forgotten"):
        log.writeset_records_at_or_after(4.0)
    assert [r.txn_ts for r in log.writeset_records_at_or_after(5.0)] == [5.0, 9.0]


def test_single_replica_group_still_persists():
    env, log = make_log(n_replicas=1)
    log.append(LogRecordKind.WRITESET, txn_ts=1.0)
    assert flush(env, log) == 1
    assert log.durable_lsn == 1


@pytest.mark.parametrize("backend", ["auto", "dict"])
def test_log_record_owns_the_write_dicts_without_aliasing_live_rows(backend, request):
    """A write-set record holds undo images only, private to the log.

    A columnar row's image is the tuple of its column values in schema
    order; a dict row's is its immutable ``(names, cells)`` pair, which every
    later write replaces rather than edits.  The attempt's ``updates`` dicts
    die with the attempt: storage copies values *out* of them on install and
    the record keeps no redo copy.  So whatever happens to the rows
    afterwards — later commits, partial and whole-row writes — neither the
    log payload nor the §5.2 rollback it feeds can change.  The inserts run
    on dict tables only: a columnar table holds a fixed population.
    """
    inserts = backend == "dict"
    if inserts:
        request.getfixturevalue("dict_tables")
    cluster = Cluster(tiny_config("primo"), tiny_ycsb())
    server = cluster.servers[0]
    server.log.retain_history = True   # as under a fault plan
    table = server.store.table("usertable")
    original = {key: table.get(key).snapshot() for key in (1, 2)}
    fresh_key = len(table)
    assert table.get(fresh_key) is None
    update, insert = {"field0": 111}, {"field0": 222, "field1": 333}
    txn = server.new_transaction()
    txn.ts = 5.0
    entries = [WriteEntry(partition=0, table="usertable", key=1, updates=update)]
    if inserts:
        entries.append(WriteEntry(partition=0, table="usertable", key=fresh_key,
                                  updates=insert, is_insert=True))
    install_write_entries(server, txn, entries, commit_ts=5.0)
    (record,) = server.log.records(LogRecordKind.WRITESET)
    cells = tuple(original[1].values())
    image = (tuple(original[1]), cells) if backend == "dict" else cells
    assert record.payload == ("usertable", 1, image) + (
        ("usertable", fresh_key, None) if inserts else ())
    payload_then = copy.deepcopy(record.payload)

    # Later commits and direct writes of the live rows.
    table.get(1).install_fields({"field0": 999, "field1": 998}, ts=6.0)
    table.get(2).install_fields({"field0": 997}, ts=6.0)
    if inserts:
        inserted = table.get(fresh_key)
        inserted.value = {"field0": -1}
        inserted.install_fields({"field1": -2}, ts=6.0)
    table.get(1).install_fields({"field0": -3}, ts=6.0)
    assert record.payload == payload_then

    rolled_back = cluster.recovery._rollback_partition(server, 5.0)
    assert rolled_back == 1
    assert table.get(1).snapshot() == original[1]      # the before-image
    assert table.get(fresh_key) is None                # the insert is undone
    assert record.payload == payload_then
    # Rows restored from the log do not alias it either.
    table.get(1).install_fields({"field0": 555}, ts=7.0)
    assert record.payload == payload_then
    assert table.get(2).get("field0") == 997           # untouched by the rollback

    # Primo's coordinator logs the remote write-sets it ships one-way, and that
    # COMMIT_DECISION record owns their dicts the same way.  Here the
    # participant's leader dies before the message lands, so recovery installs
    # the logged values (§5.2 re-delivery).
    participant = cluster.servers[1]
    remote = participant.store.table("usertable")
    remote_fresh = len(remote)
    attempt = server.new_transaction()

    def logic(ctx):
        yield from ctx.update(1, "usertable", 3, {"field0": 444})
        if inserts:
            yield from ctx.insert(1, "usertable", remote_fresh, {"field0": 555, "field1": 666})
        participant.crash()

    outcome = cluster.env.process(cluster.protocol.run_transaction(server, attempt, logic))
    cluster.env.run(until=cluster.env.now + 5_000)
    assert outcome.value is True
    (decision,) = server.log.records(LogRecordKind.COMMIT_DECISION)
    assert list(decision.payload) == [1]       # {partition: tuple of writes}, no wrapper
    shipped = decision.payload[1]
    assert type(shipped) is tuple
    n_writes = 2 if inserts else 1
    assert [(w[:2] + w[3:], w[2]) for w in shipped] == [
        (("usertable", 3, False, False), {"field0": 444}),
        (("usertable", remote_fresh, True, False), {"field0": 555, "field1": 666}),
    ][:n_writes]
    assert all(w[2] is entry.updates for w, entry in zip(shipped, attempt.write_set))
    decision_then = copy.deepcopy(decision.payload)
    assert remote.get(3).get("field0") != 444 and remote.get(remote_fresh) is None

    assert cluster.recovery._redeliver_lost_writes(1, attempt.ts + 1) == n_writes
    assert remote.get(3).get("field0") == 444
    remote.get(3).install_fields({"field0": 1, "field1": 2}, ts=attempt.ts + 2)
    if inserts:
        redelivered = remote.get(remote_fresh)
        assert redelivered.snapshot() == {"field0": 555, "field1": 666}
        redelivered.value = {"field0": -1}
        redelivered.install_fields({"field1": -2}, ts=attempt.ts + 2)
    assert decision.payload == decision_then


@pytest.mark.parametrize("backend", ["auto", "dict"])
def test_a_key_written_twice_keeps_one_image_at_its_first_position(backend, request):
    """One write-set that touches a key twice logs one image for it, at the
    key's first position, holding the last image taken.  The retried insert
    runs on dict tables only: a columnar table holds a fixed population."""
    if backend == "dict":
        request.getfixturevalue("dict_tables")
    cluster = Cluster(tiny_config("primo"), tiny_ycsb())
    server = cluster.servers[0]
    server.log.retain_history = True   # as under a fault plan
    table = server.store.table("usertable")
    row_2 = table.get(2).undo_image()

    def install(ts, *writes):
        txn = server.new_transaction()
        txn.ts = ts
        install_write_entries(server, txn, [
            WriteEntry(partition=0, table="usertable", key=key, updates=updates,
                       is_insert=is_insert)
            for key, updates, is_insert in writes], commit_ts=ts)
        return server.log.records(LogRecordKind.WRITESET)[-1]

    if backend == "dict":
        # An insert after a write (a retried insert lands on the existing
        # row): the insert's None replaces the write's image, in its place.
        record = install(5.0, (1, {"field0": 111}, False), (2, {"field0": 222}, False),
                         (1, {"field0": 333}, True))
        assert record.payload == ("usertable", 1, None, "usertable", 2, row_2)
        assert table.get(1).get("field0") == 333

    # A write after a write: the image is the row as the first write left it.
    row_3 = table.get(3).undo_image()
    record = install(6.0, (3, {"field0": 444}, False), (4, {"field0": 555}, False),
                     (3, {"field1": 666}, False))
    assert [key for _, key, _ in record.undo_images()] == [3, 4]
    assert cluster.recovery._rollback_partition(server, 6.0) == 1
    assert table.get(3).get("field0") == 444   # the last image taken, not the first
    assert table.get(3).undo_image() != row_3
