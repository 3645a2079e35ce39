"""Unit tests for Primo's WCF protocol: mode switch, exclusive read locks,
one-way commit, blind-write handling and abort cleanup."""


from repro.storage.lock import LockMode

from tests.conftest import make_manual_cluster, run_txn


def test_distributed_transaction_commits_without_prepare_round():
    cluster = make_manual_cluster("primo", n_partitions=2)
    before_rpcs = cluster.counters.get("rpc_calls")

    def logic(ctx):
        local = yield from ctx.read(0, "kv", 1)
        remote = yield from ctx.read(1, "kv", 2)
        yield from ctx.update(0, "kv", 1, {"v": local["v"] + 1})
        yield from ctx.update(1, "kv", 2, {"v": remote["v"] + 1})

    committed, txn = run_txn(cluster, 0, logic)
    assert committed is True
    assert txn.is_distributed
    # Exactly one RPC (the remote read); the commit is a one-way message.
    assert cluster.counters.get("rpc_calls") - before_rpcs == 1
    assert cluster.counters.get("one_way_messages") >= 1
    # The remote write was installed at the participant with the same ts.
    remote_record = cluster.servers[1].store.table("kv").get(2)
    assert remote_record.value["v"] == 1
    assert remote_record.wts == txn.ts


def test_remote_read_takes_an_exclusive_lock_until_commit_message():
    cluster = make_manual_cluster("primo", n_partitions=2)
    participant = cluster.servers[1]
    observed = {}

    def logic(ctx):
        yield from ctx.read(0, "kv", 1)
        yield from ctx.read(1, "kv", 9)
        record = participant.store.table("kv").get(9)
        observed["locked_during_execution"] = participant.store.lock_manager.is_locked(record)
        yield from ctx.update(1, "kv", 9, {"v": 7})

    committed, _ = run_txn(cluster, 0, logic)
    assert committed is True
    assert observed["locked_during_execution"] is True
    record = cluster.servers[1].store.table("kv").get(9)
    assert not participant.store.lock_manager.is_locked(record)
    assert record.value["v"] == 7


def test_mode_switch_relocks_and_revalidates_local_reads():
    cluster = make_manual_cluster("primo", n_partitions=2)
    server = cluster.servers[0]

    def logic(ctx):
        yield from ctx.read(0, "kv", 4)           # local mode, no lock
        assert ctx.mode == "local"
        yield from ctx.read(1, "kv", 5)           # triggers the switch
        assert ctx.mode == "distributed"
        record = server.store.table("kv").get(4)
        assert server.store.lock_manager.held_by(ctx.txn.tid, record) is LockMode.EXCLUSIVE

    committed, _ = run_txn(cluster, 0, logic)
    assert committed is True


def test_mode_switch_aborts_if_a_read_record_changed():
    cluster = make_manual_cluster("primo", n_partitions=2)
    server = cluster.servers[0]

    def logic(ctx):
        yield from ctx.read(0, "kv", 6)
        # A concurrent commit changes the record before the remote access.
        server.store.table("kv").get(6).install_fields({"v": 123}, ts=40.0)
        yield from ctx.read(1, "kv", 7)

    committed, txn = run_txn(cluster, 0, logic)
    assert committed is False
    assert txn.abort_reason is not None
    # Nothing may remain locked after the abort.
    assert server.store.lock_manager.locks_held(txn.tid) == set()


def test_blind_remote_write_adds_a_dummy_read_lock():
    cluster = make_manual_cluster("primo", n_partitions=2)

    def logic(ctx):
        yield from ctx.read(0, "kv", 1)
        # Blind write: no prior read of partition 1's key 3.
        yield from ctx.update(1, "kv", 3, {"v": 55})

    committed, txn = run_txn(cluster, 0, logic)
    assert committed is True
    dummy_reads = [e for e in txn.read_set if e.dummy]
    assert len(dummy_reads) == 1
    assert dummy_reads[0].partition == 1
    assert cluster.servers[1].store.table("kv").get(3).value["v"] == 55


def test_local_blind_write_needs_no_dummy_read_in_local_mode():
    cluster = make_manual_cluster("primo", n_partitions=2)

    def logic(ctx):
        yield from ctx.read(0, "kv", 1)
        yield from ctx.update(0, "kv", 2, {"v": 5})  # blind but local + local mode

    committed, txn = run_txn(cluster, 0, logic)
    assert committed is True
    assert not any(e.dummy for e in txn.read_set)
    assert cluster.servers[0].store.table("kv").get(2).value["v"] == 5


def test_abort_notifies_participants_and_releases_their_locks():
    cluster = make_manual_cluster("primo", n_partitions=2)
    participant = cluster.servers[1]

    def logic(ctx):
        yield from ctx.read(1, "kv", 11)
        ctx.abort("user rollback")
        yield  # pragma: no cover

    committed, txn = run_txn(cluster, 0, logic)
    assert committed is False
    # Let the one-way ABORT message arrive at the participant.
    cluster.env.run(until=cluster.env.now + 1_000)
    record = participant.store.table("kv").get(11)
    assert not participant.store.lock_manager.is_locked(record)
    assert len(participant.active_txns) == 0


def test_write_set_subset_of_read_set_after_blind_write_handling():
    """The WCF precondition (write-set ⊆ read-set) is enforced at runtime."""
    cluster = make_manual_cluster("primo", n_partitions=2)

    def logic(ctx):
        yield from ctx.read(0, "kv", 1)
        yield from ctx.update(1, "kv", 2, {"v": 1})
        yield from ctx.update(1, "kv", 3, {"v": 2})

    committed, txn = run_txn(cluster, 0, logic)
    assert committed is True
    read_keys = {(e.partition, e.table, e.key) for e in txn.read_set}
    for write in txn.write_set:
        assert (write.partition, write.table, write.key) in read_keys


def test_commit_timestamp_exceeds_partition_floor():
    cluster = make_manual_cluster("primo", n_partitions=2)
    cluster.servers[0].ts_floor = 100.0

    def logic(ctx):
        value = yield from ctx.read(0, "kv", 1)
        yield from ctx.update(0, "kv", 1, {"v": value["v"] + 1})
        yield from ctx.read(1, "kv", 2)

    committed, txn = run_txn(cluster, 0, logic)
    assert committed is True
    assert txn.ts > 100.0


def test_primo_fallback_delegates_to_sundial():
    cluster = make_manual_cluster("primo", n_partitions=2, primo_fallback_to_2pc=True)
    before_rpcs = cluster.counters.get("rpc_calls")

    def logic(ctx):
        local = yield from ctx.read(0, "kv", 1)
        remote = yield from ctx.read(1, "kv", 2)
        yield from ctx.update(1, "kv", 2, {"v": remote["v"] + 1})

    committed, txn = run_txn(cluster, 0, logic)
    assert committed is True
    # The 2PC fallback needs more than one RPC round (read + prepare + commit).
    assert cluster.counters.get("rpc_calls") - before_rpcs >= 3
