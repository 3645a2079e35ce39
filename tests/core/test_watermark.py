"""Tests for the watermark-based distributed group commit."""


from repro.commit.base import CRASH_ABORTED, DURABLE
from repro.core.watermark import WatermarkGroupCommit

from tests.conftest import run_tiny, tiny_config, tiny_ycsb
from repro.cluster.cluster import Cluster


def make_wm_cluster(**overrides):
    cluster = Cluster(tiny_config("primo", durability="wm", **overrides), tiny_ycsb())
    return cluster, cluster.durability


def test_partition_watermarks_are_monotone_and_global_watermark_is_min():
    cluster, result = run_tiny("primo", durability="wm")
    wm: WatermarkGroupCommit = cluster.durability
    for pid, state in wm._states.items():
        wp = cluster.servers[pid].partition_watermark
        assert wp >= 0.0
        assert state.wg == min(state.table.values())
        assert state.wg <= wp or state.wg <= max(state.table.values())


def test_transactions_become_durable_below_the_global_watermark():
    cluster, result = run_tiny("primo", durability="wm")
    assert result.committed > 0
    assert cluster.metrics.latency.count > 0
    # Everything acknowledged waited at most a few watermark intervals.
    assert cluster.metrics.latency.max <= cluster.config.epoch_length_us * 10


def test_executed_transaction_below_wg_is_acknowledged_immediately():
    cluster, wm = make_wm_cluster()
    server = cluster.servers[0]
    state = wm._states[0]
    state.wg = 100.0
    txn = server.new_transaction("t")
    txn.ts = 5.0
    event = wm.transaction_executed(server, txn)
    assert event.triggered and event.value == DURABLE


def test_executed_transaction_above_wg_waits_for_watermarks():
    cluster, wm = make_wm_cluster()
    server = cluster.servers[0]
    txn = server.new_transaction("t")
    txn.ts = 50.0
    event = wm.transaction_executed(server, txn)
    assert not event.triggered
    # Watermarks from every partition above the ts release it.
    for partition in range(cluster.config.n_partitions):
        wm._receive_watermark(0, partition, 60.0)
    assert event.triggered and event.value == DURABLE


def test_global_watermark_requires_every_partition():
    cluster, wm = make_wm_cluster()
    server = cluster.servers[0]
    txn = server.new_transaction("t")
    txn.ts = 50.0
    event = wm.transaction_executed(server, txn)
    wm._receive_watermark(0, 0, 100.0)   # only partition 0 has advanced
    assert not event.triggered
    wm._receive_watermark(0, 1, 70.0)
    assert event.triggered


def test_stale_watermark_messages_are_ignored():
    cluster, wm = make_wm_cluster()
    wm._receive_watermark(0, 1, 40.0)
    wm._receive_watermark(0, 1, 10.0)   # out-of-order/stale broadcast
    assert wm._states[0].table[1] == 40.0


def test_force_update_advances_an_idle_partition():
    cluster, wm = make_wm_cluster()
    state = wm._states[0]
    server = cluster.servers[0]
    state.table.update({1: 200.0})
    server.partition_watermark = 10.0
    wm._force_update(server, state)
    assert cluster.counters.get("watermark_force_updates") == 1
    assert server.ts_floor >= 200.0
    # With no active transactions and an empty log buffer the watermark jumps.
    assert server.partition_watermark >= 200.0


def test_force_update_does_not_touch_leading_partitions():
    cluster, wm = make_wm_cluster()
    state = wm._states[0]
    server = cluster.servers[0]
    state.table.update({1: 5.0})
    server.partition_watermark = 50.0
    wm._force_update(server, state)
    assert cluster.counters.get("watermark_force_updates") == 0


def test_resolve_after_crash_splits_pending_by_agreed_watermark():
    cluster, wm = make_wm_cluster()
    server = cluster.servers[0]
    events = []
    for ts in (10.0, 20.0, 30.0):
        txn = server.new_transaction("t")
        txn.ts = ts
        events.append((ts, wm.transaction_executed(server, txn)))
    outcome = wm.resolve_after_crash(agreed_wg=25.0)
    assert outcome == {"durable": 2, "crash_aborted": 1}
    assert cluster.counters.get("recovery_durable") == 2
    for ts, event in events:
        assert event.triggered
        assert event.value == (DURABLE if ts < 25.0 else CRASH_ABORTED)


def test_watermark_computation_includes_unpersisted_log_records():
    cluster, wm = make_wm_cluster()
    server = cluster.servers[0]
    server.highest_ts_seen = 500.0
    from repro.commit.logging import LogRecordKind
    server.log.append(LogRecordKind.WRITESET, txn_ts=42.0)
    candidate = wm._compute_wp(server)
    assert candidate <= 42.0
