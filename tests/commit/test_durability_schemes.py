"""Tests for the durability schemes: none, sync, COCO epochs and CLV."""

import pytest

from repro.commit import create_durability_scheme
from repro.commit.base import CRASH_ABORTED, DURABLE, DurabilityScheme
from repro.commit.clv import ControlledLockViolation
from repro.commit.coco import CocoGroupCommit
from repro.core.watermark import WatermarkGroupCommit

from tests.conftest import run_tiny, tiny_config, tiny_ycsb
from repro.cluster.cluster import Cluster


def test_factory_creates_every_scheme():
    cluster = Cluster(tiny_config("primo", durability="none"), tiny_ycsb())
    assert isinstance(create_durability_scheme("none", cluster), DurabilityScheme)
    assert isinstance(create_durability_scheme("coco", cluster), CocoGroupCommit)
    assert isinstance(create_durability_scheme("clv", cluster), ControlledLockViolation)
    assert isinstance(create_durability_scheme("wm", cluster), WatermarkGroupCommit)
    with pytest.raises(ValueError):
        create_durability_scheme("bogus", cluster)


def test_none_scheme_acknowledges_immediately():
    cluster = Cluster(tiny_config("primo", durability="none"), tiny_ycsb())
    server = cluster.servers[0]
    event = cluster.durability.transaction_executed(server, server.new_transaction())
    assert event.triggered and event.value == DURABLE


def test_sync_scheme_flushes_before_acknowledging():
    cluster, result = run_tiny("sundial", durability="sync")
    assert result.committed > 0
    # Synchronous flushes mean sub-millisecond completion latency.
    assert 0.0 < result.mean_latency_ms < 5.0
    for server in cluster.servers.values():
        assert server.log.durable_lsn > 0


def test_coco_commits_epochs_and_acknowledges_transactions():
    cluster, result = run_tiny("sundial", durability="coco")
    assert cluster.counters.get("epochs_committed") > 0
    assert cluster.counters.get("epochs_aborted") == 0
    assert result.committed > 0
    assert cluster.metrics.latency.count > 0
    # Latency is dominated by the epoch length.
    assert result.mean_latency_ms >= cluster.config.epoch_length_us / 1000.0 * 0.3


def test_coco_epoch_counter_advances():
    cluster, _ = run_tiny("sundial", durability="coco")
    scheme: CocoGroupCommit = cluster.durability
    assert scheme.epoch >= cluster.counters.get("epochs_committed") >= 2


def test_coco_aborts_epoch_when_a_partition_is_crashed():
    cluster = Cluster(tiny_config("sundial", durability="coco"), tiny_ycsb())
    scheme: CocoGroupCommit = cluster.durability
    server = cluster.servers[0]
    txn = server.new_transaction("t")
    event = scheme.transaction_executed(server, txn)
    cluster.servers[1].crash()
    scheme._abort_epoch(scheme.epoch)
    assert event.triggered and event.value == CRASH_ABORTED


def test_clv_charges_tracking_overhead_per_access():
    cluster = Cluster(tiny_config("primo", durability="clv"), tiny_ycsb())
    scheme: ControlledLockViolation = cluster.durability
    server = cluster.servers[0]
    txn = server.new_transaction("t")
    from repro.txn.transaction import ReadEntry, WriteEntry
    txn.add_read(ReadEntry(partition=0, table="kv", key=1, value={}))
    txn.add_write(WriteEntry(partition=0, table="kv", key=1, updates={}))
    expected = 2 * cluster.config.clv_tracking_overhead_us
    assert scheme.execution_overhead_us(txn) == pytest.approx(expected)


def test_clv_crash_aborts_a_dependent_commit_at_the_crash_instant():
    cluster = Cluster(tiny_config("sundial", durability="clv"), tiny_ycsb())
    server = cluster.servers[0]
    txn = server.new_transaction("t")
    txn.participants.add(1)
    event = cluster.durability.transaction_executed(server, txn)
    assert not event.triggered
    # Only the crash itself: no fault scheduler, no engine step.
    cluster.servers[1].crash()
    assert event.triggered and event.value == CRASH_ABORTED


def test_clv_acknowledges_after_background_flush():
    cluster, result = run_tiny("sundial", durability="clv")
    assert result.committed > 0
    assert cluster.metrics.latency.count > 0
    # CLV latency is well below the group-commit interval.
    assert result.mean_latency_ms < cluster.config.epoch_length_us / 1000.0


def test_latency_ordering_of_schemes_matches_the_paper():
    """sync/CLV latency << COCO/WM latency (group commit trades latency)."""
    _, clv = run_tiny("sundial", durability="clv")
    _, coco = run_tiny("sundial", durability="coco")
    assert clv.mean_latency_ms < coco.mean_latency_ms
