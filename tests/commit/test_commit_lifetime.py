"""Commit is the end of an attempt's life (the ``commit/base.py`` contract).

What waits for a group commit is a receipt, not the transaction: once the
worker has handed a committed attempt to the durability scheme, the
``Transaction`` — read-set, row snapshots, write-set, indexes — must be
unreachable, by reference count alone (the collector is off, so a cycle
keeping it alive fails too), while the durability event is still pending.
The state awaiting durability is then O(1) per commit instead of
``throughput × epoch length × footprint``.  Everything here counts objects;
nothing depends on the machine.
"""

import gc

import pytest

from repro.cluster.cluster import Cluster
from repro.commit import DURABILITY_REGISTRY
from repro.txn.transaction import ReadEntry, Transaction, WriteEntry

from tests.conftest import tiny_config, tiny_ycsb


def spy_on(obj, method, probe):
    """Call ``probe(args, result)`` after every ``obj.method(*args)``."""
    inner = getattr(obj, method)

    def wrapper(*args):
        result = inner(*args)
        probe(args, result)
        return result

    setattr(obj, method, wrapper)


def live_attempts():
    """The ``tid`` of every ``Transaction`` that is still allocated."""
    return {obj.tid for obj in gc.get_objects() if type(obj) is Transaction}


@pytest.mark.parametrize("scheme", sorted(DURABILITY_REGISTRY.names()))
def test_committed_transaction_dies_while_its_durability_event_is_pending(
        scheme, no_collector):
    # 2PC (sundial) awaits its participants before it returns, so nothing of
    # a committed attempt is in flight once the scheme has been handed it.
    cluster = Cluster(tiny_config("sundial", durability=scheme), tiny_ycsb())
    handed_over = []
    spy_on(cluster.durability, "transaction_executed",
           lambda args, event: handed_over.append((args[1].tid, event)))
    cluster.start()
    # Mid-epoch (epochs close at multiples of 2 ms): a group commit is open.
    cluster.env.run(until=2_000.0 + 1_700.0)

    assert len(handed_over) > 20
    assert live_attempts().isdisjoint(tid for tid, _ in handed_over)
    waiting = sum(1 for _, event in handed_over if not event.triggered)
    if scheme in ("coco", "wm"):
        # Epoch-long waits: the property was checked on real pending state.
        assert waiting > 20
    # Drained, every receipt is consumed and nothing was lost on the way.
    cluster.stopped = True
    cluster.env.run(until=12_000.0)
    assert all(event.triggered for _, event in handed_over)
    assert cluster.metrics.latency.count == cluster.metrics.committed > 0


def test_aria_committed_transaction_dies_with_its_batch_commit(no_collector):
    cluster = Cluster(tiny_config("aria"), tiny_ycsb())
    committed = []
    spy_on(cluster, "record_commit",
           lambda args, _: committed.append(args[1].tid))
    cluster.start()
    # Between two events the batch loop is parked in an execution phase or a
    # barrier; sample finely enough to land in the barrier that follows a
    # commit phase.  Every attempt that committed is already gone.
    for now in range(2_000, 6_000, 25):
        cluster.env.run(until=float(now))
        assert live_attempts().isdisjoint(committed)
    assert len(committed) > 20


def live_attempt_objects():
    counts = {Transaction: 0, ReadEntry: 0, WriteEntry: 0}
    for obj in gc.get_objects():
        if type(obj) in counts:
            counts[type(obj)] += 1
    return counts


@pytest.mark.parametrize("epoch_length_us", [2_000.0, 20_000.0])
def test_live_attempt_state_is_bounded_by_the_fibers_not_the_epoch(
        epoch_length_us, no_collector):
    """primo/wm sampled mid-epoch: what is alive is what is *executing*."""
    config = tiny_config("primo", durability="wm", epoch_length_us=epoch_length_us)
    workload = tiny_ycsb()
    cluster = Cluster(config, workload)
    fibers = (config.n_partitions * config.workers_per_partition
              * config.inflight_per_worker)
    # Per fiber: the attempt executing, plus the few it just finished whose
    # one-way participant commit/abort messages (§4.2) are still on the wire
    # (a network latency is several local transactions long).
    max_transactions = 4 * fibers
    max_entries = max_transactions * workload.config.ops_per_txn
    cluster.start()
    acknowledged_late = 0
    for sample in range(1, 6):
        cluster.env.run(until=(sample + 0.6) * epoch_length_us)
        counts = live_attempt_objects()
        assert counts[Transaction] <= max_transactions
        assert counts[ReadEntry] <= max_entries
        assert counts[WriteEntry] <= max_entries
        acknowledged_late = max(acknowledged_late, sum(
            len(state.pending) for state in cluster.durability._states.values()))
    # ... while far more commits than that were waiting for the watermark.
    assert acknowledged_late > 4 * max_transactions
