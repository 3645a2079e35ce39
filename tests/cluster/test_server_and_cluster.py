"""Tests for the server, the active-transaction registry and the cluster facade."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.server import ActiveTxnRegistry
from repro.txn.transaction import Transaction, TxnId

from tests.conftest import make_manual_cluster, run_tiny, tiny_config, tiny_ycsb


def test_tids_are_unique_across_servers():
    cluster = make_manual_cluster("primo", n_partitions=3)
    tids = set()
    for server in cluster.servers.values():
        for _ in range(50):
            tids.add(server.new_transaction().tid)
    assert len(tids) == 150


def test_active_registry_minimum_uses_effective_ts():
    registry = ActiveTxnRegistry()
    assert registry.min_effective_ts() is None
    a = Transaction(tid=TxnId(1, 0), coordinator=0, lower_bound_ts=5.0)
    b = Transaction(tid=TxnId(2, 0), coordinator=0, lower_bound_ts=3.0)
    registry.register(a)
    registry.register(b)
    assert registry.min_effective_ts() == 3.0
    b.ts = 9.0
    assert registry.min_effective_ts() == 5.0
    registry.deregister(a)
    assert registry.min_effective_ts() == 9.0
    registry.deregister(b)
    assert registry.is_empty()


def test_registry_register_raises_lower_bound_only_for_unassigned_ts():
    registry = ActiveTxnRegistry()
    txn = Transaction(tid=TxnId(1, 0), coordinator=0, lower_bound_ts=2.0)
    registry.register(txn, lower_bound=7.0)
    assert txn.lower_bound_ts == 7.0
    registry.register(txn, lower_bound=4.0)
    assert txn.lower_bound_ts == 7.0


def test_note_ts_tracks_the_partition_frontier():
    cluster = make_manual_cluster("primo")
    server = cluster.servers[0]
    server.note_ts(10.0)
    server.note_ts(4.0)
    assert server.highest_ts_seen == 10.0


def test_crash_and_recover_toggle_reachability():
    cluster = make_manual_cluster("primo")
    server = cluster.servers[1]
    server.crash()
    assert server.crashed
    assert cluster.network.is_unreachable(1)
    server.recover_as_new_leader()
    assert not server.crashed
    assert not cluster.network.is_unreachable(1)
    assert len(server.active_txns) == 0


def test_cluster_run_produces_consistent_result_summary():
    cluster, result = run_tiny("primo")
    summary = result.summary()
    assert summary["protocol"] == "primo"
    assert summary["workload"] == "ycsb"
    assert summary["committed"] == result.committed > 0
    assert 0.0 <= summary["abort_rate"] <= 1.0
    assert result.network_messages > 0
    assert set(result.per_txn_type) == {"ycsb"}


def test_cluster_is_deterministic_for_a_fixed_seed():
    _, first = run_tiny("primo", seed=123)
    _, second = run_tiny("primo", seed=123)
    assert first.committed == second.committed
    assert first.aborted == second.aborted
    assert first.metrics.latency.count == second.metrics.latency.count


def test_different_seeds_produce_different_schedules():
    _, first = run_tiny("primo", seed=1)
    _, second = run_tiny("primo", seed=2)
    assert (first.committed, first.aborted) != (second.committed, second.aborted)


def test_measurement_window_excludes_warmup():
    cluster, result = run_tiny("primo")
    expected_window = cluster.config.duration_us
    assert result.metrics.duration_us == pytest.approx(expected_window)


def test_start_is_idempotent():
    cluster = Cluster(tiny_config("primo"), tiny_ycsb())
    cluster.start()
    cluster.start()  # must not double-spawn workers
    result = cluster.run()
    assert result.committed > 0


def test_single_partition_cluster_has_no_distributed_transactions():
    cluster, result = run_tiny("primo", n_partitions=1)
    assert result.committed > 0
    assert cluster.counters.get("rpc_calls") == 0  # nothing remote to call


class _RaisesOnDraw25:
    """A transaction source with a bug: its 25th ``next()`` raises."""

    def __init__(self, source):
        self._source = source
        self._draws = 0

    def next(self):
        self._draws += 1
        if self._draws == 25:
            raise TypeError("planted in the 25th draw")
        return self._source.next()


@pytest.mark.parametrize(
    "arrival", [None, {"kind": "poisson", "rate_tps": 20_000.0}],
    ids=["closed_loop", "open_loop"],
)
def test_a_fiber_that_raises_fails_the_run(arrival):
    """Nothing awaits the worker / arrival fibers; a dead one used to leave a
    run that returned normally with one client fewer."""
    cluster = Cluster(tiny_config("primo"), tiny_ycsb(), arrival=arrival)
    make_source = cluster.new_txn_source

    def new_txn_source(partition_id, stream_id):
        source = make_source(partition_id, stream_id)
        return _RaisesOnDraw25(source) if (partition_id, stream_id) == (0, 0) else source

    cluster.new_txn_source = new_txn_source
    with pytest.raises(TypeError, match="planted in the 25th draw"):
        cluster.run()


@pytest.mark.parametrize("loader_raises", [False, True], ids=["loads", "loader_raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc_enabled", "gc_disabled"])
def test_build_pauses_the_collector_and_leaves_it_as_it_found_it(
        enabled, loader_raises, monkeypatch):
    """The loader runs with the cyclic collector off; the caller's setting is
    back afterwards, also when the loader raises."""
    import gc

    import repro
    from repro.workloads.tpcc import TPCCWorkload

    during = []
    load = TPCCWorkload.load

    def observed_load(workload, cluster):
        during.append(gc.isenabled())
        if loader_raises:
            raise RuntimeError("loader failed")
        load(workload, cluster)

    monkeypatch.setattr(TPCCWorkload, "load", observed_load)
    spec = repro.ScenarioSpec(protocol="primo", workload="tpcc", scale="tiny")
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if loader_raises:
            with pytest.raises(RuntimeError, match="loader failed"):
                repro.build(spec)
        else:
            repro.build(spec)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert during == [False]
