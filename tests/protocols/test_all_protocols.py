"""Cross-protocol behaviour tests: every protocol must process every workload
correctly (commits happen, invariants hold, locks are cleaned up)."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.config import PROTOCOLS

from tests.conftest import TransferWorkload, tiny_config, tiny_ycsb


DEFAULT_DURABILITY = {
    "primo": "wm",
    "2pl_nw": "coco",
    "2pl_wd": "coco",
    "silo": "coco",
    "sundial": "coco",
    "aria": "none",
    "tapir": "sync",
}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_protocol_commits_ycsb_transactions(protocol):
    cluster = Cluster(
        tiny_config(protocol, durability=DEFAULT_DURABILITY[protocol]), tiny_ycsb()
    )
    result = cluster.run()
    assert result.committed > 50, f"{protocol} committed too few transactions"
    assert 0.0 <= result.abort_rate < 1.0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_protocol_preserves_the_transfer_invariant(protocol):
    """No lost updates and no partially installed distributed transactions."""
    workload = TransferWorkload(accounts_per_partition=150)
    cluster = Cluster(
        tiny_config(protocol, durability=DEFAULT_DURABILITY[protocol]), workload
    )
    cluster.run()
    assert workload.total_balance(cluster) == pytest.approx(
        workload.expected_total(cluster), rel=1e-9
    )


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_no_locks_left_behind_after_the_run(protocol):
    cluster = Cluster(
        tiny_config(protocol, durability=DEFAULT_DURABILITY[protocol]), tiny_ycsb()
    )
    cluster.run()
    # Drain any in-flight messages, then check nothing is held or awaited: an
    # entry of the lock table is a record somebody holds, with its wait queue.
    cluster.env.run(until=cluster.env.now + 50_000)
    for server in cluster.servers.values():
        manager = server.store.lock_manager
        where = f"{protocol}, partition {server.partition_id}"
        assert not manager._table, f"lock entries left behind ({where})"
        assert not manager._held, f"holders left behind ({where})"


@pytest.mark.parametrize("protocol", ["primo", "sundial", "silo", "2pl_wd"])
def test_protocols_work_on_tpcc(protocol):
    from repro.workloads.tpcc import TPCCConfig, TPCCWorkload

    workload = TPCCWorkload(
        TPCCConfig(warehouses_per_partition=2, items=50, customers_per_district=10)
    )
    cluster = Cluster(
        tiny_config(protocol, durability=DEFAULT_DURABILITY[protocol]), workload
    )
    result = cluster.run()
    assert result.committed > 50
    assert "new_order" in result.per_txn_type


def test_primo_uses_fewer_messages_per_distributed_commit_than_sundial():
    """The headline mechanism: no prepare/commit round trips in Primo."""
    ycsb = dict(keys_per_partition=2_000, distributed_pct=1.0, zipf_theta=0.0)
    _, primo = _run("primo", ycsb)
    _, sundial = _run("sundial", ycsb)
    primo_msgs = primo.network_messages / max(primo.committed, 1)
    sundial_msgs = sundial.network_messages / max(sundial.committed, 1)
    assert primo_msgs < sundial_msgs


def test_primo_outperforms_2pl_under_contention():
    """Directional check of the paper's main claim on a small configuration."""
    ycsb = dict(keys_per_partition=2_000, zipf_theta=0.8, distributed_pct=0.3)
    _, primo = _run("primo", ycsb)
    _, two_pl = _run("2pl_nw", ycsb)
    assert primo.throughput_tps > two_pl.throughput_tps


def _run(protocol, ycsb_params):
    cluster = Cluster(
        tiny_config(protocol, durability=DEFAULT_DURABILITY[protocol],
                    workers_per_partition=2, inflight_per_worker=2),
        tiny_ycsb(**ycsb_params),
    )
    return cluster, cluster.run()


def test_aria_reexecutes_conflicting_transactions():
    cluster = Cluster(
        tiny_config("aria", durability="none"),
        tiny_ycsb(keys_per_partition=300, zipf_theta=0.9),
    )
    result = cluster.run()
    assert cluster.counters.get("aria_batches") > 1
    assert result.aborted > 0          # reservation conflicts under high skew
    assert result.committed > 0


def test_tapir_has_low_latency_without_group_commit():
    cluster = Cluster(tiny_config("tapir", durability="sync"), tiny_ycsb())
    result = cluster.run()
    assert result.committed > 0
    assert result.mean_latency_ms < 2.0
