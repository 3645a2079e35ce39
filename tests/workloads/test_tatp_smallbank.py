"""Tests for the TATP and Smallbank extension workloads."""

import pytest

from repro.workloads.smallbank import SmallbankConfig, SmallbankWorkload
from repro.workloads.tatp import TATPConfig, TATPWorkload

from tests.conftest import tiny_config
from repro.cluster.cluster import Cluster


def test_tatp_config_validation():
    with pytest.raises(ValueError):
        TATPConfig(subscribers_per_partition=1).validate()
    with pytest.raises(ValueError):
        TATPConfig(get_subscriber_pct=90.0, get_access_pct=90.0).validate()
    TATPConfig().validate()


def test_tatp_loading_and_mix():
    workload = TATPWorkload(TATPConfig(subscribers_per_partition=100))
    cluster = Cluster(tiny_config("primo", durability="none"), workload)
    subscriber = cluster.servers[0].store.table("subscriber")
    access_info = cluster.servers[0].store.table("access_info")
    assert len(subscriber) == 100
    assert len(access_info) == 400
    assert list(subscriber.get(7).value.items()) == [
        ("s_id", 7), ("bit_1", 1), ("vlr_location", 0), ("msc_location", 0),
        ("sub_nbr", "000000000000007")]
    assert list(access_info.get((7, 3)).value.items()) == [
        ("s_id", 7), ("ai_type", 3), ("data1", 21)]
    source = workload.make_source(cluster, 0, 0)
    names = [source.next().name for _ in range(300)]
    read_share = sum(1 for n in names if n.startswith("tatp_get")) / len(names)
    assert read_share > 0.5  # TATP is read-heavy


def test_tatp_runs_under_primo_with_low_aborts():
    workload = TATPWorkload(TATPConfig(subscribers_per_partition=500))
    cluster = Cluster(tiny_config("primo"), workload)
    result = cluster.run()
    assert result.committed > 100
    assert result.abort_rate < 0.2  # read-heavy, low contention


def test_smallbank_config_validation():
    with pytest.raises(ValueError):
        SmallbankConfig(accounts_per_partition=10, hot_accounts=100).validate()
    with pytest.raises(ValueError):
        SmallbankConfig(balance_pct=90.0, deposit_pct=90.0).validate()
    SmallbankConfig().validate()


def test_smallbank_loading():
    workload = SmallbankWorkload(SmallbankConfig(accounts_per_partition=200, hot_accounts=10))
    cluster = Cluster(tiny_config("primo", durability="none"), workload)
    assert len(cluster.servers[0].store.table("checking")) == 200
    assert len(cluster.servers[1].store.table("savings")) == 200


def test_smallbank_amalgamate_and_send_payment_preserve_money():
    """The Smallbank mix only moves money around except for explicit deposits
    and write-checks; running just transfers must conserve the total."""
    config = SmallbankConfig(
        accounts_per_partition=300, hot_accounts=10,
        balance_pct=20.0, deposit_pct=0.0, transact_pct=0.0,
        amalgamate_pct=40.0, write_check_pct=0.0, send_payment_pct=40.0,
    )
    workload = SmallbankWorkload(config)
    cluster = Cluster(tiny_config("primo"), workload)
    result = cluster.run()
    assert result.committed > 50
    total = 0.0
    for server in cluster.servers.values():
        for table_name in ("checking", "savings"):
            for record in server.store.table(table_name).records():
                total += record.value["balance"]
    expected = 2 * 1_000.0 * config.accounts_per_partition * cluster.config.n_partitions
    assert total == pytest.approx(expected)


def test_smallbank_user_aborts_are_not_retried():
    """TransactSavings/SendPayment call ctx.abort on insufficient funds."""
    config = SmallbankConfig(
        accounts_per_partition=100, hot_accounts=10,
        balance_pct=0.0, deposit_pct=0.0, transact_pct=100.0,
        amalgamate_pct=0.0, write_check_pct=0.0, send_payment_pct=0.0,
    )
    workload = SmallbankWorkload(config)
    cluster = Cluster(tiny_config("primo"), workload)
    result = cluster.run()
    # TransactSavings adds a positive amount, so none should user-abort here;
    # the run simply completes with commits.
    assert result.committed > 0
