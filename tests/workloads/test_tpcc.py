"""Tests for the TPC-C workload: loading, transaction logic and invariants."""

import pytest

from repro.workloads.tpcc import DISTRICTS_PER_WAREHOUSE, TPCCConfig, TPCCWorkload

from tests.conftest import run_txn, tiny_config
from repro.cluster.cluster import Cluster


def make_cluster(**config_overrides):
    params = dict(warehouses_per_partition=2, items=50, customers_per_district=10,
                  initial_orders_per_district=5)
    params.update(config_overrides)
    workload = TPCCWorkload(TPCCConfig(**params))
    cluster = Cluster(tiny_config("primo", durability="none"), workload)
    return cluster, workload


def test_config_validation():
    with pytest.raises(ValueError):
        TPCCConfig(warehouses_per_partition=0).validate()
    with pytest.raises(ValueError):
        TPCCConfig(new_order_pct=90.0, payment_pct=90.0).validate()
    TPCCConfig().validate()


def test_loading_creates_the_expected_row_counts():
    cluster, workload = make_cluster()
    for partition_id, server in cluster.servers.items():
        store = server.store
        assert len(store.table("warehouse")) == 2
        assert len(store.table("district")) == 2 * DISTRICTS_PER_WAREHOUSE
        assert len(store.table("customer")) == 2 * DISTRICTS_PER_WAREHOUSE * 10
        assert len(store.table("stock")) == 2 * 50
        assert len(store.table("item")) == 50  # replicated read-only table
        assert len(store.table("orders")) == 2 * DISTRICTS_PER_WAREHOUSE * 5


def test_loaded_rows_hold_the_specified_columns_and_values():
    """Every loaded table's rows, as the transactions read them: column
    order, values and types (w_id 3 is partition 1's first warehouse)."""
    cluster, _ = make_cluster()
    store = cluster.servers[1].store

    def row(table, key):
        return list(store.table(table).get(key).value.items())

    assert row("warehouse", 3) == [
        ("w_id", 3), ("w_tax", 0.1), ("w_ytd", 300_000.0), ("w_name", "warehouse-3")]
    assert row("district", (3, 2)) == [
        ("d_w_id", 3), ("d_id", 2), ("d_tax", 0.05), ("d_ytd", 30_000.0), ("d_next_o_id", 6)]
    assert row("customer", (3, 2, 5)) == [
        ("c_w_id", 3), ("c_d_id", 2), ("c_id", 5), ("c_last", "BARBARPRES"),
        ("c_balance", -10.0), ("c_ytd_payment", 10.0), ("c_payment_cnt", 1),
        ("c_delivery_cnt", 0), ("c_data", "")]
    assert row("stock", (3, 7)) == [
        ("s_w_id", 3), ("s_i_id", 7), ("s_quantity", 57), ("s_ytd", 0),
        ("s_order_cnt", 0), ("s_remote_cnt", 0)]
    assert row("item", 7) == [("i_id", 7), ("i_name", "item-7"), ("i_price", 1.7)]
    assert row("new_order", (3, 2, 5)) == [("no_w_id", 3), ("no_d_id", 2), ("no_o_id", 5)]
    order = dict(row("orders", (3, 2, 4)))
    assert list(order) == ["o_w_id", "o_d_id", "o_id", "o_c_id", "o_ol_cnt", "o_carrier_id"]
    assert (order["o_w_id"], order["o_d_id"], order["o_id"], order["o_carrier_id"]) == (3, 2, 4, None)
    assert 1 <= order["o_c_id"] <= 10 and 5 <= order["o_ol_cnt"] <= 15
    line = dict(row("order_line", (3, 2, 4, order["o_ol_cnt"])))
    assert list(line) == ["ol_w_id", "ol_d_id", "ol_o_id", "ol_number", "ol_i_id",
                          "ol_quantity", "ol_amount", "ol_delivery_d"]
    assert 1 <= line.pop("ol_i_id") <= 50
    assert line == {"ol_w_id": 3, "ol_d_id": 2, "ol_o_id": 4, "ol_number": order["o_ol_cnt"],
                    "ol_quantity": 5, "ol_amount": 0.0, "ol_delivery_d": None}
    assert (3, 2, 4, order["o_ol_cnt"] + 1) not in store.table("order_line")
    assert len(store.table("history")) == 0


def test_warehouses_are_partitioned_contiguously():
    cluster, workload = make_cluster()
    assert list(workload.warehouses_of_partition(0)) == [1, 2]
    assert list(workload.warehouses_of_partition(1)) == [3, 4]
    assert workload.partition_of_warehouse(cluster, 1) == 0
    assert workload.partition_of_warehouse(cluster, 4) == 1
    assert workload.total_warehouses(cluster) == 4


def test_customer_last_name_index_is_populated():
    cluster, _ = make_cluster()
    customer = cluster.servers[0].store.table("customer")
    some_customer = customer.get((1, 1, 1))
    matches = customer.index_lookup(
        "by_name", (1, 1, some_customer.value["c_last"])
    )
    assert (1, 1, 1) in matches


def test_new_order_advances_district_and_inserts_rows():
    cluster, workload = make_cluster()
    source = workload.make_source(cluster, 0, 0)
    spec = source.next()
    while spec.name != "new_order":
        spec = source.next()
    district_before = {
        key: record.value["d_next_o_id"]
        for key, record in ((k, cluster.servers[0].store.table("district").get(k))
                            for k in cluster.servers[0].store.table("district").keys())
    }
    orders_before = len(cluster.servers[0].store.table("orders"))
    committed, txn = run_txn(cluster, 0, spec.logic, name="new_order")
    assert committed is True
    orders_after = len(cluster.servers[0].store.table("orders"))
    assert orders_after == orders_before + 1
    # Exactly one district's next order id advanced by one.
    changed = [
        key for key, record in ((k, cluster.servers[0].store.table("district").get(k))
                                for k in cluster.servers[0].store.table("district").keys())
        if record.value["d_next_o_id"] != district_before[key]
    ]
    assert len(changed) == 1


def test_payment_updates_balances_and_ytd():
    cluster, workload = make_cluster()
    source = workload.make_source(cluster, 0, 0)
    spec = source.next()
    while spec.name != "payment":
        spec = source.next()
    warehouse_ytd_before = sum(
        r.value["w_ytd"] for r in cluster.servers[0].store.table("warehouse").records()
    )
    history_before = sum(
        len(server.store.table("history")) for server in cluster.servers.values()
    )
    committed, _ = run_txn(cluster, 0, spec.logic, name="payment")
    assert committed is True
    warehouse_ytd_after = sum(
        r.value["w_ytd"] for r in cluster.servers[0].store.table("warehouse").records()
    )
    history_after = sum(
        len(server.store.table("history")) for server in cluster.servers.values()
    )
    assert warehouse_ytd_after > warehouse_ytd_before
    assert history_after == history_before + 1


def test_order_status_and_stock_level_are_read_only():
    cluster, workload = make_cluster()
    source = workload.make_source(cluster, 0, 0)
    seen = set()
    for _ in range(500):
        spec = source.next()
        if spec.name in ("order_status", "stock_level"):
            seen.add(spec.name)
            assert spec.read_only
    assert seen == {"order_status", "stock_level"}


def test_delivery_clears_pending_new_orders():
    cluster, workload = make_cluster()
    source = workload.make_source(cluster, 0, 0)
    spec = source.next()
    while spec.name != "delivery":
        spec = source.next()
    pending_before = len(cluster.servers[0].store.table("new_order"))
    committed, _ = run_txn(cluster, 0, spec.logic, name="delivery")
    assert committed is True
    pending_after = len(cluster.servers[0].store.table("new_order"))
    assert pending_after < pending_before


def test_transaction_mix_roughly_matches_configuration():
    cluster, workload = make_cluster()
    source = workload.make_source(cluster, 0, 0)
    names = [source.next().name for _ in range(1_000)]
    new_order_share = names.count("new_order") / len(names)
    payment_share = names.count("payment") / len(names)
    assert 0.35 < new_order_share < 0.55
    assert 0.33 < payment_share < 0.53
    assert names.count("stock_level") > 0 and names.count("delivery") > 0


def test_full_tpcc_run_commits_transactions_under_primo():
    workload = TPCCWorkload(TPCCConfig(warehouses_per_partition=2, items=50,
                                       customers_per_district=10))
    cluster = Cluster(tiny_config("primo"), workload)
    result = cluster.run()
    assert result.committed > 100
    assert result.abort_rate < 0.9
    assert set(result.per_txn_type) <= {"new_order", "payment", "order_status",
                                        "delivery", "stock_level"}
