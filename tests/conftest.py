"""Shared fixtures and helpers for the test suite.

Most tests build tiny clusters (2 partitions, a few hundred keys, tens of
simulated milliseconds) so the whole suite stays fast while still exercising
the full protocol paths.
"""

from __future__ import annotations

import gc
from typing import Generator

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.config import SystemConfig
from repro.scenario import ScenarioSpec
from repro.storage.partition import PartitionStore
from repro.workloads.base import TransactionSpec, TxnSource, Workload
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload


def tiny_config(protocol: str = "primo", **overrides) -> SystemConfig:
    """A small, fast configuration for integration-style tests."""
    defaults = dict(
        durability=ScenarioSpec(protocol=protocol).resolved_durability,
        n_partitions=2,
        workers_per_partition=2,
        inflight_per_worker=1,
        duration_us=15_000.0,
        warmup_us=2_000.0,
        epoch_length_us=2_000.0,
        seed=7,
    )
    defaults.update(overrides)
    return SystemConfig(protocol=protocol, **defaults)


def tiny_ycsb(**overrides) -> YCSBWorkload:
    params = dict(keys_per_partition=500, zipf_theta=0.5, distributed_pct=0.3)
    params.update(overrides)
    return YCSBWorkload(YCSBConfig(**params))


def run_tiny(protocol: str = "primo", workload: Workload | None = None, **overrides):
    """Build and run a tiny cluster; returns (cluster, result)."""
    cluster = Cluster(tiny_config(protocol, **overrides), workload or tiny_ycsb())
    result = cluster.run()
    return cluster, result


def elections(cluster: Cluster) -> int:
    """Leader elections so far: every recovery elects once, bumping a term."""
    return sum(server.replication.term - 1 for server in cluster.servers.values())


class TransferWorkload(Workload):
    """Money-transfer workload used by the atomicity/consistency tests.

    Every transaction moves an amount between two accounts (possibly on
    different partitions), so the total balance is invariant under any mix of
    commits and aborts — a violated invariant means a lost update or a
    partially installed distributed transaction.
    """

    name = "transfer"

    def __init__(self, accounts_per_partition: int = 200, initial_balance: float = 100.0,
                 cross_partition_pct: float = 0.4):
        self.accounts_per_partition = accounts_per_partition
        self.initial_balance = initial_balance
        self.cross_partition_pct = cross_partition_pct

    def load(self, cluster) -> None:
        for server in cluster.servers.values():
            server.store.create_table("account").insert_many(
                range(self.accounts_per_partition), {"balance": self.initial_balance})

    def total_balance(self, cluster) -> float:
        total = 0.0
        for server in cluster.servers.values():
            for record in server.store.table("account").records():
                total += record.value["balance"]
        return total

    def expected_total(self, cluster) -> float:
        return (
            self.initial_balance
            * self.accounts_per_partition
            * cluster.config.n_partitions
        )

    def make_source(self, cluster, partition_id: int, stream_id: int):
        workload = self
        rng = self.rng(cluster, partition_id, stream_id)
        n_partitions = cluster.config.n_partitions

        class _Source(TxnSource):
            def next(self) -> TransactionSpec:
                src = rng.uniform_int(0, workload.accounts_per_partition - 1)
                dst = rng.uniform_int(0, workload.accounts_per_partition - 1)
                dst_partition = partition_id
                if n_partitions > 1 and rng.boolean(workload.cross_partition_pct):
                    other = rng.uniform_int(0, n_partitions - 2)
                    dst_partition = other + 1 if other >= partition_id else other
                amount = rng.uniform(1.0, 10.0)

                def logic(ctx) -> Generator:
                    source = yield from ctx.read(partition_id, "account", src)
                    dest = yield from ctx.read(dst_partition, "account", dst)
                    if dst_partition == partition_id and src == dst:
                        return
                    yield from ctx.update(
                        partition_id, "account", src,
                        {"balance": source["balance"] - amount},
                    )
                    yield from ctx.update(
                        dst_partition, "account", dst,
                        {"balance": dest["balance"] + amount},
                    )

                return TransactionSpec(name="transfer", logic=logic)

        return _Source()


@pytest.fixture
def no_collector():
    """Only reference counts may free anything while the test body runs (the
    object-lifetime tests count what is still allocated)."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture
def dict_tables(monkeypatch):
    """The A/B reference: every table dict-backed, whatever schema its
    workload declares (``create_table`` drops the schema)."""
    create_table = PartitionStore.create_table
    monkeypatch.setattr(PartitionStore, "create_table",
                        lambda store, name, schema=None: create_table(store, name))


@pytest.fixture
def transfer_workload() -> TransferWorkload:
    return TransferWorkload()


class SimpleKVWorkload(Workload):
    """A bare key-value table per partition for protocol unit tests."""

    name = "simplekv"

    def __init__(self, keys_per_partition: int = 100):
        self.keys_per_partition = keys_per_partition

    def load(self, cluster) -> None:
        for server in cluster.servers.values():
            server.store.create_table("kv").insert_many(
                range(self.keys_per_partition), {"v": 0})

    def make_source(self, cluster, partition_id: int, stream_id: int):
        raise NotImplementedError("SimpleKVWorkload is driven manually by tests")


def make_manual_cluster(protocol: str = "primo", n_partitions: int = 2, **overrides) -> Cluster:
    """A cluster whose transactions are driven one by one from the test body."""
    config = tiny_config(protocol, n_partitions=n_partitions,
                         durability=overrides.pop("durability", "none"), **overrides)
    return Cluster(config, SimpleKVWorkload())


def run_txn(cluster: Cluster, partition: int, logic, name: str = "manual"):
    """Run one transaction through the cluster's protocol; returns (committed, txn)."""
    server = cluster.servers[partition]
    txn = server.new_transaction(name)
    process = cluster.env.process(
        cluster.protocol.run_transaction(server, txn, logic), name=name
    )
    cluster.env.run(until=cluster.env.now + 100_000)
    assert process.triggered, "transaction did not finish within the time budget"
    if not process.ok:
        raise process._value
    return process.value, txn
