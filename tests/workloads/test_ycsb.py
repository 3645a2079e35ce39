"""Tests for the YCSB workload generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.ycsb import YCSBConfig, YCSBWorkload

from tests.conftest import tiny_config
from repro.cluster.cluster import Cluster


def make_cluster(**ycsb_overrides):
    params = dict(keys_per_partition=1_000)
    params.update(ycsb_overrides)
    workload = YCSBWorkload(YCSBConfig(**params))
    cluster = Cluster(tiny_config("primo", durability="none"), workload)
    return cluster, workload


def test_config_validation():
    with pytest.raises(ValueError):
        YCSBConfig(keys_per_partition=5, ops_per_txn=10).validate()
    with pytest.raises(ValueError):
        YCSBConfig(write_pct=1.5).validate()
    with pytest.raises(ValueError):
        YCSBConfig(remote_ops=20, ops_per_txn=10).validate()
    YCSBConfig().validate()


def test_load_populates_every_partition():
    cluster, workload = make_cluster()
    for server in cluster.servers.values():
        table = server.store.table("usertable")
        assert len(table) == 1_000
        assert table.get(0).value["field0"] == 0


class RecordingContext:
    """Stands in for a ``TxnContext``: logs every access, reads an empty row."""

    def __init__(self):
        self.accesses = []

    def read(self, partition, table, key):
        self.accesses.append((partition, key, "read"))
        yield from ()
        return {}

    def update(self, partition, table, key, values):
        self.accesses.append((partition, key, "update"))
        yield from ()


def accesses(spec) -> list:
    """The ``(partition, key, kind)`` accesses a transaction makes, in order."""
    ctx = RecordingContext()
    for _ in spec.logic(ctx):
        pass
    return ctx.accesses


def partitions(spec) -> set:
    return {partition for partition, _, _ in accesses(spec)}


def test_source_is_deterministic_per_seed_and_stream():
    cluster, workload = make_cluster()
    first = workload.make_source(cluster, 0, 0)
    second = workload.make_source(cluster, 0, 0)
    other_stream = workload.make_source(cluster, 0, 1)
    firsts = [first.next() for _ in range(10)]
    seconds = [second.next() for _ in range(10)]
    assert ([(spec.read_only, accesses(spec)) for spec in firsts]
            == [(spec.read_only, accesses(spec)) for spec in seconds])
    assert ([accesses(spec) for spec in firsts]
            != [accesses(other_stream.next()) for _ in range(10)])


def test_distributed_fraction_roughly_matches_configuration():
    cluster, workload = make_cluster(distributed_pct=0.3)
    source = workload.make_source(cluster, 0, 0)
    distributed = sum(1 for _ in range(500) if partitions(source.next()) != {0})
    assert 0.2 < distributed / 500 < 0.4


def test_zero_distributed_fraction_generates_only_local_transactions():
    cluster, workload = make_cluster(distributed_pct=0.0)
    source = workload.make_source(cluster, 1, 0)
    assert all(partitions(source.next()) == {1} for _ in range(200))


def test_read_only_transactions_possible_with_zero_writes():
    cluster, workload = make_cluster(write_pct=0.0)
    source = workload.make_source(cluster, 0, 0)
    assert all(source.next().read_only for _ in range(50))


def test_transaction_logic_reads_and_writes_the_usertable():
    from tests.conftest import run_txn

    cluster, workload = make_cluster(distributed_pct=1.0, remote_ops=2)
    source = workload.make_source(cluster, 0, 0)
    spec = source.next()
    committed, txn = run_txn(cluster, 0, spec.logic, name=spec.name)
    assert committed is True
    assert len(txn.read_set) >= workload.config.ops_per_txn / 2
    assert txn.is_distributed


@settings(max_examples=20, deadline=None)
@given(
    write_pct=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    blind_pct=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_operation_mix_respects_probabilities(write_pct, blind_pct):
    """Property: with write_pct=0 there are no writes; with 1.0 every op writes."""
    workload = YCSBWorkload(
        YCSBConfig(keys_per_partition=1_000, write_pct=write_pct, blind_write_pct=blind_pct)
    )
    cluster = Cluster(tiny_config("primo", durability="none"), workload)
    source = workload.make_source(cluster, 0, 0)
    specs = [source.next() for _ in range(20)]
    if write_pct == 0.0:
        assert all(spec.read_only for spec in specs)
    if write_pct == 1.0:
        assert not any(spec.read_only for spec in specs)
