"""The record-access contract every registered protocol's context honours.

``TxnContext.read`` / ``update`` / ``insert`` / ``delete`` are the single
access path (see :mod:`repro.txn.context`); protocols only plug hooks into it.
Each test drives a context by hand on a tiny cluster, once per name in the
protocol registry, so a protocol that grows its own copy of the path fails
here first.
"""

import pytest

from repro.cluster.config import PROTOCOLS
from repro.txn.context import TxnContext
from repro.txn.transaction import AbortReason, TxnAborted

from tests.conftest import make_manual_cluster

ALL_PROTOCOLS = list(PROTOCOLS)


def make_context(protocol: str, **overrides):
    cluster = make_manual_cluster(protocol, **overrides)
    server = cluster.servers[0]
    context = cluster.protocol.create_context(server, server.new_transaction("contract"))
    return cluster, context


def drive(cluster, body):
    """Run the generator ``body`` as a simulation process; return its value."""
    process = cluster.env.process(body)
    cluster.env.run(until=cluster.env.now + 100_000)
    assert process.triggered, "context operation did not finish"
    if not process.ok:
        raise process._value
    return process.value


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_no_protocol_overrides_the_access_path(protocol):
    _, ctx = make_context(protocol)
    assert type(ctx).read is TxnContext.read
    assert type(ctx).update is TxnContext.update
    assert type(ctx).insert is TxnContext.insert
    assert type(ctx).delete is TxnContext.delete


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_repeated_read_returns_an_equal_private_copy(protocol):
    cluster, ctx = make_context(protocol)

    def body():
        first = yield from ctx.read(0, "kv", 1)
        second = yield from ctx.read(0, "kv", 1)
        assert second == first == {"v": 0}
        assert second is not first
        second["v"] = 999
        third = yield from ctx.read(0, "kv", 1)
        return third

    assert drive(cluster, body()) == {"v": 0}
    assert len(ctx.txn.read_set) == 1


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_read_after_update_overlays_the_buffered_columns(protocol):
    cluster, ctx = make_context(protocol)

    def body():
        yield from ctx.read(0, "kv", 1)
        yield from ctx.update(0, "kv", 1, {"v": 5})
        local = yield from ctx.read(0, "kv", 1)
        yield from ctx.update(1, "kv", 2, {"v": 6})
        remote = yield from ctx.read(1, "kv", 2)
        return local, remote

    assert drive(cluster, body()) == ({"v": 5}, {"v": 6})
    # The overlay is per read: the read-set keeps what storage held.
    assert ctx.txn.find_read(0, "kv", 1).value == {"v": 0}
    assert cluster.servers[0].store.table("kv").get(1).value == {"v": 0}


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_reading_a_missing_key_aborts_with_validation(protocol):
    cluster, ctx = make_context(protocol)
    with pytest.raises(TxnAborted) as raised:
        drive(cluster, ctx.read(0, "kv", 10_000))
    assert raised.value.reason is AbortReason.VALIDATION


@pytest.mark.parametrize("cost", [0.4, 0.0])
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_each_local_operation_charges_one_record_access(protocol, cost):
    cluster, ctx = make_context(protocol, cpu_record_access_us=cost)
    env = cluster.env

    def body():
        elapsed = []
        for operation in (
            ctx.read(0, "kv", 1),
            ctx.update(0, "kv", 1, {"v": 1}),
            ctx.insert(0, "kv", 1_000, {"v": 2}),
            ctx.delete(0, "kv", 2),
        ):
            start = env.now
            yield from operation
            elapsed.append(env.now - start)
        return elapsed

    elapsed = drive(cluster, body())
    if cost:
        assert elapsed == [pytest.approx(cost, abs=1e-9)] * 4
    else:
        assert elapsed == [0.0] * 4


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_stale_read_window_observes_every_read_once(protocol):
    cluster, ctx = make_context(protocol)
    for partition in cluster.servers:
        cluster.set_stale_read_fraction(partition, 1.0)
    observed = []
    cluster.note_read = observed.append

    def body():
        yield from ctx.read(0, "kv", 1)      # first local read
        yield from ctx.read(0, "kv", 1)      # served from the read-set
        yield from ctx.read(1, "kv", 2)      # remote read
        yield from ctx.update(1, "kv", 3, {"v": 1})   # a write is not a read

    drive(cluster, body())
    assert observed == [0, 0, 1]


def test_primo_dummy_read_is_neither_charged_nor_observed():
    cluster, ctx = make_context("primo")
    cluster.set_stale_read_fraction(1, 1.0)
    observed = []
    cluster.note_read = observed.append
    env = cluster.env

    def body():
        start = env.now
        yield from ctx.update(1, "kv", 3, {"v": 1})   # blind remote write
        return env.now - start

    elapsed = drive(cluster, body())
    round_trip = cluster.network.roundtrip_us(0, 1)
    assert elapsed == pytest.approx(cluster.config.cpu_record_access_us + round_trip)
    assert [entry.dummy for entry in ctx.txn.read_set] == [True]
    assert observed == []
