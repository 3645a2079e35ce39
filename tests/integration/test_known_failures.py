"""Known failures, kept executable: each test asserts what *should* hold and is
a strict xfail until the PR that fixes it (ROADMAP "Found and still open").

A fix makes its test XPASS, which strict mode reports as a failure — delete
the marker in the same commit, together with the regenerated goldens.
"""

import pytest

from repro.commit.logging import LogRecordKind
from repro.faults import standard_storm
from repro.scenario import ScenarioSpec, build
from repro.storage.table import TableError

from tests.conftest import elections

FAST_DETECTOR = {"duration_us": 60_000.0, "heartbeat_interval_us": 500.0,
                 "heartbeat_timeout_us": 2_000.0}


@pytest.fixture(scope="module")
def primo_after_a_leader_crash():
    """primo / ycsb / tiny, partition 1 down at 10 ms of a 60 ms window, then a
    50 ms drain."""
    cluster = build(ScenarioSpec(
        protocol="primo", workload="ycsb", scale="tiny", config_overrides=FAST_DETECTOR,
        faults=[{"kind": "crash", "at_us": 10_000.0, "target": 1}]))
    result = cluster.run()
    cluster.env.run(until=cluster.env.now + 50_000)
    return cluster, result


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP finding (c): release_locks_everywhere forgets Primo's participant "
    "registration, so CRASH-aborted attempts stay registered for ever"))
def test_no_transaction_stays_registered_after_a_crash(primo_after_a_leader_crash):
    cluster, _ = primo_after_a_leader_crash
    assert {p: len(s.active_txns) for p, s in cluster.servers.items()} == {
        p: 0 for p in cluster.servers}


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP finding (c): the leaked registrations freeze the watermarks, so "
    "most commits counted after the crash are never acknowledged (824 of 3,969)"))
def test_commits_are_acknowledged_after_a_crash(primo_after_a_leader_crash):
    _, result = primo_after_a_leader_crash
    metrics = result.metrics
    assert metrics.latency.count + metrics.crash_aborted >= 0.95 * metrics.committed


@pytest.mark.xfail(strict=True, raises=TableError, reason=(
    "ROADMAP item 4: sundial / tpcc / standard_storm / seed 11 dies with TableError "
    "(key (7, 1, 11) not found in 'orders'): a fiber reads a rolled-back insert"))
def test_sundial_tpcc_survives_the_standard_storm_at_seed_11():
    cluster = build(ScenarioSpec(
        protocol="sundial", workload="tpcc", scale="tiny",
        config_overrides={**FAST_DETECTOR, "seed": 11},
        faults=standard_storm(2_000.0, 60_000.0)))
    assert cluster.run().committed > 0


@pytest.mark.xfail(strict=True, raises=TableError, reason=(
    "ROADMAP 'Found and still open': found by a crash sweep, tpcc / standard_storm under "
    "COCO dies with TableError (a key not found in 'orders'), consistent with the non-WM "
    "rollback deleting a committed insert that later reads need"))
@pytest.mark.parametrize("protocol, seed", [("2pl_nw", 7), ("sundial", 3), ("sundial", 4)])
def test_tpcc_survives_the_standard_storm_under_coco(protocol, seed):
    cluster = build(ScenarioSpec(
        protocol=protocol, workload="tpcc", scale="tiny",
        config_overrides={**FAST_DETECTOR, "seed": seed},
        faults=standard_storm(2_000.0, 60_000.0)))
    assert cluster.durability.name == "coco"
    assert cluster.run().committed > 0


@pytest.mark.xfail(strict=True, raises=TableError, reason=(
    "ROADMAP item 4: silo / tpcc / two rolling leader crashes / seed 7 dies with TableError "
    "(key (3, 1, 14) not found in 'orders'), the same rolled-back insert under a non-WM scheme"))
def test_silo_tpcc_survives_rolling_crashes_at_seed_7():
    cluster = build(ScenarioSpec(
        protocol="silo", workload="tpcc", scale="tiny",
        config_overrides={**FAST_DETECTOR, "n_partitions": 3, "duration_us": 40_000.0,
                          "seed": 7},
        faults=[{"kind": "crash", "at_us": 8_000.0, "target": 1},
                {"kind": "crash", "at_us": 24_000.0, "target": 2}]))
    assert cluster.run().committed > 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP 'Found and still open': under a non-WM scheme every partition publishes "
    "0.0 (only WM sets a partition watermark), so the agreed global watermark is 0.0 and "
    "the rollback undoes the whole log history, durable writes included (812 durable "
    "records of 1,154 rolled back)"))
def test_a_crash_rolls_back_no_write_that_was_durable_before_it():
    """sundial / coco / ycsb / tiny, partition 1 down at 15 ms of a 30 ms window."""
    cluster = build(ScenarioSpec(
        protocol="sundial", workload="ycsb", scale="tiny", durability="coco",
        config_overrides={**FAST_DETECTOR, "duration_us": 30_000.0},
        faults=[{"kind": "crash", "at_us": 15_000.0, "target": 1}]))
    cluster.start()
    cluster.env.run(until=14_999.0)
    durable = [record for server in cluster.servers.values()
               for record in server.log.records(LogRecordKind.WRITESET)
               if server.log.is_durable(record.lsn)]
    assert durable
    cluster.run()
    membership = cluster.membership
    assert elections(cluster) == 1
    agreed = membership.agreed_global_watermark(membership.current_term)
    assert sum(record.txn_ts >= agreed for record in durable) == 0


@pytest.mark.xfail(strict=True, raises=TableError, reason=(
    "ROADMAP item 13(b): one crash of partition 1 kills tpcc with TableError (a key not "
    "found in 'orders') while a committing transaction installs a blind update; "
    "2pl_wd at 13.0 ms passes only under clv, the 14.5 ms cases pass under wm, sync and clv"))
@pytest.mark.parametrize("protocol, crash_at_us, durability", [
    ("2pl_wd", 13_000.0, "coco"),
    ("2pl_wd", 13_000.0, "wm"),
    ("2pl_wd", 13_000.0, "sync"),
    ("2pl_wd", 14_500.0, "coco"),
    ("silo", 14_500.0, "coco"),
])
def test_tpcc_survives_a_single_crash(protocol, crash_at_us, durability):
    """tpcc / tiny / seed 42, partition 1 down at ``crash_at_us`` of a 20 ms window."""
    cluster = build(ScenarioSpec(
        protocol=protocol, workload="tpcc", scale="tiny", durability=durability,
        config_overrides={**FAST_DETECTOR, "duration_us": 20_000.0, "seed": 42},
        faults=[{"kind": "crash", "at_us": crash_at_us, "target": 1}]))
    assert cluster.run().committed > 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 6(d): finding (c)'s leaked registrations keep the survivors busy, so "
    "the quiesce loop exhausts its 200 x 100 us budget and every seed reads 20,400 us"))
@pytest.mark.parametrize("seed", [42, 7, 3])
def test_recovery_finishes_within_its_quiesce_budget(seed):
    """primo / ycsb / tiny, partition 1 down at 10 ms of a 60 ms window."""
    cluster = build(ScenarioSpec(
        protocol="primo", workload="ycsb", scale="tiny",
        config_overrides={**FAST_DETECTOR, "seed": seed},
        faults=[{"kind": "crash", "at_us": 10_000.0, "target": 1}]))
    result = cluster.run()
    assert result.metrics.counters.get("recovery_time_us") < 200 * 100.0
