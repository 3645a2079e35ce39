"""Crash-injection and recovery tests (§5.2)."""

import pytest

from repro.cluster.cluster import Cluster
from repro.faults import fault
from repro.scenario import ScenarioSpec, build

from tests.conftest import TransferWorkload, elections, tiny_config, tiny_ycsb


#: Partition 1's leader dies halfway through the run.
CRASH = [fault("crash", at_us=15_000.0, target=1)]


def crash_config(protocol="primo", durability="wm", **overrides):
    settings = dict(
        durability=durability,
        duration_us=30_000.0,
        warmup_us=2_000.0,
        epoch_length_us=2_000.0,
        heartbeat_interval_us=500.0,
        heartbeat_timeout_us=2_000.0,
    )
    settings.update(overrides)
    return tiny_config(protocol, **settings)


def test_crash_is_detected_and_recovered():
    cluster = Cluster(crash_config(), tiny_ycsb(), faults=CRASH)
    result = cluster.run()
    assert result.metrics.counters.get("crashes_injected") == 1
    assert elections(cluster) >= 1
    # The failed partition is back as a (new) leader by the end of the run.
    assert not cluster.servers[1].crashed
    assert cluster.membership.is_alive(1)
    assert result.committed > 0


def test_crash_aborts_transactions_above_the_agreed_watermark():
    cluster = Cluster(
        crash_config(n_partitions=3, workers_per_partition=2, inflight_per_worker=2),
        tiny_ycsb(), faults=CRASH,
    )
    result = cluster.run()
    assert result.metrics.crash_aborted > 0
    assert 0.0 < result.crash_abort_rate < 1.0


def test_recovery_agrees_on_the_maximum_published_watermark():
    cluster = Cluster(crash_config(), tiny_ycsb(), faults=CRASH)
    cluster.run()
    term = cluster.membership.current_term
    assert term >= 1
    published = cluster.membership.published_watermarks(term)
    assert len(published) == cluster.config.n_partitions
    agreed = cluster.membership.agreed_global_watermark(term)
    assert agreed == max(published.values())


@pytest.mark.parametrize("durability", ["wm", "coco"])
def test_the_lowest_agreeable_watermark_is_the_least_a_recovery_can_agree_on(durability):
    cluster = Cluster(crash_config(durability=durability), tiny_ycsb(), faults=CRASH)
    recovery = cluster.recovery
    if durability == "coco":
        # No other scheme sets a partition watermark: nothing is ever below it.
        assert recovery.lowest_agreeable_watermark() == 0.0
        return
    for server, wp in zip(cluster.servers.values(), (10.0, 30.0)):
        server.partition_watermark = wp
    # The failed partition offers what its log persisted (nothing yet).
    assert recovery.watermarks_to_publish(0) == {0: 0.0, 1: 30.0}
    assert recovery.watermarks_to_publish(1) == {0: 10.0, 1: 0.0}
    assert recovery.lowest_agreeable_watermark() == 10.0
    # A recovery that published and has not rolled back yet agrees on what
    # it published, however far the watermarks move meanwhile.
    term = cluster.membership.new_recovery_term()
    for pid, watermark in {0: 5.0, 1: 7.0}.items():
        cluster.membership.publish_watermark(term, pid, watermark)
    recovery._agreeing.add(term)
    assert recovery.lowest_agreeable_watermark() == 7.0


def test_rollback_preserves_the_transfer_invariant():
    """After crash + rollback the total balance must still be conserved."""
    workload = TransferWorkload(accounts_per_partition=100)
    cluster = Cluster(crash_config(), workload, faults=CRASH)
    cluster.run()
    assert workload.total_balance(cluster) == pytest.approx(
        workload.expected_total(cluster), rel=1e-9
    )


def test_throughput_continues_after_recovery():
    """Primo keeps processing transactions after the failed partition rejoins."""
    cluster = Cluster(crash_config(duration_us=40_000.0), tiny_ycsb(), faults=CRASH)
    result = cluster.run()
    # Transactions were still being committed in the post-recovery period.
    assert result.committed > 100


def test_coco_crash_aborts_the_epoch():
    cluster = Cluster(crash_config(protocol="sundial", durability="coco"), tiny_ycsb(),
                      faults=CRASH)
    result = cluster.run()
    assert cluster.counters.get("epochs_aborted") >= 1
    assert result.metrics.crash_aborted > 0


def test_no_crash_injection_when_not_configured():
    cluster = Cluster(tiny_config("primo"), tiny_ycsb())
    result = cluster.run()
    assert result.metrics.counters.get("crashes_injected") == 0
    assert result.metrics.crash_aborted == 0


#: One crash under each durability scheme: (committed, aborted,
#: crash_aborted, env.now) and the recovery counters of the run.  The
#: scenario files crash only under each protocol's default scheme, so these
#: goldens are the one place a crash runs under CLV, sync and none.
SCHEME_GOLDENS = {
    "wm": ((1100, 59, 9, 52000.0),
           {"recovery_rolled_back": 10, "recovery_redelivered": 0,
            "recovery_durable": 639, "recoveries_completed": 1,
            "recovery_time_us": 400}),
    "coco": ((633, 52, 638, 52000.0),
             {"recovery_rolled_back": 772, "recovery_redelivered": 0,
              "recoveries_completed": 1, "recovery_time_us": 400}),
    "clv": ((991, 50, 4, 52000.0),
            {"recovery_rolled_back": 643, "recovery_redelivered": 0,
             "recoveries_completed": 1, "recovery_time_us": 400}),
    "sync": ((1104, 59, 5, 52000.0),
             {"recovery_rolled_back": 772, "recovery_redelivered": 0,
              "recoveries_completed": 1, "recovery_time_us": 400}),
    "none": ((1109, 59, 0, 52000.0),
             {"recovery_rolled_back": 772, "recovery_redelivered": 0,
              "recoveries_completed": 1, "recovery_time_us": 400}),
}


@pytest.mark.parametrize("durability", list(SCHEME_GOLDENS))
def test_one_crash_under_each_scheme_matches_its_golden(durability):
    spec = ScenarioSpec(
        protocol="sundial", workload="ycsb", durability=durability, scale="tiny",
        config_overrides={"seed": 42, "duration_us": 20_000.0,
                          "heartbeat_interval_us": 500.0,
                          "heartbeat_timeout_us": 2_000.0},
        faults=[fault("crash", at_us=9_000.0, target=1)],
    )
    cluster = build(spec)
    result = cluster.run()
    counts, recovery = SCHEME_GOLDENS[durability]
    assert (result.committed, result.aborted, result.metrics.crash_aborted,
            cluster.env.now) == counts
    assert {name: value for name, value in result.metrics.counters.as_dict().items()
            if name.startswith(("recovery_", "recoveries_"))} == recovery
