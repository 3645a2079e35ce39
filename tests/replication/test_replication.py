"""Tests for the simplified Raft replication group and the membership service."""

import pytest

from repro.replication.membership import MembershipService
from repro.replication.raft import ReplicationGroup
from repro.sim.engine import Environment
from repro.sim.network import Network


def make_group(n_replicas=3):
    env = Environment()
    network = Network(env, one_way_latency_us=50.0)
    return env, ReplicationGroup(env, network, 0, n_replicas, 100, storage_persist_us=20.0)


def drive(env, generator):
    proc = env.process(generator)
    env.run()
    assert proc.triggered
    return proc.value


def test_replication_group_requires_a_replica():
    env = Environment()
    network = Network(env)
    with pytest.raises(ValueError):
        ReplicationGroup(env, network, 0, 0, 100, 10.0)


def test_quorum_size():
    _, group3 = make_group(3)
    assert group3.quorum_size == 2
    _, group5 = make_group(5)
    assert group5.quorum_size == 3
    _, group1 = make_group(1)
    assert group1.quorum_size == 1


def test_replicate_advances_durable_lsn_and_takes_a_round_trip():
    env, group = make_group(3)
    start = env.now
    durable = drive(env, group.replicate(5, ["r1", "r2"]))
    assert durable == 5
    assert group.durable_lsn == 5
    assert env.now - start >= 2 * 50.0  # at least one round trip to a follower
    assert all(follower.acked_lsn == 5 for follower in group.followers)


def test_single_replica_replication_is_local_persist_only():
    env, group = make_group(1)
    start = env.now
    drive(env, group.replicate(3, ["r"]))
    assert env.now - start == pytest.approx(20.0)


def test_followers_receive_entries_for_failover():
    env, group = make_group(3)
    drive(env, group.replicate(2, ["a", "b"]))
    assert group.highest_replicated_lsn() == 2
    assert all(f.acked_lsn == 2 for f in group.followers)


def test_leader_election_bumps_term():
    env, group = make_group(3)
    term = drive(env, group.elect_new_leader())
    assert term == 2
    assert group.term == 2


def test_membership_detects_missing_heartbeats():
    env = Environment()
    service = MembershipService(env, 2, heartbeat_interval_us=100.0, heartbeat_timeout_us=500.0)
    failures = []
    service.on_failure(failures.append)
    service.start()

    def heartbeats():
        # Partition 0 keeps beating, partition 1 goes silent after 300 µs.
        for i in range(100):
            service.heartbeat(0)
            if env.now < 300:
                service.heartbeat(1)
            yield env.timeout(100.0)

    env.process(heartbeats())
    env.run(until=5_000)
    assert failures == [1]
    assert service.is_alive(0)
    assert not service.is_alive(1)


def test_membership_failure_reported_once_until_recovery():
    env = Environment()
    service = MembershipService(env, 1, heartbeat_interval_us=100.0, heartbeat_timeout_us=200.0)
    failures = []
    service.on_failure(failures.append)
    service.start()
    env.run(until=2_000)
    assert failures == [0]
    service.mark_recovered(0)
    assert service.is_alive(0)


def test_watermark_agreement_uses_the_maximum_published_value():
    env = Environment()
    service = MembershipService(env, 3)
    term = service.new_recovery_term()
    service.publish_watermark(term, 0, 10.0)
    service.publish_watermark(term, 1, 25.0)
    service.publish_watermark(term, 2, 17.0)
    assert service.agreed_global_watermark(term) == 25.0
    assert service.published_watermarks(term) == {0: 10.0, 1: 25.0, 2: 17.0}
    # A new term starts empty.
    next_term = service.new_recovery_term()
    assert next_term == term + 1
    assert service.agreed_global_watermark(next_term) is None


# -- follower fault surface and quorum-th-fastest timing ---------------------

def test_equal_links_quorum_wait_matches_single_roundtrip():
    # Bit-identity pin for the quorum-th-fastest rewrite: with homogeneous
    # links every follower round trip is identical, so picking the quorum-th
    # fastest is indistinguishable from the historical "first follower" wait.
    env, group = make_group(5)
    start = env.now
    drive(env, group.replicate(1, ["a"]))
    assert env.now - start == pytest.approx(2 * 50.0 + 20.0)


def test_follower_lag_shifts_quorum_to_the_next_fastest_follower():
    env, group = make_group(3)  # quorum 2: leader + 1 follower ack
    group.set_follower_lag(0, 1_000.0)
    start = env.now
    drive(env, group.replicate(1, ["a"]))
    # The unlagged follower bounds the quorum: plain round trip + persist.
    assert env.now - start == pytest.approx(2 * 50.0 + 20.0)
    # Lag both followers and the quorum must eat the injected delay.
    group.set_follower_lag(1, 1_000.0)
    start = env.now
    drive(env, group.replicate(2, ["b"]))
    assert env.now - start == pytest.approx(2 * 50.0 + 1_000.0 + 20.0)
    # Clearing the lag restores the fast path.
    group.set_follower_lag(0, 0.0)
    start = env.now
    drive(env, group.replicate(3, ["c"]))
    assert env.now - start == pytest.approx(2 * 50.0 + 20.0)


def test_heterogeneous_links_reshape_the_quorum_wait():
    env = Environment()
    network = Network(env, one_way_latency_us=50.0)
    group = ReplicationGroup(env, network, 0, 3, 100, storage_persist_us=20.0)
    # Second follower sits behind a slow (geo-distant) link.
    network.set_extra_delay_to(101, 400.0)
    start = env.now
    drive(env, group.replicate(1, ["a"]))
    # Quorum needs one follower ack and the fast link provides it.
    assert env.now - start == pytest.approx(2 * 50.0 + 20.0)


def test_crashed_follower_misses_entries_and_catches_up_on_recovery():
    env, group = make_group(3)
    group.crash_follower(0)
    drive(env, group.replicate(4, ["a"]))
    assert group.durable_lsn == 4
    assert group.followers[0].acked_lsn == 0  # crashed: acked nothing
    assert group.followers[1].acked_lsn == 4
    group.recover_follower(0)
    # Recovery replays the durable prefix before rejoining the quorum.
    assert group.followers[0].acked_lsn == 4
    assert not group.followers[0].crashed


def test_quorum_stalls_until_a_follower_recovers():
    env, group = make_group(3)
    group.crash_follower(0)
    group.crash_follower(1)

    def recover_later():
        yield env.timeout(2_500.0)
        group.recover_follower(0)

    env.process(recover_later())
    start = env.now
    drive(env, group.replicate(1, ["a"]))
    # Durability stalled (deterministic 1 ms polls) until the recovery at
    # 2.5 ms, then completed one normal round.
    assert group.counters.get("quorum_stalls") >= 2
    assert env.now - start >= 2_500.0
    assert group.durable_lsn == 1


def test_follower_index_out_of_range_is_rejected():
    _, group = make_group(3)  # 2 followers
    with pytest.raises(ValueError, match="out of range"):
        group.set_follower_lag(2, 100.0)
    with pytest.raises(ValueError, match="out of range"):
        group.crash_follower(-1)


def test_election_cost_derives_from_network_roundtrip():
    env, group = make_group(3)
    start = env.now
    drive(env, group.elect_new_leader())
    # Homogeneous links: exactly the historical 4 x one_way + persist.
    assert env.now - start == pytest.approx(4 * 50.0 + 20.0)


def test_election_cost_tracks_the_slowest_live_follower():
    env = Environment()
    network = Network(env, one_way_latency_us=50.0)
    group = ReplicationGroup(env, network, 0, 3, 100, storage_persist_us=20.0)
    network.set_extra_delay_to(101, 400.0)
    start = env.now
    drive(env, group.elect_new_leader())
    # Vote round trips reach every follower; the slow link dominates.
    assert env.now - start == pytest.approx(2 * (2 * 50.0 + 400.0) + 20.0)
    # With the slow follower crashed the election only waits on live voters.
    group.crash_follower(1)
    start = env.now
    drive(env, group.elect_new_leader())
    assert env.now - start == pytest.approx(2 * (2 * 50.0) + 20.0)


def test_single_replica_election_keeps_the_fixed_allowance():
    env, group = make_group(1)
    start = env.now
    drive(env, group.elect_new_leader())
    assert env.now - start == pytest.approx(4 * 50.0 + 20.0)
