"""Fixed-seed determinism regression tests.

The perf work on the simulation substrate (slotted events, the zero-delay
fast-dispatch lane, the network delivery fast paths) must not change *what*
is simulated — only how fast.  These tests pin that down two ways:

* run-to-run: the same configuration run twice in one process produces
  byte-identical commit/abort counts and final clock; and
* golden values: a fixed-seed tiny YCSB run must keep producing the exact
  numbers recorded when the fast-dispatch lane landed.  Seed-derivation goes
  through :func:`repro.sim.randgen.stable_hash`, so these hold across
  interpreter processes (``PYTHONHASHSEED`` does not leak in).

If a PR changes these numbers it has changed event ordering or workload
sampling semantics — that may be intentional, but it must be explicit:
re-capture the goldens in the same commit and say so in the PR description.
``scripts/bench_gate.py --check`` enforces the same invariant against the
committed ``BENCH_substrate.json``.
"""

import pytest

import repro
from repro.arrivals import arrival
from repro.cluster.cluster import Cluster
from tests.conftest import run_tiny, tiny_config, tiny_ycsb

# protocol -> (committed, aborted, final simulated time).
GOLDEN = {
    "primo": (420, 43, 23_000.0),
    "sundial": (254, 14, 23_000.0),
    "2pl_nw": (62, 16, 23_000.0),
}

# Closed loop with 1 ms interactive think time (arrival={"kind": "closed",
# "think_time_us": 1000}) over the same tiny configuration: protocol ->
# (committed, aborted, final simulated time).  Think time throttles each
# worker fiber, so the counts sit far below the back-to-back GOLDEN ones.
THINK_TIME_GOLDEN = {
    "primo": (57, 0, 23_000.0),
    "sundial": (47, 1, 23_000.0),
    "2pl_nw": (45, 6, 23_000.0),
}

# Open-loop Poisson arrivals at 50k tps over the same tiny configuration:
# protocol -> (committed, aborted, arrivals offered, final simulated time).
# The offered count is identical across protocols because the arrival streams
# draw their gaps from their own seed-derived RNGs, independent of service.
OPENLOOP_GOLDEN = {
    "primo": (449, 42, 875, 23_000.0),
    "sundial": (264, 15, 875, 23_000.0),
    "2pl_nw": (193, 30, 875, 23_000.0),
}


@pytest.mark.parametrize("protocol", sorted(GOLDEN))
def test_fixed_seed_run_matches_golden_counts(protocol):
    cluster, result = run_tiny(protocol)
    committed, aborted, final_now = GOLDEN[protocol]
    assert result.metrics.committed == committed
    assert result.metrics.aborted == aborted
    assert cluster.env.now == final_now


@pytest.mark.parametrize("protocol", sorted(THINK_TIME_GOLDEN))
def test_fixed_seed_think_time_run_matches_golden_counts(protocol):
    cluster = Cluster(tiny_config(protocol), tiny_ycsb(),
                      arrival=arrival("closed", think_time_us=1_000.0))
    result = cluster.run()
    committed, aborted, final_now = THINK_TIME_GOLDEN[protocol]
    assert result.metrics.committed == committed
    assert result.metrics.aborted == aborted
    assert cluster.env.now == final_now


@pytest.mark.parametrize("protocol", sorted(GOLDEN))
def test_zero_think_time_stays_bit_identical_to_the_closed_loop(protocol):
    """The think-time knob at 0 must not perturb the legacy worker loop."""
    cluster = Cluster(tiny_config(protocol), tiny_ycsb(),
                      arrival=arrival("closed", think_time_us=0.0))
    result = cluster.run()
    committed, aborted, final_now = GOLDEN[protocol]
    assert cluster.arrival is None  # the trivial closed form normalizes away
    assert result.metrics.committed == committed
    assert result.metrics.aborted == aborted
    assert cluster.env.now == final_now


@pytest.mark.parametrize("protocol", sorted(OPENLOOP_GOLDEN))
def test_fixed_seed_open_loop_run_matches_golden_counts(protocol):
    cluster = Cluster(tiny_config(protocol), tiny_ycsb(),
                      arrival=arrival("poisson", 50_000))
    result = cluster.run()
    committed, aborted, offered, final_now = OPENLOOP_GOLDEN[protocol]
    assert result.metrics.committed == committed
    assert result.metrics.aborted == aborted
    assert result.metrics.counters.get("arrivals_offered") == offered
    assert cluster.env.now == final_now


# The open-loop cases where *when* a transaction is drawn could leak into the
# result: case -> (committed, aborted, arrivals offered, arrivals dropped,
# network messages).  An 8-deep admission queue at 400k tps drops most
# arrivals (each drop draws and discards a transaction); the bursty hot-key
# shift re-skews a source while arrivals are queued; a component-rate mix
# interleaves two sources in one queue and drops from both.
OPENLOOP_HARD_GOLDEN = {
    "drops_primo": (502, 41, 6958, 6380, 446),
    "drops_sundial": (250, 16, 6958, 6642, 412),
    "bursty_hot_theta": (432, 48, 1944, 0, 409),
    "component_rates": (779, 30, 3272, 2198, 535),
}


def _openloop_hard_result(case):
    if case.startswith("drops_"):
        protocol = case.removeprefix("drops_")
        return Cluster(tiny_config(protocol, admission_queue_depth=8),
                       tiny_ycsb(), arrival=arrival("poisson", 400_000)).run()
    if case == "bursty_hot_theta":
        return Cluster(tiny_config("primo"), tiny_ycsb(),
                       arrival=arrival("bursty", 60_000, hot_theta=0.95)).run()
    assert case == "component_rates"
    return repro.run(repro.ScenarioSpec(
        protocol="primo", workload="mixed", scale="tiny",
        workload_overrides={"components": [["ycsb", 0.7], ["tatp", 0.3]]},
        config_overrides={"admission_queue_depth": 8},
        arrival={"kind": "poisson",
                 "component_rates": {"ycsb": 300_000, "tatp": 100_000}},
    ))


@pytest.mark.parametrize("case", sorted(OPENLOOP_HARD_GOLDEN))
def test_fixed_seed_open_loop_hard_cases_match_golden_counts(case):
    result = _openloop_hard_result(case)
    counters = result.metrics.counters
    assert (result.metrics.committed, result.metrics.aborted,
            counters.get("arrivals_offered"), counters.get("arrivals_dropped"),
            result.network_messages) == OPENLOOP_HARD_GOLDEN[case]


def test_same_config_is_deterministic_within_a_process():
    first_cluster, first = run_tiny("primo")
    second_cluster, second = run_tiny("primo")
    assert first.metrics.committed == second.metrics.committed
    assert first.metrics.aborted == second.metrics.aborted
    assert first.network_messages == second.network_messages
    assert first_cluster.env.now == second_cluster.env.now


def test_seed_changes_the_outcome():
    """Guards against the seed being silently ignored somewhere."""
    _, baseline = run_tiny("primo")
    _, reseeded = run_tiny("primo", seed=12345)
    assert (baseline.metrics.committed, baseline.metrics.aborted) != (
        reseeded.metrics.committed,
        reseeded.metrics.aborted,
    )


# Replication-layer fault kinds and geo topologies over the same tiny primo
# configuration: scenario -> (committed, aborted, crash_aborted, final time).
# ``replicas_per_partition=2`` leaves a single follower per partition, so the
# follower faults sit on the quorum critical path instead of hiding behind a
# faster sibling.  Counter expectations pin that each fault actually fired.
REPLICATION_FAULT_GOLDEN = {
    "follower_lag": (450, 43, 0, 23_000.0),
    "follower_crash": (415, 44, 0, 23_000.0),
    "leader_flap": (271, 33, 0, 23_000.0),
    "stale_read": (420, 43, 0, 23_000.0),
}

GEO_GOLDEN = (263, 27, 0, 23_000.0)


def _replication_fault_cluster(kind):
    from repro.faults import FaultPlan, fault

    if kind == "follower_lag":
        plan = FaultPlan(events=(
            fault("follower_lag", at_us=3_000.0, duration_us=6_000.0,
                  target=0, follower=0, delay_us=400.0),
        ))
        return Cluster(tiny_config("primo", replicas_per_partition=2),
                       tiny_ycsb(), faults=plan)
    if kind == "follower_crash":
        # A windowed crash on partition 0 plus a crash on partition 1 whose
        # stall is cut short by an explicit follower_recover at 8 ms.
        plan = FaultPlan(events=(
            fault("follower_crash", at_us=3_000.0, duration_us=4_000.0,
                  target=0, follower=0),
            fault("follower_crash", at_us=4_000.0, duration_us=8_000.0,
                  target=1, follower=0),
            fault("follower_recover", at_us=8_000.0, target=1, follower=0),
        ))
        return Cluster(tiny_config("primo", replicas_per_partition=2),
                       tiny_ycsb(), faults=plan)
    if kind == "leader_flap":
        plan = FaultPlan(events=(
            fault("leader_flap", at_us=3_000.0, target=1,
                  cycles=2, interval_us=5_000.0),
        ))
        return Cluster(
            tiny_config("primo", heartbeat_interval_us=500.0,
                        heartbeat_timeout_us=2_000.0),
            tiny_ycsb(), faults=plan)
    assert kind == "stale_read"
    from repro.faults import ALL_PARTITIONS

    plan = FaultPlan(events=(
        fault("stale_read", at_us=3_000.0, duration_us=8_000.0,
              target=ALL_PARTITIONS, fraction=0.3),
    ))
    return Cluster(tiny_config("primo"), tiny_ycsb(), faults=plan)


@pytest.mark.parametrize("kind", sorted(REPLICATION_FAULT_GOLDEN))
def test_fixed_seed_replication_fault_runs_match_golden_counts(kind):
    cluster = _replication_fault_cluster(kind)
    result = cluster.run()
    committed, aborted, crash_aborted, final_now = REPLICATION_FAULT_GOLDEN[kind]
    assert result.metrics.committed == committed
    assert result.metrics.aborted == aborted
    assert result.metrics.crash_aborted == crash_aborted
    assert cluster.env.now == final_now
    counters = result.metrics.counters
    if kind == "follower_crash":
        assert counters.get("follower_crashes_injected") == 2
    elif kind == "leader_flap":
        assert counters.get("leader_flaps") == 2
        assert counters.get("crashes_injected") == 2
        assert counters.get("recoveries_completed") == 2
    elif kind == "stale_read":
        assert counters.get("stale_reads") == 662
    # Fault-plan runs carry the degradation timeline; its totals track the
    # surviving (non-crash-aborted) commits exactly.
    assert result.timeline is not None
    assert result.timeline.total_count == committed


def test_fixed_seed_geo_topology_run_matches_golden_counts():
    from repro.sim.topology import RegionTopology

    topology = RegionTopology(
        regions=("east", "west"),
        latency_us=((5.0, 120.0), (120.0, 5.0)),
        partition_regions=("east", "west"),
        follower_regions=(("east", "west"),),
    )
    cluster = Cluster(tiny_config("primo"), tiny_ycsb(), topology=topology)
    result = cluster.run()
    assert (result.metrics.committed, result.metrics.aborted,
            result.metrics.crash_aborted, cluster.env.now) == GEO_GOLDEN
    # Topology changes the simulated timing, so the counts must differ from
    # the scalar-latency golden (which pins the no-topology fast path).
    assert (result.metrics.committed, result.metrics.aborted) != GOLDEN["primo"][:2]
    # Fault-free runs — topology or not — record no timeline.
    assert result.timeline is None
