"""Tests of the declarative fault-plan API (`repro.faults`).

Three contractual properties:

* **eager validation** — unknown fault kinds, missing/unknown parameters,
  bad targets and malformed windows raise at construction with did-you-mean
  hints, and a plan targeting a partition the cluster does not have fails
  when the cluster starts, not silently mid-run;
* **pre-plan goldens** — the three single-event plans that replaced the
  scalar fault knobs (removed since) reproduce the fixed-seed results those
  knobs gave before fault plans existed, exactly;
* **one execution path** — a spec with a multi-event plan produces identical
  results through ``repro.run``, the cached orchestrator, and a
  ``--scenario file.json`` CLI invocation.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro import FaultPlan, ScenarioSpec, fault
from repro.bench.__main__ import main as bench_main
from repro.bench.orchestrator import Cell, run_cells
from repro.registry import FAULT_REGISTRY, UnknownNameError, register_fault

from tests.api.test_scenario import fingerprint
from tests.conftest import elections

#: Fixed-seed fingerprints at TINY scale of the scalar fault knobs the plans
#: below replaced, captured on the commit *before* fault plans existed.  If
#: these change, fault injection changed simulation semantics — that must be
#: intentional and called out in the PR description.
LEGACY_GOLDENS = {
    # Partition 1's control messages lag by 5 ms — fig13a's cell.
    "message_delay": (558, 36, 0, 476),
    # Messages to partition 1 take 200 us longer — fig13b's cell.
    "slow_partition": (354, 24, 0, 338),
    # Partition 1's leader dies at 4 ms (hb 500/2000) — fig12b-style.
    "crash": (232, 26, 0, 247),
}


def counts(result) -> tuple:
    return (result.committed, result.aborted, result.metrics.crash_aborted,
            result.network_messages)


# ---------------------------------------------------------------------------
# Eager validation
# ---------------------------------------------------------------------------

def test_unknown_fault_kind_fails_with_suggestion():
    with pytest.raises(UnknownNameError, match="did you mean 'crash'"):
        fault("crsh", at_us=100.0, target=0)


def test_missing_and_unknown_parameters_fail_at_construction():
    with pytest.raises(ValueError, match="missing parameter.*delay_us"):
        fault("message_delay", target=1)
    with pytest.raises(ValueError, match="did you mean 'delay_us'"):
        fault("message_delay", target=1, delay_su=5.0)


def test_bad_targets_and_windows_fail_at_construction():
    with pytest.raises(ValueError, match="at_us must be >= 0"):
        fault("crash", at_us=-1.0, target=0)
    with pytest.raises(ValueError, match="duration_us must be > 0"):
        fault("slow_partition", at_us=0, duration_us=0.0, target=1, delay_us=5.0)
    with pytest.raises(ValueError, match="does not take a duration"):
        fault("recover", at_us=10.0, duration_us=5.0, target=1)
    with pytest.raises(ValueError, match="unknown fault target"):
        fault("crash", at_us=1.0, target="everything")
    with pytest.raises(ValueError, match="duplicates"):
        fault("crash", at_us=1.0, target=[1, 1])


def test_plan_targeting_a_missing_partition_fails_at_start():
    spec = ScenarioSpec(protocol="primo", scale="tiny",
                        config_overrides={"n_partitions": 2},
                        faults=[fault("slow_partition", target=5, delay_us=10.0)])
    cluster = repro.build(spec)
    with pytest.raises(ValueError, match="targets partition 5"):
        cluster.start()


def test_spec_accepts_plan_objects_events_and_dicts_equivalently():
    via_dicts = ScenarioSpec(
        protocol="primo", scale="tiny",
        faults=[{"kind": "message_delay", "target": 1, "delay_us": 5000}])
    via_events = ScenarioSpec(
        protocol="primo", scale="tiny",
        faults=[fault("message_delay", target=1, delay_us=5_000.0)])
    via_plan = ScenarioSpec(
        protocol="primo", scale="tiny",
        faults=FaultPlan(events=(fault("message_delay", target=1, delay_us=5000),)))
    assert via_dicts == via_events == via_plan
    assert via_dicts.canonical_json() == via_plan.canonical_json()


def test_fault_plan_json_round_trip_is_lossless():
    plan = FaultPlan(events=(
        fault("message_delay", target=1, delay_us=5_000.0),
        fault("slow_partition", at_us=1_000.0, duration_us=2_000.0,
              target=[0, 2], delay_us=100.0),
        fault("crash", at_us=4_000.0, target=1),
        fault("network_partition", at_us=2_000.0, duration_us=500.0, target="all"),
    ))
    spec = ScenarioSpec(protocol="primo", scale="tiny", faults=plan)
    assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_empty_fault_plans_normalize_to_none():
    assert ScenarioSpec(protocol="primo", faults=[]).faults is None
    assert ScenarioSpec(protocol="primo", faults=FaultPlan()).faults is None
    assert ScenarioSpec(protocol="primo").faults is None


# ---------------------------------------------------------------------------
# Pre-plan golden pins (each golden was captured from the retired scalar knob
# its fault kind replaced)
# ---------------------------------------------------------------------------

def test_message_delay_fault_matches_its_pre_plan_golden():
    spec = ScenarioSpec(
        protocol="primo", scale="tiny",
        faults=[fault("message_delay", target=1, delay_us=5_000.0)])
    assert counts(repro.run(spec)) == LEGACY_GOLDENS["message_delay"]


def test_slow_partition_fault_matches_its_pre_plan_golden():
    spec = ScenarioSpec(
        protocol="primo", scale="tiny",
        faults=[fault("slow_partition", target=1, delay_us=200.0)])
    assert counts(repro.run(spec)) == LEGACY_GOLDENS["slow_partition"]


def test_crash_fault_matches_its_pre_plan_golden():
    spec = ScenarioSpec(
        protocol="primo", scale="tiny",
        faults=[fault("crash", at_us=4_000.0, target=1)],
        config_overrides={"heartbeat_interval_us": 500.0,
                          "heartbeat_timeout_us": 2_000.0})
    result = repro.run(spec)
    assert counts(result) == LEGACY_GOLDENS["crash"]
    assert result.metrics.counters.get("crashes_injected") == 1


# ---------------------------------------------------------------------------
# Windows, storms, and scheduling behaviour
# ---------------------------------------------------------------------------

def test_windowed_fault_is_applied_and_reverted():
    spec = ScenarioSpec(
        protocol="primo", scale="tiny",
        faults=[fault("slow_partition", at_us=2_000.0, duration_us=2_000.0,
                      target=1, delay_us=300.0)])
    cluster = repro.build(spec)
    cluster.run()
    assert cluster.fault_scheduler.applied == 1
    assert cluster.fault_scheduler.reverted == 1
    # The injection was cleared: the network is back to its base latency.
    assert cluster.network.latency(0, 1) == cluster.network.one_way_latency_us
    assert not cluster.network._extra_delay_to
    # And the window left a visible dent versus the permanent variant.
    permanent = repro.run(spec.derive(
        faults=[fault("slow_partition", at_us=2_000.0, target=1, delay_us=300.0)]))
    windowed = repro.run(spec)
    assert fingerprint(windowed) != fingerprint(permanent)


def test_multi_event_storm_runs_through_every_layer():
    """A failure storm: delay window + asymmetric slowdown + partition blip."""
    spec = ScenarioSpec(
        protocol="primo", scale="tiny",
        faults=[
            fault("message_delay", at_us=0.0, duration_us=3_000.0,
                  target=1, delay_us=2_000.0),
            fault("slow_source", at_us=1_000.0, duration_us=2_000.0,
                  target=0, delay_us=50.0),
            fault("network_partition", at_us=4_000.0, duration_us=300.0, target=1),
        ])
    cluster = repro.build(spec)
    result = cluster.run()
    assert cluster.fault_scheduler.applied == 3
    assert cluster.fault_scheduler.reverted == 3
    assert result.metrics.counters.get("partitions_isolated") == 1
    assert result.committed > 0


def test_rolling_crashes_recover_both_partitions():
    spec = ScenarioSpec(
        protocol="primo", scale="tiny",
        config_overrides={"n_partitions": 3, "duration_us": 30_000.0,
                          "heartbeat_interval_us": 500.0,
                          "heartbeat_timeout_us": 2_000.0},
        faults=[
            fault("crash", at_us=5_000.0, target=1),
            fault("crash", at_us=15_000.0, target=2),
        ])
    cluster = repro.build(spec)
    result = cluster.run()
    assert result.metrics.counters.get("crashes_injected") == 2
    assert elections(cluster) >= 2
    assert not cluster.servers[1].crashed and not cluster.servers[2].crashed
    assert result.committed > 0


def test_overlapping_same_kind_windows_are_rejected_at_start():
    """Reverts clear absolutely (not restore-prior), so a window ending inside
    another same-kind injection on the same target is a plan-authoring error."""
    spec = ScenarioSpec(
        protocol="primo", scale="tiny",
        faults=[
            fault("slow_partition", at_us=0.0, duration_us=3_000.0,
                  target=1, delay_us=200.0),
            fault("slow_partition", at_us=1_000.0, duration_us=4_000.0,
                  target=1, delay_us=500.0),
        ])
    with pytest.raises(ValueError, match="overlapping 'slow_partition' windows"):
        repro.build(spec).start()
    # Disjoint windows, different targets, or windowless pairs are all fine.
    ok = ScenarioSpec(
        protocol="primo", scale="tiny",
        faults=[
            fault("slow_partition", at_us=0.0, duration_us=1_000.0,
                  target=1, delay_us=200.0),
            fault("slow_partition", at_us=2_000.0, duration_us=1_000.0,
                  target=1, delay_us=500.0),
            fault("slow_source", at_us=0.0, duration_us=3_000.0,
                  target=1, delay_us=50.0),
        ])
    assert repro.run(ok).committed > 0


def test_windowed_crash_recovers_without_duplicate_recovery():
    """A crash window whose revert fires before heartbeat detection must not
    race the monitor into a second concurrent recovery."""
    spec = ScenarioSpec(
        protocol="primo", scale="tiny",
        config_overrides={"duration_us": 20_000.0,
                          "heartbeat_interval_us": 500.0,
                          "heartbeat_timeout_us": 4_000.0},
        faults=[fault("crash", at_us=5_000.0, duration_us=1_000.0, target=1)])
    cluster = repro.build(spec)
    result = cluster.run()
    assert result.metrics.counters.get("crashes_injected") == 1
    assert elections(cluster) == 1
    assert not cluster.servers[1].crashed
    assert result.committed > 0


def test_explicit_recover_event_is_idempotent_with_detection():
    """A scheduled `recover` composes with heartbeat-driven recovery: whoever
    fires second is a no-op, and the run still completes exactly one recovery."""
    spec = ScenarioSpec(
        protocol="primo", scale="tiny",
        config_overrides={"heartbeat_interval_us": 500.0,
                          "heartbeat_timeout_us": 2_000.0},
        faults=[
            fault("crash", at_us=3_000.0, target=1),
            fault("recover", at_us=3_500.0, target=1),
        ])
    cluster = repro.build(spec)
    result = cluster.run()
    assert result.metrics.counters.get("crashes_injected") == 1
    assert result.metrics.counters.get("recoveries_completed") >= 1
    assert not cluster.servers[1].crashed


def test_clock_skew_pushes_the_commit_floor():
    spec = ScenarioSpec(
        protocol="primo", scale="tiny",
        faults=[fault("clock_skew", at_us=1_000.0, target=0, skew_us=5_000.0)])
    cluster = repro.build(spec)
    result = cluster.run()
    assert cluster.servers[0].highest_ts_seen >= 6_000.0
    assert result.committed > 0


# ---------------------------------------------------------------------------
# Registry extension point
# ---------------------------------------------------------------------------

def test_external_fault_type_registers_and_runs():
    @register_fault("test_latency_spike", params=("delay_us",),
                    description="test-only network-wide latency bump")
    class LatencySpikeFault:
        @staticmethod
        def apply(cluster, partition_id, params):
            cluster.network.set_extra_delay_to(partition_id, params["delay_us"])

        @staticmethod
        def revert(cluster, partition_id, params):
            cluster.network.set_extra_delay_to(partition_id, 0.0)

    try:
        spec = ScenarioSpec(
            protocol="primo", scale="tiny",
            faults=[fault("test_latency_spike", at_us=1_000.0,
                          duration_us=2_000.0, target="all", delay_us=25.0)])
        cluster = repro.build(spec)
        result = cluster.run()
        assert cluster.fault_scheduler.applied == 1
        assert result.committed > 0
    finally:
        FAULT_REGISTRY.unregister("test_latency_spike")
    with pytest.raises(UnknownNameError):
        fault("test_latency_spike", target=0, delay_us=1.0)


def test_reserved_parameter_names_are_rejected_at_registration():
    with pytest.raises(ValueError, match="reserved parameter"):
        register_fault("test_bad_fault", params=("kind",))


# ---------------------------------------------------------------------------
# Sweep axes and the three execution paths
# ---------------------------------------------------------------------------

def test_sweep_accepts_fault_plans_and_mixes_as_axes():
    base = ScenarioSpec(protocol="primo", scale="tiny")
    storm = [{"kind": "crash", "at_us": 4_000.0, "target": 1}]
    grid = repro.sweep(base,
                       faults=[None, storm],
                       workload=["ycsb", {"ycsb": 0.5, "smallbank": 0.5}])
    assert len(grid) == 4
    assert {spec.workload for spec in grid} == {"ycsb", "mixed"}
    assert sum(1 for spec in grid if spec.faults is not None) == 2
    # Every grid point has a distinct cache identity.
    keys = {Cell(figure="t", key=str(i), spec=spec).cache_key()
            for i, spec in enumerate(grid)}
    assert len(keys) == 4


def test_fault_plan_changes_the_orchestrator_cache_key():
    plain = ScenarioSpec(protocol="primo", scale="tiny")
    faulted = plain.derive(
        faults=[{"kind": "message_delay", "target": 1, "delay_us": 1_000.0}])
    assert (Cell(figure="f", key="a", spec=plain).cache_key()
            != Cell(figure="f", key="a", spec=faulted).cache_key())


def test_faulted_spec_is_identical_across_run_orchestrator_and_cli(tmp_path, capsys):
    """Acceptance: multi-event FaultPlan + weighted mix produce the same
    fixed-seed result via repro.run, the cached orchestrator, and --scenario."""
    spec = ScenarioSpec(
        protocol="primo", scale="tiny",
        workload={"ycsb": 0.7, "tatp": 0.3},
        faults=[
            {"kind": "message_delay", "at_us": 0, "target": 1, "delay_us": 2_000.0},
            {"kind": "slow_partition", "at_us": 1_000.0, "duration_us": 2_000.0,
             "target": 1, "delay_us": 100.0},
        ])
    direct = repro.run(spec)

    cell = Cell(figure="scenario", key="#0", spec=spec)
    outcome = run_cells([cell], jobs=1, cache=None)
    via_orchestrator = outcome.results[cell]
    assert fingerprint(via_orchestrator) == fingerprint(direct)

    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(spec.to_json())
    artifact = tmp_path / "result.json"
    code = bench_main(["--scenario", str(scenario_file),
                       "--cache-dir", str(tmp_path / "cache"),
                       "--emit-json", str(artifact), "--quiet-progress"])
    assert code == 0
    capsys.readouterr()
    [entry] = json.loads(artifact.read_text())["scenarios"]
    assert entry["result"]["committed"] == direct.committed
    assert entry["result"]["aborted"] == direct.aborted
    assert ScenarioSpec.from_json_dict(entry["spec"]) == spec


# ---------------------------------------------------------------------------
# Replication-layer fault kinds and the standard storm
# ---------------------------------------------------------------------------

def test_replication_fault_kinds_are_registered():
    registered = set(FAULT_REGISTRY.names())
    assert {"follower_lag", "follower_crash", "follower_recover",
            "leader_flap", "stale_read"} <= registered


def test_follower_faults_validate_parameters_eagerly():
    with pytest.raises(ValueError, match="missing parameter"):
        fault("follower_lag", target=0, follower=0)  # no delay_us
    with pytest.raises(ValueError, match="missing parameter"):
        fault("follower_crash", target=0)  # no follower
    with pytest.raises(ValueError, match="unknown parameter"):
        fault("stale_read", target=0, fraction=0.1, follower=0)


def test_leader_flap_rejects_a_duration_window():
    # The flap schedules its own crash/recover cycles; a revert window on top
    # would be meaningless, so it is rejected eagerly like `crash`'s.
    with pytest.raises(ValueError, match="does not take a duration_us"):
        fault("leader_flap", at_us=1_000.0, duration_us=5_000.0, target=0,
              cycles=2, interval_us=2_000.0)


def test_follower_index_out_of_range_fails_at_start():
    spec = ScenarioSpec(
        protocol="primo", scale="tiny",
        config_overrides={"replicas_per_partition": 3},
        faults=[fault("follower_lag", target=0, follower=7, delay_us=100.0)])
    cluster = repro.build(spec)
    with pytest.raises(ValueError, match="follower index 7 is out of range"):
        cluster.start()


def test_stale_read_fraction_is_validated_at_start():
    spec = ScenarioSpec(
        protocol="primo", scale="tiny",
        faults=[fault("stale_read", target=0, fraction=1.5)])
    cluster = repro.build(spec)
    with pytest.raises(ValueError, match="fraction"):
        cluster.start()


def test_leader_flap_parameters_are_validated_at_start():
    for params in ({"cycles": 0, "interval_us": 1_000.0},
                   {"cycles": 2, "interval_us": 0.0}):
        spec = ScenarioSpec(protocol="primo", scale="tiny",
                            faults=[fault("leader_flap", target=0, **params)])
        cluster = repro.build(spec)
        with pytest.raises(ValueError):
            cluster.start()


def test_standard_storm_factory_builds_a_valid_plan():
    events = repro.standard_storm(2_000.0, 60_000.0)
    assert [event.kind for event in events] == [
        "follower_lag", "slow_partition", "follower_crash", "leader_flap",
        "stale_read"]
    # The whole storm fits inside the measurement window.
    for event in events:
        assert event.at_us >= 2_000.0
        end = event.at_us + (event.duration_us or 0.0)
        assert end <= 62_000.0
    # It is directly usable as a spec's fault plan.
    plan = FaultPlan(events=tuple(events))
    spec = ScenarioSpec(protocol="primo", scale="tiny", faults=plan)
    assert spec.faults == plan
    with pytest.raises(ValueError, match="duration_us"):
        repro.standard_storm(0.0, 0.0)


def test_fault_plan_runs_record_a_timeline_and_fault_free_runs_do_not():
    faulted = repro.run(ScenarioSpec(
        protocol="primo", scale="tiny",
        faults=[fault("slow_partition", at_us=3_000.0, duration_us=2_000.0,
                      target=0, delay_us=100.0)]))
    assert faulted.timeline is not None
    assert faulted.timeline.total_count == faulted.committed
    assert faulted.degradation_depth is not None
    assert "degradation_depth" in faulted.summary()
    clean = repro.run(ScenarioSpec(protocol="primo", scale="tiny"))
    assert clean.timeline is None
    assert clean.degradation_depth is None
    assert clean.time_to_90pct_recovery_us is None
    assert "degradation_depth" not in clean.summary()
