"""Tests of the declarative scenario layer (`repro.scenario`).

Covers the three contractual properties of :class:`repro.ScenarioSpec`:

* **eager validation** — unknown protocol/durability/workload names and
  unknown override keys raise at *construction*, with did-you-mean hints;
* **JSON round trip** — ``from_json(to_json(spec)) == spec`` and the
  canonical JSON is stable under override-dict ordering;
* **single entry point** — ``repro.run(spec)`` runs every registered
  (protocol × workload) pair at ``TINY_SCALE``.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro import ScenarioSpec
from repro.registry import PROTOCOL_REGISTRY, WORKLOAD_REGISTRY, UnknownNameError
from repro.scales import SCALES, TINY_SCALE
from repro.scenario import build, sweep


def fingerprint(result) -> tuple:
    """Everything that must match for two runs to count as bit-identical."""
    return (
        result.committed,
        result.aborted,
        result.metrics.crash_aborted,
        result.network_messages,
        tuple(result.metrics.latency.samples),
        tuple(sorted(result.abort_reasons.items())),
        tuple(sorted(result.per_txn_type.items())),
    )


# ---------------------------------------------------------------------------
# Eager validation
# ---------------------------------------------------------------------------

def test_typo_protocol_fails_at_construction_with_suggestion():
    with pytest.raises(UnknownNameError, match="did you mean 'primo'"):
        ScenarioSpec(protocol="prmo")
    with pytest.raises(UnknownNameError, match="did you mean 'sundial'"):
        ScenarioSpec(protocol="sundail")


def test_typo_workload_and_durability_fail_at_construction():
    with pytest.raises(UnknownNameError, match="did you mean 'tpcc'"):
        ScenarioSpec(protocol="primo", workload="tppc")
    with pytest.raises(UnknownNameError, match="did you mean 'wm'"):
        ScenarioSpec(protocol="primo", durability="wn")


def test_unknown_override_keys_fail_at_construction():
    with pytest.raises(ValueError, match="zipf_theta"):
        ScenarioSpec(protocol="primo", workload_overrides={"zipf_thta": 0.9})
    with pytest.raises(ValueError, match="n_partitions"):
        ScenarioSpec(protocol="primo", config_overrides={"n_partition": 2})
    # Workload overrides are validated against the *registered* config class:
    # a YCSB knob is rejected for TPC-C.
    with pytest.raises(ValueError, match="unknown workload override"):
        ScenarioSpec(protocol="primo", workload="tpcc",
                     workload_overrides={"zipf_theta": 0.5})


def test_unknown_scale_name_fails_with_suggestion():
    with pytest.raises(UnknownNameError, match="did you mean 'small'"):
        ScenarioSpec(protocol="primo", scale="samll")


def test_durability_is_set_only_through_its_field():
    assert ScenarioSpec(protocol="primo", durability="coco").durability == "coco"
    with pytest.raises(ValueError, match="unknown config override 'durability'"):
        ScenarioSpec(protocol="primo", config_overrides={"durability": "coco"})
    with pytest.raises(ValueError, match="unknown config override 'durability'"):
        ScenarioSpec(protocol="primo", durability="coco",
                     config_overrides={"durability": "coco"})


def test_resolved_durability_follows_the_registered_pairing():
    assert ScenarioSpec(protocol="primo").resolved_durability == "wm"
    assert ScenarioSpec(protocol="tapir").resolved_durability == "sync"
    assert ScenarioSpec(protocol="silo", durability="clv").resolved_durability == "clv"


def test_non_serializable_override_values_rejected():
    with pytest.raises(TypeError, match="non-JSON-serializable"):
        ScenarioSpec(protocol="primo", config_overrides={"seed": {1: 2}})


# ---------------------------------------------------------------------------
# JSON round trip and canonical identity
# ---------------------------------------------------------------------------

def test_json_round_trip_is_lossless():
    spec = ScenarioSpec(
        protocol="sundial",
        workload="tpcc",
        durability="clv",
        scale="tiny",
        config_overrides={"n_partitions": 2, "seed": 9},
        workload_overrides={"warehouses_per_partition": 3},
        faults=[{"kind": "message_delay", "target": 1, "delay_us": 500.0},
                {"kind": "slow_partition", "target": 0, "delay_us": 125.0}],
    )
    assert ScenarioSpec.from_json(spec.to_json()) == spec
    # And through a plain json load, as a scenario file would be read.
    assert ScenarioSpec.from_json_dict(json.loads(spec.to_json())) == spec


def test_canonical_json_is_order_insensitive_and_scale_name_insensitive():
    a = ScenarioSpec(protocol="primo", scale="small",
                     workload_overrides={"zipf_theta": 0.4, "write_pct": 0.2})
    b = ScenarioSpec(protocol="primo", scale=SCALES["small"],
                     workload_overrides={"write_pct": 0.2, "zipf_theta": 0.4})
    assert a == b
    assert a.canonical_json() == b.canonical_json()
    assert hash(a) == hash(b)


def test_from_json_dict_rejects_unknown_fields_and_missing_protocol():
    with pytest.raises(ValueError, match="unknown scenario field"):
        ScenarioSpec.from_json_dict({"protocol": "primo", "workloud": "ycsb"})
    with pytest.raises(ValueError, match="missing the required 'protocol'"):
        ScenarioSpec.from_json_dict({"workload": "ycsb"})


# ---------------------------------------------------------------------------
# derive() and sweep()
# ---------------------------------------------------------------------------

def test_derive_routes_axes_to_the_right_layer():
    base = ScenarioSpec(protocol="primo", scale="tiny")
    varied = base.derive(protocol="sundial", n_partitions=2, zipf_theta=0.9)
    assert varied.protocol == "sundial"
    assert dict(varied.config_overrides)["n_partitions"] == 2
    assert dict(varied.workload_overrides)["zipf_theta"] == 0.9
    assert base.config_overrides == ()  # original untouched
    with pytest.raises(ValueError, match="unknown scenario axis"):
        base.derive(zipf_thta=0.9)


def test_derive_explicit_override_replacement_wins_over_the_base():
    """Regression: an explicit config_overrides/workload_overrides replacement
    combined with loose knobs must start from the replacement, not from the
    old spec's overrides."""
    base = ScenarioSpec(protocol="primo", scale="tiny",
                        config_overrides={"epoch_length_us": 500.0},
                        workload_overrides={"write_pct": 0.1})
    derived = base.derive(config_overrides={"seed": 1}, n_partitions=2)
    assert dict(derived.config_overrides) == {"seed": 1, "n_partitions": 2}
    derived = base.derive(workload_overrides={"write_pct": 1.0}, zipf_theta=0.9)
    assert dict(derived.workload_overrides) == {"write_pct": 1.0, "zipf_theta": 0.9}


def test_derive_resets_workload_overrides_when_workload_changes():
    base = ScenarioSpec(protocol="primo", scale="tiny",
                        workload_overrides={"zipf_theta": 0.8})
    switched = base.derive(workload="tpcc")
    assert switched.workload_overrides == ()
    sized = base.derive(workload="tpcc", items=100)
    assert dict(sized.workload_overrides) == {"items": 100}


def test_sweep_expands_the_cartesian_product():
    base = ScenarioSpec(protocol="primo", scale="tiny")
    grid = sweep(base, protocol=["primo", "sundial"], zipf_theta=[0.0, 0.6, 0.9])
    assert len(grid) == 6
    assert [s.protocol for s in grid[:3]] == ["primo", "primo", "primo"]
    assert sorted({dict(s.workload_overrides)["zipf_theta"] for s in grid}) == [0.0, 0.6, 0.9]
    with pytest.raises(ValueError, match="no values"):
        sweep(base, protocol=[])
    with pytest.raises(UnknownNameError):
        # The grid is lazy, so per-spec validation happens on materialization.
        list(sweep(base, protocol=["primo", "prmo"]))


def test_sweep_is_lazy_and_indexable_without_materializing(monkeypatch):
    """A million-spec grid yields its first element after exactly one derive."""
    base = ScenarioSpec(protocol="primo", scale="tiny")
    derives = []
    original = ScenarioSpec.derive

    def counting_derive(self, **changes):
        derives.append(changes)
        return original(self, **changes)

    monkeypatch.setattr(ScenarioSpec, "derive", counting_derive)
    grid = sweep(base, seed=range(1_000), zipf_theta=[0.0, 0.2, 0.4, 0.6])
    assert len(grid) == 4_000
    assert derives == []  # construction derives nothing
    first = next(iter(grid))
    assert dict(first.config_overrides)["seed"] == 0
    assert len(derives) == 1
    # Random access decodes the mixed-radix index instead of walking the grid.
    spec = grid[4 * 17 + 2]
    assert dict(spec.config_overrides)["seed"] == 17
    assert dict(spec.workload_overrides)["zipf_theta"] == 0.4
    assert len(derives) == 2
    assert grid[-1].config_overrides == grid[len(grid) - 1].config_overrides
    with pytest.raises(IndexError):
        grid[len(grid)]


def test_sweep_combinations_pairs_assignments_with_specs():
    base = ScenarioSpec(protocol="primo", scale="tiny")
    grid = sweep(base, protocol=["primo", "sundial"], zipf_theta=[0.0, 0.9])
    pairs = list(grid.combinations())
    assert [assignment for assignment, _ in pairs] == [
        {"protocol": "primo", "zipf_theta": 0.0},
        {"protocol": "primo", "zipf_theta": 0.9},
        {"protocol": "sundial", "zipf_theta": 0.0},
        {"protocol": "sundial", "zipf_theta": 0.9},
    ]
    for assignment, spec in pairs:
        assert spec.protocol == assignment["protocol"]


def test_known_axes_covers_spec_config_and_workload_fields():
    from repro.scenario import known_axes

    base = ScenarioSpec(protocol="primo", scale="tiny")
    axes = known_axes(base)
    assert "protocol" in axes and "seed" in axes and "zipf_theta" in axes
    assert "warehouses_per_partition" not in axes  # tpcc not in play
    widened = known_axes(base, extra_workloads=["tpcc", {"ycsb": 0.5, "tatp": 0.5}])
    assert "warehouses_per_partition" in widened
    assert "components" in widened  # the mixed workload's config field


# ---------------------------------------------------------------------------
# The facade is the single entry point
# ---------------------------------------------------------------------------

def test_build_applies_scale_defaults_and_failure_knobs():
    spec = ScenarioSpec(protocol="primo", scale="tiny",
                        faults=[{"kind": "slow_partition", "target": 1,
                                 "delay_us": 200.0}])
    cluster = build(spec)
    assert cluster.config.duration_us == TINY_SCALE.duration_us
    assert cluster.config.workers_per_partition == TINY_SCALE.workers_per_partition
    assert cluster.workload.config.keys_per_partition == TINY_SCALE.ycsb_keys_per_partition
    # A zero-time fault event is installed when the cluster starts (before
    # the first simulation event).
    [event] = cluster.fault_plan.events
    assert (event.kind, event.target, dict(event.params)) == (
        "slow_partition", 1, {"delay_us": 200.0})
    cluster.start()
    assert cluster.network._extra_delay_to[1] == 200.0


#: The composite workload has no default components; every pair gets the
#: overrides its workload needs to construct.
_PAIR_OVERRIDES = {"mixed": {"components": [["ycsb", 0.7], ["tatp", 0.3]]}}


@pytest.mark.parametrize("protocol", sorted(PROTOCOL_REGISTRY.names()))
@pytest.mark.parametrize("workload", sorted(WORKLOAD_REGISTRY.names()))
def test_run_drives_every_protocol_workload_pair(protocol, workload):
    """``repro.run`` drives every registered (protocol × workload) pair at
    TINY_SCALE, and the config override reaches the cluster."""
    spec = ScenarioSpec(protocol=protocol, workload=workload, scale=TINY_SCALE,
                        workload_overrides=_PAIR_OVERRIDES.get(workload, {}),
                        config_overrides={"n_partitions": 2})
    result = repro.run(spec)
    assert result.committed > 0
    assert result.protocol == protocol and result.workload.startswith(workload)
    assert result.durability == spec.resolved_durability
    assert result.n_partitions == 2  # the config override reached the cluster


def test_scale_defaults_size_tatp_and_smallbank():
    """--scale now sizes the extension workloads too (regression: they used
    to silently keep their config defaults at every scale)."""
    for name, attr, config_field in [
        ("tatp", "tatp_subscribers_per_partition", "subscribers_per_partition"),
        ("smallbank", "smallbank_accounts_per_partition", "accounts_per_partition"),
    ]:
        sizes = set()
        for scale in [*SCALES.values(), TINY_SCALE]:
            workload = repro.scenarios.build_workload(scale, name)
            assert getattr(workload.config, config_field) == getattr(scale, attr)
            sizes.add(getattr(workload.config, config_field))
        assert len(sizes) > 1, f"{name} population does not scale"


def test_optional_fields_are_omitted_when_none_and_null_is_accepted():
    bare = ScenarioSpec(protocol="primo", scale="tiny")
    document = bare.to_json_dict()
    assert not {"faults", "arrival", "topology"} & set(document)
    # A hand-written scenario file may still spell the absence out.
    spelled_out = {**document, "faults": None, "arrival": None, "topology": None}
    assert ScenarioSpec.from_json_dict(spelled_out) == bare


def test_topology_axis_round_trips_and_stays_out_of_bare_specs():
    topology = {
        "regions": ["east", "west"],
        "latency_us": [[5.0, 80.0], [80.0, 5.0]],
        "partition_regions": ["east", "west"],
    }
    spec = ScenarioSpec(protocol="primo", scale="tiny", topology=topology)
    assert isinstance(spec.topology, repro.RegionTopology)
    assert ScenarioSpec.from_json(spec.to_json()) == spec
    # Specs without a topology keep the key out of the JSON entirely, so the
    # orchestrator cache keys of every pre-topology spec are unchanged.
    bare = ScenarioSpec(protocol="primo", scale="tiny")
    assert bare.topology is None
    assert "topology" not in bare.to_json_dict()
    assert spec.canonical_json() != bare.canonical_json()


def test_topology_spec_builds_a_geo_cluster():
    spec = ScenarioSpec(
        protocol="primo", scale="tiny",
        topology={
            "regions": ["east", "west"],
            "latency_us": [[5.0, 120.0], [120.0, 5.0]],
            "partition_regions": ["east", "west"],
        })
    cluster = repro.build(spec)
    # Cross-region leaders pay the matrix entry; the scalar default is gone.
    assert cluster.network.latency(0, 1) == 120.0
