"""Tests of the first-class registries (`repro.registry`).

The acceptance bar for the registry layer: a new protocol / workload can be
registered from *this* module — no core file edited — and immediately works
everywhere names are consumed (SystemConfig validation, the protocol factory,
ScenarioSpec, the CLI listings, orchestrator sweeps).
"""

from __future__ import annotations

import pytest

from repro.bench.__main__ import main as bench_main
from repro.cluster.config import DURABILITY_SCHEMES, PROTOCOLS, SystemConfig
from repro.arrivals import ArrivalSpec, arrival
from repro.faults import FaultEvent, fault
from repro.protocols import SiloProtocol, create_protocol
from repro.registry import (
    ARRIVAL_REGISTRY,
    DURABILITY_REGISTRY,
    FAULT_REGISTRY,
    FIGURE_REGISTRY,
    PROTOCOL_REGISTRY,
    WORKLOAD_REGISTRY,
    DuplicateNameError,
    Registry,
    UnknownNameError,
    register_arrival,
    register_fault,
    register_protocol,
    register_workload,
)
from repro.scenario import ScenarioSpec, build_workload
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload

from tests.conftest import run_tiny


# ---------------------------------------------------------------------------
# Generic registry behavior
# ---------------------------------------------------------------------------

def test_register_get_and_views():
    reg = Registry("gizmo")
    reg.register("alpha", object(), colour="red")
    assert "alpha" in reg
    assert reg.names() == ("alpha",)
    assert reg.entry("alpha").metadata["colour"] == "red"

    # The registry is its own live view (PROTOCOLS, FIGURES, ... are registries):
    # a sorted-name iterable and a name -> implementation Mapping.
    reg.register("beta", object())
    assert tuple(reg) == ("alpha", "beta")
    assert len(reg) == 2 and "beta" in reg
    assert set(reg.keys()) == {"alpha", "beta"}
    assert reg["beta"] is reg.get("beta")
    assert dict(reg.items())["alpha"] is reg.get("alpha")
    with pytest.raises(UnknownNameError):
        reg["gamma"]


def test_register_as_decorator_returns_the_class():
    reg = Registry("gizmo")

    @reg.register("decorated", flavour="mint")
    class Thing:
        pass

    assert reg.get("decorated") is Thing
    assert Thing.__name__ == "Thing"  # decorator is transparent


def test_duplicate_registration_rejected_unless_replace():
    reg = Registry("gizmo")
    reg.register("alpha", 1)
    with pytest.raises(DuplicateNameError):
        reg.register("alpha", 2)
    assert reg.get("alpha") == 1
    reg.register("alpha", 2, replace=True)
    assert reg.get("alpha") == 2


def test_unknown_lookup_suggests_close_names():
    reg = Registry("gizmo")
    reg.register("sundial", 1)
    with pytest.raises(UnknownNameError, match="did you mean 'sundial'"):
        reg.get("sundail")
    with pytest.raises(UnknownNameError, match="unknown gizmo"):
        reg.unregister("nope")


def test_builtin_registries_hold_the_papers_implementations():
    assert set(PROTOCOL_REGISTRY.names()) == {
        "primo", "2pl_nw", "2pl_wd", "silo", "sundial", "aria", "tapir",
    }
    assert set(DURABILITY_REGISTRY.names()) == {"wm", "coco", "clv", "sync", "none"}
    assert set(WORKLOAD_REGISTRY.names()) == {
        "ycsb", "tpcc", "tatp", "smallbank", "mixed",
    }
    assert {f"fig{i:02d}" for i in range(4, 16)} <= set(FIGURE_REGISTRY.names())
    # The historical tuple views are backed by the registries.
    assert tuple(PROTOCOLS) == PROTOCOL_REGISTRY.names()
    assert tuple(DURABILITY_SCHEMES) == DURABILITY_REGISTRY.names()


def test_protocol_metadata_carries_the_durability_pairing():
    assert PROTOCOL_REGISTRY.entry("primo").metadata["default_durability"] == "wm"
    assert PROTOCOL_REGISTRY.entry("tapir").metadata["default_durability"] == "sync"
    assert PROTOCOL_REGISTRY.entry("aria").metadata["default_durability"] == "none"


# ---------------------------------------------------------------------------
# Unified unknown-name errors (deduplicated error paths)
# ---------------------------------------------------------------------------

def test_systemconfig_and_factory_raise_the_same_registry_error():
    with pytest.raises(UnknownNameError, match="did you mean 'primo'"):
        SystemConfig(protocol="prmo")
    with pytest.raises(UnknownNameError, match="did you mean 'primo'"):
        create_protocol("prmo", cluster=None)
    with pytest.raises(UnknownNameError, match="did you mean 'coco'"):
        SystemConfig(durability="cocoa")


def test_cli_unknown_figure_gets_a_suggestion(capsys):
    with pytest.raises(SystemExit):
        bench_main(["--only", "fig9"])
    assert "did you mean 'fig09'" in capsys.readouterr().err


def test_cli_scenario_rejects_contradictory_flags(tmp_path, capsys):
    """--scenario carries its own scale per spec; combining it with --scale
    or --figure must fail loudly instead of silently ignoring the flag."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"protocol": "primo", "scale": "tiny"}')
    with pytest.raises(SystemExit):
        bench_main(["--scenario", str(scenario), "--scale", "paper"])
    assert "--scale does not apply" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        bench_main(["--scenario", str(scenario), "--only", "fig04"])
    assert "mutually exclusive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Extending from outside the core (the acceptance scenario)
# ---------------------------------------------------------------------------

def test_protocol_registered_here_works_end_to_end(capsys):
    @register_protocol("silo_test_variant", default_durability="coco",
                       description="registered from a test module")
    class SiloTestVariant(SiloProtocol):
        pass

    try:
        assert "silo_test_variant" in PROTOCOLS
        # A spec picks up the registered pairing, and SystemConfig accepts it.
        spec = ScenarioSpec(protocol="silo_test_variant")
        assert spec.resolved_durability == "coco"
        SystemConfig(protocol="silo_test_variant", durability=spec.resolved_durability)
        # The CLI lists it.
        assert bench_main(["--list", "protocols"]) == 0
        assert "silo_test_variant" in capsys.readouterr().out
        # A ScenarioSpec run and an orchestrator sweep both execute it.
        _, result = run_tiny("silo_test_variant")
        assert result.committed > 0
        assert result.protocol == "silo_test_variant"
    finally:
        PROTOCOL_REGISTRY.unregister("silo_test_variant")
    assert "silo_test_variant" not in PROTOCOLS


def test_workload_registered_here_works_end_to_end(capsys):
    @register_workload("ycsb_test_variant", config_cls=YCSBConfig,
                       scale_defaults={"keys_per_partition": "ycsb_keys_per_partition"})
    class YCSBTestVariant(YCSBWorkload):
        pass

    try:
        workload = build_workload("tiny", "ycsb_test_variant", zipf_theta=0.9)
        assert isinstance(workload, YCSBTestVariant)
        assert workload.config.keys_per_partition == 2_000  # tiny-scale sizing
        assert workload.config.zipf_theta == 0.9
        # Spec validation accepts the new name and checks overrides against
        # the registered config dataclass.
        ScenarioSpec(protocol="primo", workload="ycsb_test_variant", scale="tiny",
                     workload_overrides={"write_pct": 1.0})
        with pytest.raises(UnknownNameError):
            ScenarioSpec(protocol="primo", workload="ycsb_test_varian", scale="tiny")
        assert bench_main(["--list", "workloads"]) == 0
        assert "ycsb_test_variant" in capsys.readouterr().out
    finally:
        WORKLOAD_REGISTRY.unregister("ycsb_test_variant")


def test_figure_registered_here_appears_in_cli_and_sweeps(capsys):
    from repro.bench.experiments import FIGURES, FigureSpec
    from repro.bench.orchestrator import Cell, run_cells
    from repro.scales import TINY_SCALE

    def plan(scale):
        return [Cell("figtest", "primo", ScenarioSpec(protocol="primo", scale=scale))]

    def render(scale, results):
        return {"committed": results["primo"].committed}

    FIGURE_REGISTRY.register("figtest", FigureSpec("figtest", plan, render))
    try:
        assert "figtest" in FIGURES  # the live registry view
        cells = FIGURES["figtest"].plan(TINY_SCALE)
        outcome = run_cells(cells, jobs=1)
        data = FIGURES["figtest"].render(TINY_SCALE, outcome.by_key(cells))
        assert data["committed"] > 0
        assert bench_main(["--list", "figures"]) == 0
        assert "figtest" in capsys.readouterr().out
    finally:
        FIGURE_REGISTRY.unregister("figtest")


# ---------------------------------------------------------------------------
# Kind+params specs (fault events, arrival processes): one codec
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build, message", [
    (lambda: fault("message_delay", target=1, delay_ms=5.0),
     "unknown parameter 'delay_ms' for fault type 'message_delay' "
     "(did you mean 'delay_us'?); expected: delay_us"),
    (lambda: arrival("bursty", 1000.0, burst_facter=2.0),
     "unknown parameter 'burst_facter' for arrival process 'bursty' "
     "(did you mean 'burst_factor' or 'burst_end_frac'?); expected: "
     "burst_start_frac, burst_end_frac, burst_factor, hot_theta"),
    (lambda: arrival("poisson", 1000.0, burstiness=2.0),
     "unknown parameter 'burstiness' for arrival process 'poisson'; expected: <none>"),
], ids=["fault", "arrival", "arrival-without-params"])
def test_unknown_parameter_messages_name_the_registry_kind(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("register, message", [
    (lambda: register_fault("test_bad_fault", params=("delay_us", "target")),
     "fault type 'test_bad_fault' declares reserved parameter name(s) 'target'"),
    (lambda: register_arrival("test_bad_arrival", params={"rate_tps": 1.0, "kind": 0}),
     "arrival process 'test_bad_arrival' declares reserved parameter name(s) "
     "'kind', 'rate_tps'"),
], ids=["fault", "arrival"])
def test_parameters_may_not_shadow_a_spec_field(register, message):
    with pytest.raises(ValueError) as info:
        register()
    assert str(info.value) == message
    assert "test_bad_fault" not in FAULT_REGISTRY
    assert "test_bad_arrival" not in ARRIVAL_REGISTRY


@pytest.mark.parametrize("cls, doc, what", [
    (FaultEvent, {"kind": "follower_lag", "target": [0, 1], "at_us": 5,
                  "delay_us": 200, "follower": 1}, "fault event"),
    (ArrivalSpec, {"kind": "bursty", "rate_tps": 1000, "hot_theta": 0.9,
                   "burst_factor": 3}, "arrival"),
], ids=["fault", "arrival"])
def test_flat_json_splits_into_fields_and_float_params(cls, doc, what):
    spec = cls.from_json_dict(doc)
    params = {name: value for name, value in doc.items()
              if name not in ("kind", "target", "at_us", "rate_tps")}
    # Sorted by name; ints become floats so equal specs key identically.
    assert spec.params == tuple(sorted((n, float(v)) for n, v in params.items()))
    assert all(type(value) is float for _, value in spec.params)
    assert cls.from_json_dict(spec.to_json_dict()) == spec
    with pytest.raises(TypeError, match=f"^{what} must be a JSON object, got list$"):
        cls.from_json_dict([doc])
    with pytest.raises(ValueError, match=f"^{what} is missing the required 'kind' field$"):
        cls.from_json_dict({n: v for n, v in doc.items() if n != "kind"})
    name = next(iter(params))
    with pytest.raises(TypeError, match=f"parameter '{name}' must be a scalar, got list"):
        cls.from_json_dict({**doc, name: [1.0]})
