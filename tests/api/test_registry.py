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
from repro.protocols import SiloProtocol, create_protocol
from repro.registry import (
    DURABILITY_REGISTRY,
    FIGURE_REGISTRY,
    PROTOCOL_REGISTRY,
    WORKLOAD_REGISTRY,
    DuplicateNameError,
    Registry,
    UnknownNameError,
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
        # SystemConfig accepts it and picks up the registered pairing.
        config = SystemConfig.for_protocol("silo_test_variant")
        assert config.durability == "coco"
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
    from repro.bench.orchestrator import make_cell, run_cells
    from repro.scales import TINY_SCALE

    def plan(scale):
        return [make_cell("figtest", "primo", "primo", scale)]

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
