"""Tests for SystemConfig validation and defaults."""

import pytest

import repro
from repro.cluster.config import DURABILITY_SCHEMES, PROTOCOLS, SystemConfig
from repro.scenario import ScenarioSpec


def test_defaults_follow_the_paper_setup():
    config = SystemConfig()
    assert config.n_partitions == 4
    assert config.replicas_per_partition == 3
    assert config.protocol == "primo"
    assert config.durability == "wm"
    assert config.epoch_length_us == pytest.approx(10_000.0)


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        SystemConfig(protocol="three_pc")


def test_unknown_durability_rejected():
    with pytest.raises(ValueError):
        SystemConfig(durability="magnetic_tape")


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_partitions", 0),
        ("workers_per_partition", 0),
        ("inflight_per_worker", 0),
        ("replicas_per_partition", 0),
        ("duration_us", 0.0),
        ("epoch_length_us", 0.0),
    ],
)
def test_invalid_numeric_fields_rejected(field, value):
    with pytest.raises(ValueError):
        SystemConfig(**{field: value})


def test_every_listed_protocol_and_scheme_is_accepted():
    for protocol in PROTOCOLS:
        for durability in DURABILITY_SCHEMES:
            SystemConfig(protocol=protocol, durability=durability)


def test_specs_pick_the_papers_durability_pairings():
    for protocol, durability, expected in [
        ("primo", None, "wm"),
        ("sundial", None, "coco"),
        ("2pl_nw", None, "coco"),
        ("tapir", None, "sync"),
        ("aria", None, "none"),
        ("silo", "clv", "clv"),
    ]:
        spec = ScenarioSpec(protocol=protocol, durability=durability, scale="tiny")
        assert spec.resolved_durability == expected
        assert repro.build(spec).config.durability == expected


def test_derived_quantities():
    config = SystemConfig(workers_per_partition=3, inflight_per_worker=2)
    assert config.concurrency_per_partition == 6
