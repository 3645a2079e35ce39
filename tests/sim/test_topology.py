"""Tests for RegionTopology and the network's region-matrix latency path."""

import json

import pytest

from repro.sim.engine import Environment
from repro.sim.network import Network
from repro.sim.topology import RegionTopology


def make_topology(**overrides):
    kwargs = dict(
        regions=("east", "west"),
        latency_us=((5.0, 80.0), (80.0, 5.0)),
        partition_regions=("east", "west"),
    )
    kwargs.update(overrides)
    return RegionTopology(**kwargs)


# -- validation --------------------------------------------------------------

def test_topology_requires_regions():
    with pytest.raises(ValueError, match="at least one region"):
        make_topology(regions=())


def test_topology_rejects_duplicate_regions():
    with pytest.raises(ValueError, match="duplicate region"):
        make_topology(regions=("east", "east"))


def test_topology_rejects_non_square_matrix():
    with pytest.raises(ValueError, match="2x2 matrix"):
        make_topology(latency_us=((5.0, 80.0),))
    with pytest.raises(ValueError, match="2x2 matrix"):
        make_topology(latency_us=((5.0,), (80.0,)))


def test_topology_rejects_negative_latency():
    with pytest.raises(ValueError, match=">= 0"):
        make_topology(latency_us=((5.0, -1.0), (80.0, 5.0)))


def test_topology_rejects_scalar_matrix_rows():
    with pytest.raises(TypeError, match="matrix"):
        make_topology(latency_us=(5.0, 80.0))


def test_topology_rejects_unknown_placement_regions():
    with pytest.raises(ValueError, match="unknown region"):
        make_topology(partition_regions=("east", "mars"))
    with pytest.raises(ValueError, match="unknown region"):
        make_topology(follower_regions=(("mars",),))


def test_topology_requires_placements_and_nonempty_rings():
    with pytest.raises(ValueError, match="partition_regions"):
        make_topology(partition_regions=())
    with pytest.raises(ValueError, match="must not be empty"):
        make_topology(follower_regions=((),))
    with pytest.raises(TypeError, match="region rings"):
        make_topology(follower_regions=("east",))


# -- placement lookups -------------------------------------------------------

def test_partition_placement_wraps():
    topo = make_topology()
    assert [topo.partition_region_index(p) for p in range(4)] == [0, 1, 0, 1]
    single = make_topology(partition_regions=("west",))
    assert [single.partition_region_index(p) for p in range(3)] == [1, 1, 1]


def test_follower_placement_defaults_to_the_leader_region():
    topo = make_topology()
    assert topo.follower_region_index(0, 0) == topo.partition_region_index(0)
    assert topo.follower_region_index(1, 5) == topo.partition_region_index(1)


def test_follower_rings_wrap_per_partition_and_per_follower():
    topo = make_topology(follower_regions=(("east", "west"),))
    # One ring serves every partition; follower index wraps around the ring.
    assert topo.follower_region_index(0, 0) == 0
    assert topo.follower_region_index(0, 1) == 1
    assert topo.follower_region_index(0, 2) == 0
    assert topo.follower_region_index(3, 1) == 1


# -- JSON round trip ---------------------------------------------------------

def test_topology_json_round_trip():
    topo = make_topology(follower_regions=(("east", "west"), ("west",)))
    text = json.dumps(topo.to_json_dict())
    assert RegionTopology.from_json_dict(json.loads(text)) == topo


def test_topology_json_omits_empty_follower_regions():
    assert "follower_regions" not in make_topology().to_json_dict()


def test_topology_from_json_rejects_unknown_fields():
    data = make_topology().to_json_dict()
    data["latency_matrix"] = []
    with pytest.raises(ValueError, match="unknown topology field"):
        RegionTopology.from_json_dict(data)


def test_topology_coerce():
    topo = make_topology()
    assert RegionTopology.coerce(None) is None
    assert RegionTopology.coerce(topo) is topo
    assert RegionTopology.coerce(topo.to_json_dict()) == topo
    with pytest.raises(TypeError, match="RegionTopology"):
        RegionTopology.coerce(["east"])


# -- network integration -----------------------------------------------------

def test_network_topology_latency_lookup():
    env = Environment()
    network = Network(env, one_way_latency_us=50.0, local_latency_us=0.2)
    topo = make_topology()
    network.install_topology({0: 0, 1: 1, 100: 0, 110: 1}, topo.latency_us)
    # Same node is always local, even under a topology.
    assert network.latency(0, 0) == pytest.approx(0.2)
    # Two distinct nodes in the same region pay the matrix diagonal.
    assert network.latency(0, 100) == pytest.approx(5.0)
    # Cross-region pairs pay the matrix entry.
    assert network.latency(0, 1) == pytest.approx(80.0)
    assert network.roundtrip_us(0, 110) == pytest.approx(160.0)
    # Nodes absent from the map fall back to the scalar one-way latency.
    assert network.latency(0, 999) == pytest.approx(50.0)


def test_injected_fault_delays_stack_on_the_topology_base():
    env = Environment()
    network = Network(env, one_way_latency_us=50.0)
    network.install_topology({0: 0, 1: 1}, make_topology().latency_us)
    network.set_extra_delay_to(1, 30.0)
    assert network.latency(0, 1) == pytest.approx(80.0 + 30.0)
    network.set_extra_delay_to(1, 0.0)
    assert network.latency(0, 1) == pytest.approx(80.0)
