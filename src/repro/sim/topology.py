"""Geo-aware latency topologies: regions and a region×region latency matrix.

A :class:`RegionTopology` places every node of the simulated cluster — the
partition leaders and their replication followers — into a named *region*
and replaces the scalar one-way network latency with a region×region matrix
lookup (e.g. 5 ms intra-region / 80 ms cross-region).  It is a first-class
:class:`~repro.scenario.ScenarioSpec` field (``topology=``), so geo-placement
questions — leader-local vs cross-region quorums, WAN fail-over cost — are
ordinary declarative scenario axes::

    spec = repro.ScenarioSpec(
        protocol="primo", scale="tiny",
        topology={
            "regions": ["us-east", "us-west"],
            "latency_us": [[25.0, 400.0], [400.0, 25.0]],
            "partition_regions": ["us-east", "us-west"],
            # optional: place each partition's followers across regions
            # (default: every follower sits in its leader's region)
            "follower_regions": [["us-east", "us-west"]],
        },
    )

Placement rules
---------------

* ``partition_regions[p % len(partition_regions)]`` is partition ``p``'s
  leader region — the list wraps, so one entry means "everything here" and a
  two-entry list alternates regions across any partition count (sweeps over
  ``n_partitions`` stay valid without rewriting the topology).
* ``follower_regions`` (optional) is a list of per-partition region *rings*,
  wrapping the same way; follower ``i`` of partition ``p`` lands in
  ``follower_regions[p % len][i % len(ring)]``.  When omitted, followers
  live in their leader's region (leader-local quorums).

The same-node latency is always the network's local latency; two *distinct*
nodes in the same region pay the matrix diagonal.  Nodes the topology does
not map (an extension's private id space) fall back to the scalar one-way
latency, so a partial map degrades gracefully instead of crashing.

Determinism: a topology only changes the latency values the network hands
out — no randomness, no new events — and runs without one keep the scalar
base latency bit-identically (pinned by tests/integration/test_determinism.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

__all__ = ["RegionTopology"]


def _freeze_matrix(matrix) -> tuple:
    rows = []
    for row in matrix:
        if isinstance(row, (str, bytes)) or not hasattr(row, "__iter__"):
            raise TypeError(
                f"latency_us must be a matrix (list of rows), got row {row!r}"
            )
        rows.append(tuple(float(value) for value in row))
    return tuple(rows)


@dataclass(frozen=True)
class RegionTopology:
    """Named regions, a region×region one-way latency matrix, and placement.

    Frozen and JSON-round-trippable, like every other scenario axis; equal
    topologies serialize identically so orchestrator cache keys are stable.
    """

    regions: tuple
    latency_us: tuple
    partition_regions: tuple
    follower_regions: tuple = ()

    def __post_init__(self) -> None:
        def set_field(name: str, value) -> None:
            object.__setattr__(self, name, value)

        regions = tuple(str(name) for name in self.regions or ())
        if not regions:
            raise ValueError("topology needs at least one region")
        if len(set(regions)) != len(regions):
            raise ValueError(f"duplicate region names: {list(regions)!r}")
        set_field("regions", regions)

        matrix = _freeze_matrix(self.latency_us or ())
        if len(matrix) != len(regions) or any(len(row) != len(regions) for row in matrix):
            raise ValueError(
                f"latency_us must be a {len(regions)}x{len(regions)} matrix "
                f"(one row and column per region), got "
                f"{[len(row) for row in matrix]!r} over {len(matrix)} row(s)"
            )
        if any(value < 0 for row in matrix for value in row):
            raise ValueError("latency_us entries must be >= 0")
        set_field("latency_us", matrix)

        placements = tuple(str(name) for name in self.partition_regions or ())
        if not placements:
            raise ValueError("partition_regions must name at least one region")
        unknown = sorted(set(placements) - set(regions))
        if unknown:
            raise ValueError(
                f"partition_regions names unknown region(s) "
                f"{', '.join(map(repr, unknown))}; regions: {', '.join(regions)}"
            )
        set_field("partition_regions", placements)

        rings = []
        for ring in self.follower_regions or ():
            if isinstance(ring, (str, bytes)) or not hasattr(ring, "__iter__"):
                raise TypeError(
                    f"follower_regions must be a list of region rings, got {ring!r}"
                )
            frozen = tuple(str(name) for name in ring)
            if not frozen:
                raise ValueError("follower_regions rings must not be empty")
            unknown = sorted(set(frozen) - set(regions))
            if unknown:
                raise ValueError(
                    f"follower_regions names unknown region(s) "
                    f"{', '.join(map(repr, unknown))}; regions: {', '.join(regions)}"
                )
            rings.append(frozen)
        set_field("follower_regions", tuple(rings))

    # -- placement lookups -------------------------------------------------
    def region_index(self, name: str) -> int:
        return self.regions.index(name)

    def partition_region_index(self, partition_id: int) -> int:
        """Region index of partition ``partition_id``'s leader (wrapping)."""
        placements = self.partition_regions
        return self.region_index(placements[partition_id % len(placements)])

    def follower_region_index(self, partition_id: int, follower_index: int) -> int:
        """Region index of follower ``follower_index`` of the partition.

        Defaults to the leader's region when no ``follower_regions`` rings
        are configured (leader-local quorums).
        """
        rings = self.follower_regions
        if not rings:
            return self.partition_region_index(partition_id)
        ring = rings[partition_id % len(rings)]
        return self.region_index(ring[follower_index % len(ring)])

    # -- JSON round trip ---------------------------------------------------
    def to_json_dict(self) -> dict:
        data = {
            "regions": list(self.regions),
            "latency_us": [list(row) for row in self.latency_us],
            "partition_regions": list(self.partition_regions),
        }
        if self.follower_regions:
            data["follower_regions"] = [list(ring) for ring in self.follower_regions]
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "RegionTopology":
        if not isinstance(data, Mapping):
            raise TypeError(
                f"topology must be a JSON object, got {type(data).__name__}"
            )
        known = ("regions", "latency_us", "partition_regions", "follower_regions")
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(
                f"unknown topology field(s) {', '.join(map(repr, unknown))}; "
                f"fields: {', '.join(known)}"
            )
        return cls(
            regions=tuple(data.get("regions", ())),
            latency_us=tuple(data.get("latency_us", ())),
            partition_regions=tuple(data.get("partition_regions", ())),
            follower_regions=tuple(data.get("follower_regions", ())),
        )

    @classmethod
    def coerce(cls, value) -> Optional["RegionTopology"]:
        """``None`` | topology | JSON dict -> topology (or ``None``)."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            return cls.from_json_dict(value)
        raise TypeError(
            f"topology must be a RegionTopology or its JSON dict form, got "
            f"{type(value).__name__}"
        )
