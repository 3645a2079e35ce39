"""Declarative scenarios: the package's single front door to a simulation.

A :class:`ScenarioSpec` captures one (protocol × durability × workload ×
scale × knobs) evaluation point as a frozen, JSON-round-trippable value.
Everything the repo runs — ``repro.run``, the figure orchestrator's cells,
campaign manifests, ``python -m repro.bench --scenario`` — is built from one,
so there is exactly one code path from "named configuration" to "running
cluster".

Specs validate **eagerly at construction**: protocol/durability/workload
names are checked against the registries (:mod:`repro.registry`) and override
keys against the fields of :class:`~repro.cluster.config.SystemConfig` and
the registered workload's config dataclass.  A typo fails with a did-you-mean
suggestion when the plan is written, not minutes later inside a pool worker.

Example::

    from repro import ScenarioSpec, run, scenarios

    spec = ScenarioSpec(
        protocol="primo",
        workload="ycsb",
        scale="small",
        workload_overrides={"zipf_theta": 0.8},
        config_overrides={"n_partitions": 8},
    )
    result = run(spec)

    # One spec per (protocol, skew) pair, ready for the orchestrator:
    grid = scenarios.sweep(spec, protocol=["primo", "sundial"],
                           zipf_theta=[0.0, 0.4, 0.8])
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import Any, Iterable, Mapping, Optional

from .arrivals import ArrivalSpec
from .cluster.cluster import Cluster
from .cluster.config import SystemConfig
from .cluster.results import RunResult
from .faults import FaultPlan
from .registry import (
    DURABILITY_REGISTRY,
    PROTOCOL_REGISTRY,
    WORKLOAD_REGISTRY,
    suggestion_hint,
)
from .scales import SCALES, BenchScale, resolve_scale
from .sim.topology import RegionTopology
from .workloads.base import Workload
from .workloads.mixed import normalize_components

__all__ = [
    "ScenarioSpec",
    "SweepGrid",
    "build",
    "build_workload",
    "known_axes",
    "run",
    "sweep",
]

#: SystemConfig fields a spec may override.  ``protocol`` and ``durability``
#: are spec fields in their own right; listing them here would create two ways
#: to say the same thing.
_CONFIG_FIELD_NAMES = tuple(
    f.name for f in fields(SystemConfig) if f.name not in ("protocol", "durability")
)


def _normalize_value(name: str, value: Any) -> Any:
    """Restrict override values to JSON-round-trippable shapes.

    Scalars pass through; lists/tuples become tuples (recursively), so a spec
    rebuilt from its JSON compares equal to the original.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_normalize_value(name, item) for item in value)
    raise TypeError(
        f"override {name!r} has non-JSON-serializable value {value!r} "
        f"({type(value).__name__}); use scalars or lists"
    )


def _freeze_overrides(overrides, *, kind: str, valid: tuple[str, ...]) -> tuple:
    """Normalize overrides into sorted ``(name, value)`` pairs, validating keys."""
    if not overrides:
        return ()
    items = dict(overrides)
    for name in items:
        if name not in valid:
            raise ValueError(
                f"unknown {kind} override {name!r}{suggestion_hint(str(name), valid)}; "
                f"valid keys: {', '.join(valid)}"
            )
    return tuple(
        (name, _normalize_value(name, items[name])) for name in sorted(items)
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """One evaluation point, validated at construction and JSON-round-trippable.

    ``durability=None`` means "the protocol's default pairing" (registration
    metadata, §6.1.3); the field is the only place a scheme is named, and
    ``config_overrides`` takes every other ``SystemConfig`` field but
    ``protocol``.  ``scale`` accepts a preset name (``"small"``,
    ``"tiny"``, …), a :class:`BenchScale`, or its dict form.  ``workload``
    accepts a registered name or a ``{name: weight}`` mapping — sugar for the
    ``"mixed"`` composite workload.  ``faults`` is a declarative
    :class:`~repro.faults.FaultPlan` (or a list of fault-event dicts) applied
    deterministically by the cluster's fault scheduler.  Override mappings
    are frozen into sorted pairs so equal scenarios hash and serialize
    identically regardless of how they were written.
    """

    protocol: str
    workload: str = "ycsb"
    durability: Optional[str] = None
    scale: BenchScale = SCALES["small"]
    config_overrides: tuple = ()
    workload_overrides: tuple = ()
    #: Declarative fault plan (``None`` = no injection).
    faults: Optional[FaultPlan] = None
    #: Arrival process (:class:`~repro.arrivals.ArrivalSpec`, its kind name,
    #: or its JSON dict form).  ``None`` — and the explicit ``"closed"`` kind,
    #: which normalizes to ``None`` — is the historical closed loop; open
    #: kinds (``poisson``/``deterministic``/``bursty``) turn the run into an
    #: offered-load sweep point.
    arrival: Optional[ArrivalSpec] = None
    #: Geo-aware latency topology (:class:`~repro.sim.topology.RegionTopology`
    #: or its JSON dict form).  ``None`` is the flat network.
    topology: Optional[RegionTopology] = None

    def __post_init__(self) -> None:
        def set_field(name: str, value) -> None:
            object.__setattr__(self, name, value)

        PROTOCOL_REGISTRY.check(self.protocol)
        workload_overrides = self.workload_overrides
        if isinstance(self.workload, Mapping):
            # {name: weight} sugar for the "mixed" composite workload.
            overrides = dict(workload_overrides or ())
            if "components" in overrides:
                raise ValueError(
                    "workload mix given twice: a {name: weight} workload and "
                    "a 'components' workload override"
                )
            overrides["components"] = [
                [name, weight] for name, weight in self.workload.items()
            ]
            workload_overrides = overrides
            set_field("workload", "mixed")
        workload_entry = WORKLOAD_REGISTRY.entry(self.workload)
        set_field("scale", resolve_scale(self.scale))

        if self.durability is not None:
            DURABILITY_REGISTRY.check(self.durability)
        set_field(
            "config_overrides",
            _freeze_overrides(self.config_overrides, kind="config",
                              valid=_CONFIG_FIELD_NAMES),
        )
        workload_fields = tuple(
            f.name for f in fields(workload_entry.metadata["config_cls"])
        )
        set_field(
            "workload_overrides",
            _freeze_overrides(workload_overrides, kind="workload",
                              valid=workload_fields),
        )
        if self.workload == "mixed":
            # Eager mix validation: component names, weights and per-component
            # knobs fail here — with did-you-mean hints — not inside a pool
            # worker.  The canonical (sorted) component form is stored so
            # equal mixes serialize and draw identically.
            overrides = dict(self.workload_overrides)
            overrides["components"] = normalize_components(
                overrides.get("components", ()))
            set_field(
                "workload_overrides",
                tuple((name, overrides[name]) for name in sorted(overrides)),
            )
        set_field("faults", FaultPlan.coerce(self.faults))
        set_field("arrival", ArrivalSpec.coerce(self.arrival))
        set_field("topology", RegionTopology.coerce(self.topology))
        if self.arrival is not None and self.arrival.component_rates:
            # Validated here rather than in ArrivalSpec because only the
            # scenario sees both the rates and the mix they must name.
            if self.workload != "mixed":
                raise ValueError(
                    "arrival component_rates require the 'mixed' workload; "
                    f"got workload {self.workload!r}"
                )
            components = dict(self.workload_overrides).get("components", ())
            names = tuple(name for name, _, _ in components)
            unknown = [name for name, _ in self.arrival.component_rates
                       if name not in names]
            if unknown:
                raise ValueError(
                    f"arrival component_rates name unknown mix component(s) "
                    f"{', '.join(map(repr, unknown))}"
                    f"{suggestion_hint(unknown[0], names)}; mix components: "
                    f"{', '.join(names)}"
                )

    # -- resolution -------------------------------------------------------------
    @property
    def resolved_durability(self) -> str:
        """The durability scheme that will actually run (§6.1.3 pairing)."""
        if self.durability is not None:
            return self.durability
        entry = PROTOCOL_REGISTRY.entry(self.protocol)
        return entry.metadata.get("default_durability", "coco")

    # -- JSON round trip ---------------------------------------------------------
    def to_json_dict(self) -> dict:
        """A plain-JSON representation; inverse of :meth:`from_json_dict`.

        The optional fields (``faults``, ``arrival``, ``topology``) are
        omitted when ``None``; :meth:`from_json_dict` also accepts an
        explicit ``null``.
        """

        def plain(value):
            if isinstance(value, tuple):
                return [plain(item) for item in value]
            return value

        data = {
            "protocol": self.protocol,
            "workload": self.workload,
            "durability": self.durability,
            "scale": dataclasses.asdict(self.scale),
            "config_overrides": {name: plain(v) for name, v in self.config_overrides},
            "workload_overrides": {name: plain(v) for name, v in self.workload_overrides},
        }
        if self.faults is not None:
            data["faults"] = self.faults.to_json_list()
        if self.arrival is not None:
            data["arrival"] = self.arrival.to_json_dict()
        if self.topology is not None:
            data["topology"] = self.topology.to_json_dict()
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_json_dict` output (or a hand-written
        scenario file; ``scale`` may be a preset name)."""
        if not isinstance(data, Mapping):
            raise TypeError(f"scenario must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown scenario field(s) {', '.join(map(repr, unknown))}"
                f"{suggestion_hint(unknown[0], tuple(known))}"
            )
        kwargs = dict(data)
        if "protocol" not in kwargs:
            raise ValueError("scenario is missing the required 'protocol' field")
        return cls(**kwargs)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_json_dict(json.loads(text))

    def canonical_json(self) -> str:
        """Minimal, key-sorted JSON — the stable identity cache keys hash."""
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    # -- derivation --------------------------------------------------------------
    def derive(self, **changes) -> "ScenarioSpec":
        """A new validated spec with ``changes`` applied.

        Each keyword is routed by name: spec fields replace, SystemConfig
        fields merge into ``config_overrides``, and fields of the (possibly
        newly chosen) workload's config dataclass merge into
        ``workload_overrides``.  Anything else raises with a suggestion.
        """
        spec_fields = {f.name for f in fields(self)}
        replacements = {k: v for k, v in changes.items() if k in spec_fields}
        remainder = {k: v for k, v in changes.items() if k not in spec_fields}

        workload = replacements.get("workload", self.workload)
        if isinstance(workload, Mapping):
            # A {name: weight} mix axis; validated fully by the new spec.
            workload = "mixed"
        workload_fields = tuple(
            f.name
            for f in fields(WORKLOAD_REGISTRY.entry(workload).metadata["config_cls"])
        )
        config_updates, workload_updates = {}, {}
        for name, value in remainder.items():
            if name in _CONFIG_FIELD_NAMES:
                config_updates[name] = value
            elif name in workload_fields:
                workload_updates[name] = value
            else:
                choices = spec_fields | set(_CONFIG_FIELD_NAMES) | set(workload_fields)
                raise ValueError(
                    f"unknown scenario axis {name!r}"
                    f"{suggestion_hint(name, tuple(sorted(choices)))}; axes are spec "
                    "fields, SystemConfig fields, or workload config fields"
                )
        if config_updates:
            # An explicit config_overrides replacement is the merge base;
            # loose knobs layer on top of it, never over it.
            merged = dict(replacements.get("config_overrides", self.config_overrides))
            merged.update(config_updates)
            replacements["config_overrides"] = merged
        if workload_updates:
            if "workload_overrides" in replacements:
                base = replacements["workload_overrides"]
            elif "workload" in replacements:
                base = ()
            else:
                base = self.workload_overrides
            merged = dict(base)
            merged.update(workload_updates)
            replacements["workload_overrides"] = merged
        elif "workload" in replacements and "workload_overrides" not in replacements:
            # Overrides are validated against the workload's config; they do
            # not silently carry over to a different workload.
            replacements["workload_overrides"] = ()
        return dataclasses.replace(self, **replacements)


def known_axes(base: ScenarioSpec, extra_workloads: Iterable = ()) -> tuple[str, ...]:
    """Every axis name :meth:`ScenarioSpec.derive` would accept for ``base``.

    Spec fields, ``SystemConfig`` fields, and the config fields of the base
    spec's workload plus any ``extra_workloads`` (names or ``{name: weight}``
    mixes — the values a ``workload`` axis might take).  Used for *eager*
    axis-name validation by callers that expand grids lazily (campaign
    manifests): a typo'd factor name fails before the first of a million
    cells is derived, with the same did-you-mean treatment ``derive`` gives.
    """
    workloads = {base.workload}
    for workload in extra_workloads:
        workloads.add("mixed" if isinstance(workload, Mapping) else workload)
    names = {f.name for f in fields(ScenarioSpec)}
    names.update(_CONFIG_FIELD_NAMES)
    for workload in workloads:
        entry = WORKLOAD_REGISTRY.entry(workload)
        names.update(f.name for f in fields(entry.metadata["config_cls"]))
    return tuple(sorted(names))


class SweepGrid(Sequence):
    """The lazy cartesian product a :func:`sweep` call describes.

    Behaves like the list it used to be — ``len``, iteration, indexing and
    slicing all work, ordering is last-axis-fastest — but each
    :class:`ScenarioSpec` is **derived on access**, never stored.  A
    million-cell campaign grid therefore costs a few tuples of axis values,
    and streaming consumers (``for spec in grid``) hold one spec at a time.
    Validation runs where derivation runs: axis *emptiness* fails eagerly at
    construction, a bad axis *value* (e.g. a typo'd protocol) fails when its
    combination is materialized.
    """

    def __init__(self, base: ScenarioSpec, axes: Mapping[str, Iterable]):
        self._base = base
        self._names = tuple(axes)
        self._values = tuple(tuple(axes[name]) for name in self._names)
        for name, values in zip(self._names, self._values):
            if not values:
                raise ValueError(f"sweep axis {name!r} has no values")

    def _derive(self, combo: tuple) -> ScenarioSpec:
        return self._base.derive(**dict(zip(self._names, combo)))

    def __len__(self) -> int:
        length = 1
        for values in self._values:
            length *= len(values)
        return length

    def __iter__(self):
        for combo in itertools.product(*self._values):
            yield self._derive(combo)

    def combinations(self):
        """Lazy ``(assignment_dict, spec)`` pairs in grid order — the factor
        levels each spec was derived from, for consumers (campaign manifests,
        reports) that group results by level."""
        for combo in itertools.product(*self._values):
            yield dict(zip(self._names, combo)), self._derive(combo)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError(f"sweep index {index} out of range for {length} specs")
        combo = []
        for values in reversed(self._values):
            index, digit = divmod(index, len(values))
            combo.append(values[digit])
        return self._derive(tuple(reversed(combo)))

    def __repr__(self) -> str:
        axes = ", ".join(
            f"{name}[{len(values)}]"
            for name, values in zip(self._names, self._values)
        )
        return f"SweepGrid({len(self)} specs: {axes})"


def sweep(base: ScenarioSpec, **axes: Iterable) -> SweepGrid:
    """The cartesian product of ``base`` varied over ``axes``.

    Each axis is routed exactly like :meth:`ScenarioSpec.derive` keywords::

        sweep(base, protocol=["primo", "sundial"], zipf_theta=[0.0, 0.6, 0.9])

    returns a 6-spec grid, protocol-major (last axis fastest).  Fault plans,
    workload mixes and arrival processes are ordinary axes::

        sweep(base,
              faults=[None, [{"kind": "crash", "at_us": 40_000, "target": 1}]],
              workload=[{"ycsb": 1.0}, {"ycsb": 0.7, "tatp": 0.3}])
        sweep(base, arrival=[{"kind": "poisson", "rate_tps": r}
                             for r in (100_000, 150_000, 200_000)])

    The returned :class:`SweepGrid` is a lazy sequence: specs are derived on
    iteration/indexing, so grids far larger than memory (campaign manifests)
    can be compiled streaming.  Wrap it in ``list(...)`` to materialize —
    and to force validation of every axis value — up front.
    """
    return SweepGrid(base, axes)


# ---------------------------------------------------------------------------
# Building and running
# ---------------------------------------------------------------------------

def build_workload(scale, workload: str = "ycsb", **overrides) -> Workload:
    """Construct a registered workload with the scale's sizing defaults applied.

    A registration may map a config field to the sentinel scale attribute
    ``"__scale__"`` to receive the whole resolved scale (in dict form) —
    composite workloads use it to size their components.
    """
    scale = resolve_scale(scale)
    entry = WORKLOAD_REGISTRY.entry(workload)
    params = {
        config_field: (dataclasses.asdict(scale) if scale_attr == "__scale__"
                       else getattr(scale, scale_attr))
        for config_field, scale_attr in entry.metadata["scale_defaults"].items()
    }
    params.update(overrides)
    config_cls = entry.metadata["config_cls"]
    return entry.obj(config_cls(**params))


def build(spec: ScenarioSpec) -> Cluster:
    """Build (but do not run) the cluster for one scenario.

    The single assembly path shared by ``repro.run`` and the orchestrator's
    cell executor: scale presets fill any config knob the spec does not
    override, the protocol's default durability pairing applies unless the
    spec names a scheme, and the fault plan is handed to the cluster's
    deterministic fault scheduler.
    """
    scale = spec.scale
    overrides = dict(spec.config_overrides)
    overrides.setdefault("duration_us", scale.duration_us)
    overrides.setdefault("warmup_us", scale.warmup_us)
    overrides.setdefault("workers_per_partition", scale.workers_per_partition)
    overrides.setdefault("inflight_per_worker", scale.inflight_per_worker)
    config = SystemConfig(protocol=spec.protocol,
                          durability=spec.resolved_durability, **overrides)
    workload = build_workload(scale, spec.workload, **dict(spec.workload_overrides))
    return Cluster(config, workload, faults=spec.faults, arrival=spec.arrival,
                   topology=spec.topology)


def run(spec: ScenarioSpec) -> RunResult:
    """Run one scenario to completion and return its measured results."""
    return build(spec).run()
