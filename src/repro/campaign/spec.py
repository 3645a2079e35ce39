"""Declarative campaigns: a run table over scenario factors × seed reps.

A :class:`CampaignSpec` lifts the repo's scenario machinery one level: where
a :class:`~repro.scenario.ScenarioSpec` is *one* evaluation point, a campaign
is a named **factorial experiment** — a base scenario varied over explicit
factor levels (any axis :meth:`ScenarioSpec.derive` accepts: spec fields,
``SystemConfig`` knobs, workload config fields), with every grid point
repeated under ``seed_reps`` distinct seeds so reports can attach confidence
intervals to each row.

Like scenarios, campaigns are frozen, JSON-round-trippable and validated
**eagerly**: factor names are checked against :func:`repro.scenario.known_axes`
at construction — with did-you-mean hints — so a typo'd factor fails when the
campaign file is written, not after the first thousand cells simulated.
Factor *values* validate lazily as each cell's spec is derived (the grid is a
lazy :class:`~repro.scenario.SweepGrid`; a million-cell campaign never holds
a million specs).

The JSON form mirrors the dataclass::

    {
      "name": "contention_study",
      "base": {"protocol": "primo", "workload": "ycsb", "scale": "tiny"},
      "factors": {"protocol": ["primo", "sundial"],
                  "zipf_theta": [0.2, 0.8]},
      "seed_reps": 3
    }

See ``examples/campaigns/`` for a cookbook and :mod:`repro.campaign.manifest`
for the campaign directory executors share.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Iterator, Mapping, Optional

from ..bench.orchestrator import Cell
from ..cluster.config import SystemConfig
from ..registry import UnknownNameError, suggestion_hint
from ..scenario import ScenarioSpec, SweepGrid, known_axes, sweep

__all__ = ["CampaignCell", "CampaignSpec", "DEFAULT_SEED0"]

#: Seed of the first repetition when neither the campaign nor its base
#: scenario pins one (the ``SystemConfig`` default; rep ``r`` runs seed0+r).
DEFAULT_SEED0 = SystemConfig.__dataclass_fields__["seed"].default

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


@dataclass(frozen=True)
class CampaignCell:
    """One scheduled simulation of a campaign: a grid point × one seed rep.

    ``key`` is the orchestrator content key of ``spec`` — the address of this
    cell's result in the shared cache, identical no matter which executor
    computes it.  ``factors`` is the grid point's level assignment (without
    the seed), the grouping key reports aggregate over.
    """

    index: int            # position in cell order (grid-major, reps inner)
    cell_id: str          # "g<grid_index>r<rep>" — human-stable within a campaign
    key: str              # content hash (Cell.cache_key) — stable across campaigns
    seed: int
    factors: tuple        # sorted (name, value) pairs, JSON-shaped values
    spec: ScenarioSpec

    @property
    def factor_json(self) -> dict:
        """The assignment with frozen values thawed back to JSON shapes —
        what reports print and :meth:`ScenarioSpec.derive` accepts (a frozen
        dict level, e.g. an arrival spec, is a tuple of pairs that
        ``derive`` would reject)."""
        return {name: _plain(_unfreeze(value)) for name, value in self.factors}

    def cell(self, campaign_name: str) -> Cell:
        """The orchestrator :class:`Cell` this campaign cell executes as."""
        return Cell(figure=f"campaign:{campaign_name}", key=self.cell_id,
                    spec=self.spec)


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, Mapping):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _freeze_level(value):
    if isinstance(value, list):
        return tuple(_freeze_level(item) for item in value)
    if isinstance(value, Mapping):
        return tuple(sorted((k, _freeze_level(v)) for k, v in value.items()))
    return value


@dataclass(frozen=True)
class CampaignSpec:
    """A named factorial experiment over scenarios, with seed repetitions.

    ``factors`` maps axis names (anything the base spec's
    :meth:`~repro.scenario.ScenarioSpec.derive` accepts) to their level
    lists; the run table is the full cartesian product, last factor fastest,
    each point repeated ``seed_reps`` times under seeds ``seed0 .. seed0 +
    seed_reps - 1``.  ``seed0`` defaults to the base scenario's seed override
    when present, else the ``SystemConfig`` default — so a one-rep campaign
    of a base scenario simulates *exactly* that scenario.
    """

    name: str
    base: ScenarioSpec
    factors: tuple = ()          # sorted (name, levels-tuple) pairs
    seed_reps: int = 1
    seed0: Optional[int] = None

    def __post_init__(self) -> None:
        def set_field(field_name: str, value) -> None:
            object.__setattr__(self, field_name, value)

        if not isinstance(self.name, str) or not _NAME_RE.match(self.name):
            raise ValueError(
                f"campaign name {self.name!r} must be a non-empty string of "
                "letters, digits, '.', '_' or '-' (it names files and CI "
                "artifacts)"
            )
        if not isinstance(self.base, ScenarioSpec):
            set_field("base", ScenarioSpec.from_json_dict(self.base))
        if not isinstance(self.seed_reps, int) or isinstance(self.seed_reps, bool) \
                or self.seed_reps < 1:
            raise ValueError(f"seed_reps must be an integer >= 1, got {self.seed_reps!r}")
        if self.seed0 is not None and (not isinstance(self.seed0, int)
                                       or isinstance(self.seed0, bool)):
            raise ValueError(f"seed0 must be an integer, got {self.seed0!r}")

        factors = dict(self.factors or ())
        # The seed axis belongs to the campaign's repetition machinery, not
        # the factor grid — letting it in would double-count repetitions.
        if "seed" in factors:
            raise ValueError(
                "'seed' cannot be a campaign factor; use seed_reps/seed0 — "
                "repetitions are how campaigns vary seeds"
            )
        frozen = []
        for factor, levels in factors.items():
            if isinstance(levels, (str, bytes)) or not hasattr(levels, "__iter__"):
                raise ValueError(
                    f"campaign {self.name!r}, factor {factor!r}: levels must "
                    f"be a list of values, got {levels!r}"
                )
            level_tuple = tuple(_freeze_level(level) for level in levels)
            if not level_tuple:
                raise ValueError(
                    f"campaign {self.name!r}, factor {factor!r} has no levels")
            if len(set(level_tuple)) != len(level_tuple):
                raise ValueError(
                    f"campaign {self.name!r}, factor {factor!r} repeats a level")
            frozen.append((factor, level_tuple))
        set_field("factors", tuple(sorted(frozen)))

        # Campaign-level factor validation, eagerly and with context: names
        # must be derivable axes of the base, accounting for any workloads a
        # "workload" factor switches to (its levels expand the axis set).
        frozen_map = dict(self.factors)
        workload_levels = [_unfreeze(level)
                           for level in frozen_map.get("workload", ())]
        try:
            axes = known_axes(self.base, extra_workloads=workload_levels)
        except UnknownNameError as exc:
            # A typo'd workload *level* surfaces while collecting axes; point
            # at the factor so the campaign author sees where to fix it.
            raise ValueError(
                f"campaign {self.name!r}, factor 'workload': {exc}") from None
        for factor in frozen_map:
            if factor not in axes:
                raise ValueError(
                    f"campaign {self.name!r} has unknown factor {factor!r}"
                    f"{suggestion_hint(str(factor), axes)}; factors are spec "
                    "fields, SystemConfig fields, or workload config fields"
                )

    # -- derived shape -----------------------------------------------------------
    @property
    def factor_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.factors)

    @property
    def effective_seed0(self) -> int:
        if self.seed0 is not None:
            return self.seed0
        return dict(self.base.config_overrides).get("seed", DEFAULT_SEED0)

    def grid(self) -> SweepGrid:
        """The lazy factor grid (one spec per run-table row, seeds not applied)."""
        axes = {name: [_unfreeze(level) for level in levels]
                for name, levels in self.factors}
        return sweep(self.base, **axes) if axes else sweep(self.base)

    @property
    def grid_points(self) -> int:
        points = 1
        for _, levels in self.factors:
            points *= len(levels)
        return points

    @property
    def total_cells(self) -> int:
        return self.grid_points * self.seed_reps

    def cells(self) -> Iterator[CampaignCell]:
        """Stream every scheduled cell in order (grid-major, reps inner).

        Derivation is lazy — each yielded cell's spec exists only while the
        consumer holds it — so compiling or scanning a huge campaign is O(1)
        in memory.  Seeds apply *after* the factor assignment, so two grid
        points share nothing but the base.
        """
        seed0 = self.effective_seed0
        index = 0
        for grid_index, (assignment, spec) in enumerate(self.grid().combinations()):
            frozen = tuple(sorted(
                (name, _freeze_level(_plain(value)))
                for name, value in assignment.items()
            ))
            for rep in range(self.seed_reps):
                seed = seed0 + rep
                seeded = spec.derive(seed=seed)
                cell_id = f"g{grid_index}r{rep}"
                yield CampaignCell(
                    index=index,
                    cell_id=cell_id,
                    key=Cell(figure=f"campaign:{self.name}", key=cell_id,
                             spec=seeded).cache_key(),
                    seed=seed,
                    factors=frozen,
                    spec=seeded,
                )
                index += 1

    # -- JSON round trip ---------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "base": self.base.to_json_dict(),
            "factors": {name: [_plain(_unfreeze(level)) for level in levels]
                        for name, levels in self.factors},
            "seed_reps": self.seed_reps,
            "seed0": self.seed0,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "CampaignSpec":
        if not isinstance(data, Mapping):
            raise TypeError(
                f"campaign must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown campaign field(s) {', '.join(map(repr, unknown))}"
                f"{suggestion_hint(unknown[0], tuple(sorted(known)))}"
            )
        for required in ("name", "base"):
            if required not in data:
                raise ValueError(f"campaign is missing the required {required!r} field")
        kwargs = dict(data)
        kwargs["factors"] = tuple(sorted(dict(kwargs.get("factors") or {}).items()))
        if kwargs.get("seed_reps") is None:
            kwargs["seed_reps"] = 1
        return cls(**kwargs)

    def describe(self) -> str:
        axes = ", ".join(f"{name}[{len(levels)}]" for name, levels in self.factors)
        return (
            f"campaign {self.name!r}: {self.grid_points} grid point(s)"
            f"{' (' + axes + ')' if axes else ''} × {self.seed_reps} seed "
            f"rep(s) = {self.total_cells} cells"
        )


def _unfreeze(value):
    """Invert :func:`_freeze_level`: nested pair-tuples back to dicts/lists.

    A frozen mapping is a tuple of (str, value) pairs; a frozen list is any
    other tuple.  Scalars pass through.
    """
    if isinstance(value, tuple):
        if value and all(
            isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str)
            for item in value
        ):
            return {name: _unfreeze(item) for name, item in value}
        return [_unfreeze(item) for item in value]
    return value
