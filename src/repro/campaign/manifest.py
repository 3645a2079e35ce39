"""The on-disk campaign run table shared by every executor.

Compiling a :class:`~repro.campaign.spec.CampaignSpec` produces a directory::

    <campaign-dir>/
      manifest.json     # campaign spec + shape + substrate version (written last)
      cells.jsonl       # one line per scheduled cell, in manifest order
      cache/            # shared ResultCache — the only result store
      reports/          # rendered status/report artifacts

``cells.jsonl`` lines are deliberately *lean* — index, cell id, content key,
seed, factor assignment — and do **not** embed the derived scenario JSON: an
executor re-derives each spec from the manifest's base + factors only for
cells it actually runs, so scanning a million-line manifest for status (or
skipping straight past cached cells) never constructs a spec.  The recorded
content key doubles as an integrity check: a derived spec whose key disagrees
with the manifest means the code that derived it has drifted from the code
that compiled it, and the executor refuses rather than poisoning the cache.

Compilation streams (O(1) memory) and writes ``manifest.json`` *last*, so a
directory with a manifest is always a complete run table — an interrupted
compile leaves no manifest and is simply re-run.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

from ..bench.orchestrator import SUBSTRATE_VERSION, Cell
from .spec import CampaignSpec

__all__ = [
    "CampaignDirs",
    "Manifest",
    "ManifestCell",
    "ManifestError",
    "MANIFEST_SCHEMA_VERSION",
    "compile_campaign",
    "load_manifest",
]

#: Version of the manifest directory format.  v1: manifest.json + cells.jsonl
#: with lean per-cell lines keyed by orchestrator content hashes.
MANIFEST_SCHEMA_VERSION = 1


class ManifestError(RuntimeError):
    """A campaign directory is missing, incomplete, or version-skewed."""


@dataclass(frozen=True)
class CampaignDirs:
    """The fixed layout of a compiled campaign directory."""

    root: Path

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    @property
    def cells_path(self) -> Path:
        return self.root / "cells.jsonl"

    @property
    def cache_dir(self) -> Path:
        return self.root / "cache"

    @property
    def reports_dir(self) -> Path:
        return self.root / "reports"


@dataclass(frozen=True)
class ManifestCell:
    """One ``cells.jsonl`` line: everything needed to find or group a
    cell — but not its spec, which is derived on demand.

    ``factors`` holds plain JSON-shaped values (dicts/lists/scalars, never
    the campaign's internal frozen tuples), so :meth:`Manifest.derive_cell`
    can feed them straight to :meth:`ScenarioSpec.derive` — dict-valued
    levels like arrival specs or workload mixes included."""

    index: int
    cell_id: str
    key: str
    seed: int
    factors: dict

    def to_json_line(self) -> str:
        return json.dumps(
            {"index": self.index, "id": self.cell_id, "key": self.key,
             "seed": self.seed, "factors": self.factors},
            sort_keys=True, separators=(",", ":"),
        )

    @classmethod
    def from_json_line(cls, line: str, lineno: int, path) -> "ManifestCell":
        try:
            data = json.loads(line)
            return cls(index=int(data["index"]), cell_id=str(data["id"]),
                       key=str(data["key"]), seed=int(data["seed"]),
                       factors=dict(data["factors"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(
                f"{path}:{lineno}: corrupt manifest cell line ({exc})") from None


class Manifest:
    """A loaded campaign manifest: the spec, the shape, and a cell stream."""

    def __init__(self, dirs: CampaignDirs, spec: CampaignSpec,
                 total_cells: int, substrate_version: str) -> None:
        self.dirs = dirs
        self.spec = spec
        self.total_cells = total_cells
        self.substrate_version = substrate_version

    @property
    def name(self) -> str:
        return self.spec.name

    def check_substrate(self) -> None:
        """Refuse to execute a manifest compiled against different physics.

        The manifest's content keys hash the substrate version, so a skewed
        executor would miss every cache entry and re-simulate the campaign
        under semantics its report would mislabel.  Recompile instead.
        """
        if self.substrate_version != SUBSTRATE_VERSION:
            raise ManifestError(
                f"manifest {self.dirs.manifest_path} was compiled for "
                f"substrate {self.substrate_version} but this checkout is "
                f"{SUBSTRATE_VERSION}; recompile the campaign "
                "(python -m repro.campaign compile ...)"
            )

    def iter_cells(self) -> Iterator[ManifestCell]:
        """Stream the run table in manifest order (O(1) memory)."""
        with open(self.dirs.cells_path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    yield ManifestCell.from_json_line(line, lineno,
                                                      self.dirs.cells_path)

    def derive_cell(self, manifest_cell: ManifestCell) -> Cell:
        """Rebuild the runnable orchestrator cell for one manifest line.

        The spec is re-derived from the campaign base + the line's factor
        assignment + its seed; the resulting content key must equal the
        compiled one — a mismatch means spec derivation or serialization
        semantics changed without a substrate version bump.
        """
        spec = self.spec.base.derive(**manifest_cell.factors).derive(
            seed=manifest_cell.seed)
        cell = Cell(figure=f"campaign:{self.name}", key=manifest_cell.cell_id,
                    spec=spec)
        derived_key = cell.cache_key()
        if derived_key != manifest_cell.key:
            raise ManifestError(
                f"cell {manifest_cell.cell_id} of campaign {self.name!r} "
                f"derives content key {derived_key} but the manifest recorded "
                f"{manifest_cell.key}; the checkout's scenario semantics have "
                "drifted from the compiled manifest — recompile the campaign"
            )
        return cell


def compile_campaign(spec: CampaignSpec, directory,
                     progress: Optional[Callable[[str], None]] = None) -> Manifest:
    """Expand a campaign into its on-disk run table (streaming, atomic-ish).

    Safe to re-run: recompiling the *same* campaign into the same directory
    rewrites identical files (content keys are deterministic), and results
    already in ``cache/`` remain valid because they are addressed by content,
    not by position.  Compiling a *different* campaign into a directory that
    already has results is refused — that would silently orphan the old run
    table's cache entries.
    """
    dirs = CampaignDirs(Path(directory))
    notify = progress or (lambda message: None)
    if dirs.manifest_path.exists():
        try:
            with open(dirs.manifest_path, "r", encoding="utf-8") as fh:
                existing = json.load(fh)
            same = existing.get("campaign") == spec.to_json_dict()
        except (OSError, ValueError):
            same = False  # corrupt manifest: overwrite it
        if not same and _has_state(dirs):
            raise ManifestError(
                f"{dirs.root} already holds a different campaign's manifest; "
                "compile into a fresh directory (or delete the old one)"
            )
    dirs.root.mkdir(parents=True, exist_ok=True)
    dirs.cache_dir.mkdir(exist_ok=True)
    dirs.reports_dir.mkdir(exist_ok=True)

    total = 0
    fd, tmp_path = tempfile.mkstemp(dir=dirs.root, prefix=".tmp-cells-",
                                    suffix=".jsonl")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for campaign_cell in spec.cells():
                line = ManifestCell(
                    index=campaign_cell.index,
                    cell_id=campaign_cell.cell_id,
                    key=campaign_cell.key,
                    seed=campaign_cell.seed,
                    factors=campaign_cell.factor_json,
                ).to_json_line()
                fh.write(line + "\n")
                total += 1
                if total % 10_000 == 0:
                    notify(f"compiled {total} cells...")
        os.replace(tmp_path, dirs.cells_path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise

    manifest_doc = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "name": spec.name,
        "substrate_version": SUBSTRATE_VERSION,
        "campaign": spec.to_json_dict(),
        "total_cells": total,
        "grid_points": spec.grid_points,
        "seed_reps": spec.seed_reps,
        "factor_names": list(spec.factor_names),
    }
    fd, tmp_path = tempfile.mkstemp(dir=dirs.root, prefix=".tmp-manifest-",
                                    suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(manifest_doc, fh, indent=2, sort_keys=True)
        os.replace(tmp_path, dirs.manifest_path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    notify(f"compiled {spec.describe()} -> {dirs.root}")
    return Manifest(dirs, spec, total, SUBSTRATE_VERSION)


def _has_state(dirs: CampaignDirs) -> bool:
    """Whether a campaign directory holds results an overwrite would orphan."""
    return dirs.cache_dir.is_dir() and any(dirs.cache_dir.iterdir())


def load_manifest(directory) -> Manifest:
    """Open a compiled campaign directory, validating shape and versions."""
    dirs = CampaignDirs(Path(directory))
    if not dirs.manifest_path.is_file():
        raise ManifestError(
            f"{dirs.root} has no manifest.json; compile the campaign first "
            "(python -m repro.campaign compile <campaign.json> --out "
            f"{dirs.root})"
        )
    try:
        with open(dirs.manifest_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ManifestError(f"{dirs.manifest_path}: unreadable ({exc})") from None
    if not isinstance(doc, dict) or doc.get("schema") != MANIFEST_SCHEMA_VERSION:
        raise ManifestError(
            f"{dirs.manifest_path}: unsupported manifest schema "
            f"{doc.get('schema') if isinstance(doc, dict) else doc!r} "
            f"(this checkout reads v{MANIFEST_SCHEMA_VERSION})"
        )
    try:
        spec = CampaignSpec.from_json_dict(doc["campaign"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(
            f"{dirs.manifest_path}: invalid campaign spec ({exc})") from None
    if not dirs.cells_path.is_file():
        raise ManifestError(
            f"{dirs.root} has a manifest but no cells.jsonl; recompile")
    return Manifest(dirs, spec, int(doc.get("total_cells", 0)),
                    str(doc.get("substrate_version", "")))
