"""A compiled campaign directory: the campaign spec and its result cache.

Compiling a :class:`~repro.campaign.spec.CampaignSpec` produces a directory::

    <campaign-dir>/
      manifest.json     # campaign spec + substrate version (written last)
      cache/            # shared ResultCache — the only result store
      reports/          # rendered report artifacts

``run``, ``status`` and ``report`` stream :meth:`CampaignSpec.cells` from
the manifest's spec, and every cell brings its own content key, index (its
shard is ``index % n``) and factor assignment.  A key is therefore always
computed from the spec that runs, so no result can be filed under another
spec's key.  Compiling derives every cell once, so a bad factor level fails
at ``compile``, not in the middle of a run.

``manifest.json`` is written last, through a temp file and ``os.replace``: a
directory with a manifest is always a complete campaign, and an interrupted
compile leaves none and is simply re-run.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from ..bench.orchestrator import SUBSTRATE_VERSION
from .spec import CampaignSpec

__all__ = [
    "CampaignDirs",
    "Manifest",
    "ManifestError",
    "MANIFEST_SCHEMA_VERSION",
    "compile_campaign",
    "load_manifest",
]

#: Version of the manifest directory format.  v2: ``manifest.json`` holds
#: ``{schema, substrate_version, campaign}``; the cells derive from the spec.
#: (v1 also wrote a ``cells.jsonl`` cell table; recompile such a directory.)
MANIFEST_SCHEMA_VERSION = 2


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
    def cache_dir(self) -> Path:
        return self.root / "cache"

    @property
    def reports_dir(self) -> Path:
        return self.root / "reports"


class Manifest:
    """A loaded campaign directory: its layout, spec and substrate version."""

    def __init__(self, dirs: CampaignDirs, spec: CampaignSpec,
                 substrate_version: str) -> None:
        self.dirs = dirs
        self.spec = spec
        self.substrate_version = substrate_version

    @property
    def name(self) -> str:
        return self.spec.name

    def check_substrate(self) -> None:
        """Refuse to execute a manifest compiled against different physics.

        The cells' content keys hash the substrate version, so a skewed
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


def compile_campaign(spec: CampaignSpec, directory,
                     progress: Optional[Callable[[str], None]] = None) -> Manifest:
    """Derive every cell of a campaign once, then write its directory.

    Safe to re-run: recompiling the *same* campaign into the same directory
    rewrites an identical manifest, and results already in ``cache/`` remain
    valid because they are addressed by content, not by position.  Compiling
    a *different* campaign into a directory that already has results is
    refused — that would silently orphan the old campaign's cache entries.
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
    # Every level must derive (and key) before anything is written.
    for _ in spec.cells():
        pass
    dirs.root.mkdir(parents=True, exist_ok=True)
    dirs.cache_dir.mkdir(exist_ok=True)
    dirs.reports_dir.mkdir(exist_ok=True)

    manifest_doc = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "substrate_version": SUBSTRATE_VERSION,
        "campaign": spec.to_json_dict(),
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
    return Manifest(dirs, spec, SUBSTRATE_VERSION)


def _has_state(dirs: CampaignDirs) -> bool:
    """Whether a campaign directory holds results an overwrite would orphan."""
    return dirs.cache_dir.is_dir() and any(dirs.cache_dir.iterdir())


def load_manifest(directory) -> Manifest:
    """Open a compiled campaign directory, validating its versions."""
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
            f"(this checkout reads v{MANIFEST_SCHEMA_VERSION}); recompile the "
            "campaign (python -m repro.campaign compile ...)"
        )
    try:
        spec = CampaignSpec.from_json_dict(doc["campaign"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(
            f"{dirs.manifest_path}: invalid campaign spec ({exc})") from None
    return Manifest(dirs, spec, str(doc.get("substrate_version", "")))
