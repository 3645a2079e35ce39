"""Campaigns: declarative run-table experiments over the scenario grid.

The repo's third orchestration layer.  Where :mod:`repro.scenario` runs one
evaluation point and :mod:`repro.bench` sweeps the paper's fixed figures,
a **campaign** is a user-defined factorial experiment: a base scenario ×
explicit factor levels × seed repetitions.  A campaign directory is that
spec and its result cache, nothing else: any number of executors — local
processes, CI matrix shards, hosts on a shared filesystem — derive the cells
from the spec and complete them together with no coordinator, and the
report reduces them to a statistical run table (mean ± 95% CI per row).

    python -m repro.campaign compile experiment.json --out runs/exp
    python -m repro.campaign run runs/exp --shard 0/2 --jobs 4   # host A
    python -m repro.campaign run runs/exp --shard 1/2 --jobs 4   # host B
    python -m repro.campaign status runs/exp
    python -m repro.campaign report runs/exp --out report.md

Crash-safe and idempotent by construction: results live in a content-keyed
:class:`~repro.bench.orchestrator.ResultCache`, which is the only
coordination, and re-running a finished campaign executes zero simulations.
Unsharded executors on one directory may run a cell twice; both publish the
same bytes (see :mod:`repro.campaign.executor`).  See ``examples/campaigns/``
and the README's "Running campaigns" section.
"""

from .executor import ExecutorStats, parse_shard, run_campaign
from .manifest import (
    MANIFEST_SCHEMA_VERSION,
    CampaignDirs,
    Manifest,
    ManifestError,
    compile_campaign,
    load_manifest,
)
from .report import (
    DEFAULT_METRICS,
    REPORT_METRICS,
    CampaignStatus,
    campaign_report,
    campaign_status,
    render_markdown,
)
from .spec import CampaignCell, CampaignSpec

__all__ = [
    "DEFAULT_METRICS",
    "MANIFEST_SCHEMA_VERSION",
    "REPORT_METRICS",
    "CampaignCell",
    "CampaignDirs",
    "CampaignSpec",
    "CampaignStatus",
    "ExecutorStats",
    "Manifest",
    "ManifestError",
    "campaign_report",
    "campaign_status",
    "compile_campaign",
    "load_manifest",
    "parse_shard",
    "render_markdown",
    "run_campaign",
]
