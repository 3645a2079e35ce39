"""Campaign status and statistical reports over the shared result cache.

Both commands are **pure readers**: they stream the campaign spec's cells,
look each cell's content key up in ``cache/``, and never simulate or write
anything outside ``reports/``.  Running them concurrently with executors is
safe and is how long campaigns are monitored.

The report aggregates the run table by grid point: every row is one factor
assignment, its ``seed_reps`` repetitions collapsed to ``mean ± 95% CI``
(Student-t across seeds — see :func:`repro.bench.report.confidence_interval_95`)
per metric.  Rows missing repetitions (campaign still running) are reported
with the reps they have and flagged, so a mid-flight report is usable but
unambiguous.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..bench.orchestrator import ResultCache
from ..bench.report import confidence_interval_95, format_mean_ci
from ..registry import suggestion_hint
from .manifest import Manifest, load_manifest

__all__ = [
    "DEFAULT_METRICS",
    "CampaignStatus",
    "REPORT_METRICS",
    "campaign_report",
    "campaign_status",
    "render_markdown",
]

#: The report's vocabulary: ``RunResult`` attribute names, read with
#: ``getattr``.  ``--metrics`` validates against it with did-you-mean hints.
REPORT_METRICS = (
    "throughput_ktps", "committed", "aborted", "abort_rate", "mean_latency_ms",
    "p50_latency_ms", "p99_latency_ms", "p999_latency_ms", "network_messages",
)

DEFAULT_METRICS = ("throughput_ktps", "abort_rate", "p99_latency_ms")


def resolve_metrics(names: Optional[Sequence[str]]) -> tuple[str, ...]:
    if not names:
        return DEFAULT_METRICS
    resolved = []
    for name in names:
        if name not in REPORT_METRICS:
            raise ValueError(
                f"unknown report metric {name!r}"
                f"{suggestion_hint(name, REPORT_METRICS)}; metrics: "
                f"{', '.join(REPORT_METRICS)}"
            )
        resolved.append(name)
    return tuple(resolved)


@dataclass
class CampaignStatus:
    """Progress of a campaign: done / pending cell counts."""

    name: str = ""
    total_cells: int = 0
    done: int = 0        # valid cache entry exists
    pending: int = 0     # not yet published (possibly running right now)

    @property
    def complete(self) -> bool:
        return self.done >= self.total_cells and self.total_cells > 0

    def describe(self) -> str:
        pct = 100.0 * self.done / self.total_cells if self.total_cells else 0.0
        return (
            f"campaign {self.name!r}: {self.done}/{self.total_cells} cells "
            f"done ({pct:.1f}%), {self.pending} pending"
        )

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "total_cells": self.total_cells,
            "done": self.done,
            "pending": self.pending,
            "complete": self.complete,
        }


def campaign_status(directory, manifest: Optional[Manifest] = None) -> CampaignStatus:
    """Count done / pending cells without touching anything."""
    manifest = manifest if manifest is not None else load_manifest(directory)
    cache = ResultCache(manifest.dirs.cache_dir)
    status = CampaignStatus(name=manifest.name)
    for cell in manifest.spec.cells():
        status.total_cells += 1
        if cache.contains_key(cell.key):
            status.done += 1
        else:
            status.pending += 1
    return status


@dataclass
class ReportRow:
    """One run-table row: a factor assignment with per-metric statistics."""

    factors: dict
    reps_expected: int
    reps_present: int = 0
    metrics: dict = field(default_factory=dict)  # name -> {mean, ci95, n, values}

    @property
    def complete(self) -> bool:
        return self.reps_present >= self.reps_expected


def campaign_report(directory, metrics: Optional[Sequence[str]] = None,
                    manifest: Optional[Manifest] = None) -> dict:
    """Aggregate the campaign into a JSON-shaped report document.

    Shape::

        {"campaign": ..., "metrics": [...], "complete": bool,
         "rows_total": N, "rows_complete": M,
         "rows": [{"factors": {...}, "reps_expected": R, "reps_present": r,
                   "metrics": {"throughput_ktps":
                       {"mean": ..., "ci95": ..., "n": r, "values": [...]}}}]}

    Rows appear in grid order.  Cells not yet in the cache simply do not
    contribute repetitions; a report over a half-run campaign is well-formed.
    """
    manifest = manifest if manifest is not None else load_manifest(directory)
    metric_names = resolve_metrics(metrics)
    cache = ResultCache(manifest.dirs.cache_dir)
    spec = manifest.spec

    # Cells stream grid-major with reps innermost, so rows materialize in
    # order; keyed by the grid point's frozen factor assignment.
    rows: dict[tuple, ReportRow] = {}
    for cell in spec.cells():
        row = rows.get(cell.factors)
        if row is None:
            row = rows[cell.factors] = ReportRow(
                factors=cell.factor_json,
                reps_expected=spec.seed_reps,
            )
        result = cache.get_by_key(cell.key)
        if result is None:
            continue
        row.reps_present += 1
        for name in metric_names:
            row.metrics.setdefault(name, []).append(float(getattr(result, name)))

    report_rows = []
    for row in rows.values():
        stats = {}
        for name in metric_names:
            values = row.metrics.get(name, [])
            if not values:
                stats[name] = {"mean": None, "ci95": None, "n": 0, "values": []}
                continue
            mean, half = confidence_interval_95(values)
            stats[name] = {"mean": mean, "ci95": half, "n": len(values),
                           "values": list(values)}
        report_rows.append({
            "factors": row.factors,
            "reps_expected": row.reps_expected,
            "reps_present": row.reps_present,
            "complete": row.complete,
            "metrics": stats,
        })

    complete_rows = sum(1 for row in report_rows if row["complete"])
    return {
        "campaign": spec.to_json_dict(),
        "metrics": list(metric_names),
        "factor_names": list(spec.factor_names),
        "seed_reps": spec.seed_reps,
        "rows_total": len(report_rows),
        "rows_complete": complete_rows,
        "complete": complete_rows == len(report_rows) and bool(report_rows),
        "rows": report_rows,
    }


def render_markdown(report: dict) -> str:
    """The report document as a GitHub-flavored Markdown run table."""
    campaign = report["campaign"]
    factor_names = report["factor_names"]
    metric_names = report["metrics"]
    lines = [
        f"# Campaign `{campaign['name']}`",
        "",
        f"- base: protocol `{campaign['base']['protocol']}`, workload "
        f"`{campaign['base']['workload']}`, scale "
        f"`{campaign['base']['scale']['name']}`",
        f"- grid: {report['rows_total']} point(s) × {report['seed_reps']} "
        f"seed rep(s); {report['rows_complete']}/{report['rows_total']} "
        "rows complete",
        "- intervals: mean ± 95% CI (Student-t across seed reps)",
        "",
    ]
    header = [*factor_names, "reps",
              *(name.replace("_", " ") for name in metric_names)]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in report["rows"]:
        cells = [_md_value(row["factors"].get(name)) for name in factor_names]
        reps = f"{row['reps_present']}/{row['reps_expected']}"
        if not row["complete"]:
            reps += " ⚠"
        cells.append(reps)
        for name in metric_names:
            stats = row["metrics"][name]
            if stats["n"] == 0:
                cells.append("—")
            elif name.endswith("_rate"):
                mean, half = stats["mean"], stats["ci95"]
                cells.append(f"{mean:.1%} ± {half:.1%}" if half
                             else f"{mean:.1%}")
            else:
                cells.append(format_mean_ci(stats["mean"], stats["ci95"]))
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    return "\n".join(lines)


def _md_value(value) -> str:
    if isinstance(value, dict):
        return "`" + json.dumps(value, sort_keys=True) + "`"
    if isinstance(value, list):
        return "`" + json.dumps(value) + "`"
    return f"`{value}`"
