"""Command-line entry point: ``python -m repro.campaign <command> ...``.

Four subcommands cover the campaign lifecycle:

``compile <campaign.json> --out DIR``
    Derive every cell of a :class:`~repro.campaign.spec.CampaignSpec` file
    once (a bad factor level fails here), then write the campaign directory:
    ``manifest.json`` and empty ``cache/`` and ``reports/`` dirs.

``run DIR [--shard i/n] [--jobs N]``
    Execute (a shard of) the campaign.  Run the same command on as many
    machines/shards as you like — the shared cache is their only
    coordination, so unsharded executors may run a cell twice (and publish
    identical bytes); rerunning a finished campaign executes nothing.

``status DIR [--json]``
    One line (or JSON) of progress: done / pending cells.

``report DIR [--metrics m1,m2] [--out FILE] [--json FILE] [--summary FILE]``
    Aggregate the run table: one row per factor assignment, each metric as
    mean ± 95% CI across seed reps.  Markdown to stdout; the Markdown and
    JSON artifacts go to ``--out``/``--json``, each defaulting independently
    into ``DIR/reports/``; ``--summary`` appends the same Markdown to a file
    (point it at ``$GITHUB_STEP_SUMMARY`` in CI).
"""

from __future__ import annotations

import argparse
import json
import sys

from .executor import main_progress, parse_shard, run_campaign
from .manifest import ManifestError, compile_campaign, load_manifest
from .report import (
    campaign_report,
    campaign_status,
    render_markdown,
    resolve_metrics,
)
from .spec import CampaignSpec


def _cmd_compile(args, parser) -> int:
    try:
        with open(args.campaign, "r", encoding="utf-8") as fh:
            spec = CampaignSpec.from_json_dict(json.load(fh))
    except (OSError, ValueError, TypeError) as exc:
        parser.error(f"{args.campaign}: {exc}")
    progress = None if args.quiet else main_progress()
    try:
        manifest = compile_campaign(spec, args.out, progress=progress)
    except (ValueError, TypeError) as exc:
        # A factor level that does not derive (a misspelled protocol, ...)
        # is a spec error too; compile raises it before writing anything.
        parser.error(f"{args.campaign}: {exc}")
    print(f"[campaign] {spec.total_cells} cells -> {manifest.dirs.root}")
    return 0


def _cmd_run(args, parser) -> int:
    try:
        shard = parse_shard(args.shard)
    except ValueError as exc:
        parser.error(str(exc))
    manifest = load_manifest(args.directory)
    progress = None if args.quiet else main_progress()
    stats = run_campaign(args.directory, shard=shard, jobs=args.jobs,
                         progress=progress, manifest=manifest)
    print(f"[campaign] {manifest.name}: {stats.describe(shard)}")
    if stats.errors:
        for cell_id, message in stats.errors:
            print(f"[campaign]   failed {cell_id}: {message}", file=sys.stderr)
        return 1
    return 0


def _cmd_status(args, parser) -> int:
    status = campaign_status(args.directory)
    if args.json:
        print(json.dumps(status.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(status.describe())
    # Scriptable completion check: exit 0 when done, 2 while work remains
    # (CI gates on `status` after the matrix shards join).
    return 0 if status.complete else 2


def _cmd_report(args, parser) -> int:
    metrics = None
    if args.metrics:
        try:
            metrics = resolve_metrics(
                [name.strip() for name in args.metrics.split(",") if name.strip()])
        except ValueError as exc:
            parser.error(str(exc))
    manifest = load_manifest(args.directory)
    report = campaign_report(args.directory, metrics=metrics, manifest=manifest)
    markdown = render_markdown(report)
    print(markdown)
    written = []
    # Each artifact defaults independently into the campaign's reports/
    # directory, so `--json out.json` still writes reports/report.md (and
    # `--out table.md` still writes reports/report.json).
    reports_dir = manifest.dirs.reports_dir
    md_path = args.out or str(reports_dir / "report.md")
    json_path = args.json_out or str(reports_dir / "report.json")
    if not args.out or not args.json_out:
        reports_dir.mkdir(parents=True, exist_ok=True)
    with open(md_path, "w", encoding="utf-8") as fh:
        fh.write(markdown)
    written.append(md_path)
    if args.summary and args.summary != md_path:
        with open(args.summary, "a", encoding="utf-8") as fh:
            fh.write(markdown)
        written.append(args.summary)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    written.append(json_path)
    for path in written:
        print(f"[campaign] wrote {path}", file=sys.stderr)
    return 0 if report["complete"] else 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Compile, execute and report declarative run-table "
                    "campaigns (see examples/campaigns/).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser(
        "compile", help="compile a campaign JSON file into a campaign directory")
    p_compile.add_argument("campaign", help="CampaignSpec JSON file")
    p_compile.add_argument("--out", "-o", required=True, metavar="DIR",
                           help="campaign directory to create/refresh")
    p_compile.add_argument("--quiet", action="store_true",
                           help="suppress progress lines on stderr")

    p_run = sub.add_parser(
        "run", help="execute (a shard of) a compiled campaign")
    p_run.add_argument("directory", help="compiled campaign directory")
    p_run.add_argument("--shard", metavar="i/n", default=None,
                       help="run only cells with index %% n == i (0-based); "
                            "default: all cells")
    p_run.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for cell execution "
                            "(default: 1, inline)")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress per-cell progress lines on stderr")

    p_status = sub.add_parser(
        "status", help="print campaign progress (exit 0 when complete, 2 otherwise)")
    p_status.add_argument("directory", help="compiled campaign directory")
    p_status.add_argument("--json", action="store_true",
                          help="machine-readable status document")

    p_report = sub.add_parser(
        "report", help="aggregate results: mean ± 95%% CI per run-table row")
    p_report.add_argument("directory", help="compiled campaign directory")
    p_report.add_argument("--metrics", metavar="M1,M2,...",
                          help="comma-separated RunResult metrics (default: "
                               "throughput_ktps,abort_rate,p99_latency_ms)")
    p_report.add_argument("--out", metavar="FILE",
                          help="write the Markdown table to FILE (default: "
                               "<dir>/reports/report.md)")
    p_report.add_argument("--json", dest="json_out", metavar="FILE",
                          help="write the JSON report document to FILE "
                               "(default: <dir>/reports/report.json)")
    p_report.add_argument("--summary", metavar="FILE",
                          help="append the Markdown to FILE (e.g. "
                               "$GITHUB_STEP_SUMMARY)")

    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error("--jobs must be >= 1")
    handler = {
        "compile": _cmd_compile,
        "run": _cmd_run,
        "status": _cmd_status,
        "report": _cmd_report,
    }[args.command]
    try:
        return handler(args, parser)
    except ManifestError as exc:
        print(f"[campaign] error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
