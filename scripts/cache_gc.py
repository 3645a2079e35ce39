#!/usr/bin/env python
"""Prune version-skewed / orphaned entries from shared result-cache dirs.

Campaigns share one content-keyed cache directory across executors, hosts and
substrate versions (see README "Running campaigns").  Entries written by an
older substrate are already invisible to ``ResultCache.get`` — this tool
reclaims their disk::

    python scripts/cache_gc.py .bench-cache
    python scripts/cache_gc.py my-campaign/cache --dry-run

Removes (per directory): entries whose cache schema or substrate version no
longer matches the running code, files that do not parse or whose result does
not decode, and ``.tmp-*`` debris of executors killed mid-write (older than
``--tmp-age``).  The cache is the campaign's only coordination, so there is
nothing else to sweep.  Exit status 0 always; the summary reports bytes
reclaimed per directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.orchestrator import collect_cache_garbage  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python scripts/cache_gc.py",
        description="Reclaim stale entries from orchestrator/campaign caches.",
    )
    parser.add_argument("cache_dirs", nargs="+", metavar="DIR",
                        help="result-cache directories to sweep")
    parser.add_argument("--tmp-age", type=float, default=3600.0, metavar="S",
                        help="age in seconds after which .tmp-* files count "
                             "as orphaned (default: 3600)")
    parser.add_argument("--dry-run", action="store_true",
                        help="report what would be removed without deleting")
    args = parser.parse_args(argv)

    total = 0
    for cache_dir in args.cache_dirs:
        report = collect_cache_garbage(cache_dir, tmp_age_s=args.tmp_age,
                                       dry_run=args.dry_run)
        total += report.bytes_reclaimed
        print(f"[cache-gc] {report.describe()}")
    action = "would reclaim" if args.dry_run else "reclaimed"
    print(f"[cache-gc] total: {action} {total:,} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
