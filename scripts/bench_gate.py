#!/usr/bin/env python
"""Substrate bench gate: fixed-seed counts and memory ceilings.

Runs five fixed-seed end-to-end rows (YCSB closed and open loop, TPC-C, the
million-key tapir tier and the standard fault storm) and records each row's
simulated counts and memory peak in the committed ``BENCH_substrate.json``.
Host time is not measured here: walls belong to ``python -m perf.run``.

``python scripts/bench_gate.py`` measures and (over)writes the file.
``python scripts/bench_gate.py --check`` measures and fails when a row's
correctness fields (commit/abort counts, crash aborts, message total, final
simulated clock, stale reads) differ from the baseline, when its
``mem_peak_mb`` exceeds the baseline by more than ``MEM_TOLERANCE``, or when
the baseline file, a row or a field is missing.  An intentional change
regenerates the baseline in the same commit.  ``--summary FILE`` (default:
``$GITHUB_STEP_SUMMARY`` when set) appends the verdict as Markdown.

Every row runs twice, untraced and under tracemalloc; the two runs'
correctness fields must be identical, or the simulator lost determinism
within one process and the gate fails.  ``mem_peak_mb`` is the traced run's
tracemalloc peak plus the bytes of its columnar tables' slot arrays: a slot
array is an anonymous mapping, which tracemalloc does not see.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import NamedTuple, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402
from repro.bench.experiments import storm_duration_us  # noqa: E402
from repro.storage.columnar import ColumnarTable  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_substrate.json"
# Bumped whenever a row gains or loses a field.  v8 holds counts and
# ``mem_peak_mb`` only: host time is measured by ``perf/``.
SCHEMA_VERSION = 8
#: A row fails when its memory peak exceeds the baseline's by more than
#: this fraction.  The peak counts bytes, not time, so the ceiling means
#: the same on any machine.
MEM_TOLERANCE = 0.30
REGENERATE = ("If intentional, regenerate the baseline with "
              "`python scripts/bench_gate.py` in this commit.")


class E2ERow(NamedTuple):
    """One fixed-seed end-to-end row."""

    name: str
    protocol: str
    workload: str
    scale: str
    #: ``None`` is the closed loop, a dict is an
    #: :class:`repro.arrivals.ArrivalSpec` JSON form.
    arrival: Optional[dict]
    #: Named fault plan (currently only ``"standard_storm"``); ``None`` is a
    #: fault-free run.
    faults: Optional[str] = None


E2E_ROWS = (
    E2ERow("ycsb_small", "primo", "ycsb", "small", None),
    E2ERow("tpcc_small", "primo", "tpcc", "small", None),
    E2ERow("ycsb_openloop_small", "primo", "ycsb", "small",
           {"kind": "poisson", "rate_tps": 176_000.0}),
    E2ERow("ycsb_xlarge", "tapir", "ycsb", "xlarge", None),
    E2ERow("ycsb_storm_small", "primo", "ycsb", "small", None,
           "standard_storm"),
)
#: Correctness fields of an end-to-end row (machine-independent, exact).
E2E_CORRECTNESS_KEYS = ("committed", "aborted", "crash_aborted",
                        "network_messages", "final_env_now", "stale_reads")


def _arrival_stamp(arrival) -> str:
    if arrival is None:
        return "closed"
    rate = arrival.get("rate_tps")
    return f"{arrival['kind']}@{rate:g}tps" if rate else arrival["kind"]


def run_e2e(row: E2ERow, traced: bool = False) -> dict:
    """One fixed-seed end-to-end run; ``traced`` adds ``mem_peak_mb``
    (module docstring)."""
    spec = repro.ScenarioSpec(protocol=row.protocol, workload=row.workload,
                              scale=row.scale, arrival=row.arrival)
    if row.faults == "standard_storm":
        # Mirror the storm figure exactly: the fast failure detector (so the
        # leader flap is detected and recovered inside the fixed-seed run)
        # and the stretched >= 60 ms window — at the raw small-scale duration
        # the flap's ~20 ms recovery quiesce would swallow the trailing
        # stale-read window, leaving the stale_reads correctness key vacuous.
        duration = storm_duration_us(spec.scale)
        spec = spec.derive(
            faults=repro.standard_storm(spec.scale.warmup_us, duration),
            duration_us=duration,
            heartbeat_interval_us=500.0,
            heartbeat_timeout_us=2_000.0,
        )
    elif row.faults is not None:
        raise SystemExit(f"unknown named fault plan {row.faults!r}")
    if traced:
        tracemalloc.start()
    try:
        cluster = repro.build(spec)
        result = cluster.run()
        sample = {
            "protocol": row.protocol,
            "scale": row.scale,
            "arrival": _arrival_stamp(row.arrival),
            "faults": row.faults or "none",
            "committed": result.metrics.committed,
            "aborted": result.metrics.aborted,
            "crash_aborted": result.metrics.crash_aborted,
            "network_messages": result.network_messages,
            "final_env_now": cluster.env.now,
            "stale_reads": result.metrics.counters.get("stale_reads"),
        }
        if traced:
            _, peak = tracemalloc.get_traced_memory()
            mapped = sum(table._slot.nbytes for server in cluster.servers.values()
                         for table in server.store.tables.values()
                         if isinstance(table, ColumnarTable))
            sample["mem_peak_mb"] = round((peak + mapped) / 2**20, 1)
    finally:
        if traced:
            tracemalloc.stop()
    return sample


def measure_e2e(row: E2ERow) -> dict:
    """An untraced and a traced run whose correctness fields must agree."""
    plain = run_e2e(row)
    traced = run_e2e(row, traced=True)
    for key in E2E_CORRECTNESS_KEYS:
        if plain[key] != traced[key]:
            raise SystemExit(
                f"DETERMINISM FAIL: {row.name}.{key} varied between runs "
                f"({plain[key]} vs {traced[key]}) — fixed-seed runs must be "
                "reproducible within one process."
            )
    return traced


def git_sha() -> str:
    """HEAD, marked ``-dirty`` when the worktree has edits (the normal flow
    measures, then commits code and baseline together); ``unknown`` when git
    fails, so the gate never dies over metadata."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=REPO_ROOT, check=True,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        return sha + "-dirty" if git("status", "--porcelain") else sha
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def measure() -> dict:
    samples = {}
    for e2e_row in E2E_ROWS:
        row = measure_e2e(e2e_row)
        samples[e2e_row.name] = row
        print(f"  {e2e_row.name:<20} {row['mem_peak_mb']:>8.1f} MB peak   "
              f"(committed={row['committed']}, aborted={row['aborted']}, "
              f"arrival={row['arrival']})")
    return samples


def check(current: dict, baseline: dict) -> tuple[int, list[str]]:
    """Compare a fresh measurement against the committed baseline.

    Returns ``(exit_code, summary_lines)``; the summary lines are Markdown
    rows for the optional step summary.
    """
    failures = 0
    summary = ["### Substrate bench gate", "",
               "| check | status |", "| --- | --- |"]
    for row in E2E_ROWS:
        label = f"`{row.name}` ({_arrival_stamp(row.arrival)})"
        cur_row = current[row.name]
        base_row = baseline.get(row.name)
        if base_row is None:
            failures += 1
            print(f"FAIL: {row.name} has no baseline row. {REGENERATE}")
            summary.append(f"| {label} | ❌ **no baseline row** |")
            continue
        drifted = [key for key in E2E_CORRECTNESS_KEYS
                   if base_row.get(key) != cur_row[key]]
        for key in drifted:
            print(f"CORRECTNESS FAIL: {row.name}.{key} = {cur_row[key]}, "
                  f"baseline has {base_row.get(key)} — simulation semantics "
                  f"changed. {REGENERATE}")
        failures += len(drifted)
        print(f"correctness: {row.name} "
              + (f"{len(drifted)} field(s) drifted" if drifted else "OK"))
        summary.append(f"| {label} correctness | " + (
            f"❌ **{len(drifted)} field(s) drifted** |" if drifted
            else "✅ match |"))

        # A baseline without a peak is a blown ceiling, not a skipped one.
        base_mem, cur_mem = base_row.get("mem_peak_mb"), cur_row["mem_peak_mb"]
        ratio = cur_mem / base_mem if base_mem else float("inf")
        within = ratio <= 1.0 + MEM_TOLERANCE
        if not within:
            failures += 1
            print(f"MEMORY FAIL: {row.name} peaked at {cur_mem} MB, baseline "
                  f"ceiling is {base_mem} MB (+{MEM_TOLERANCE:.0%} "
                  f"tolerance). {REGENERATE}")
        print(f"mem:  {row.name:<20} {ratio:6.2f}x peak vs baseline "
              f"({cur_mem} MB vs {base_mem} MB) — "
              + ("ok" if within else "CEILING EXCEEDED"))
        summary.append(f"| {label} memory peak | "
                       + ("✅" if within else "❌ **ceiling exceeded**")
                       + f" {ratio:.2f}x vs baseline ({cur_mem} MB vs "
                       f"{base_mem} MB) |")
    summary += ["", "Counts must match exactly; memory peaks may exceed "
                f"their baseline by at most {MEM_TOLERANCE:.0%}."]
    return (1 if failures else 0), summary


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baseline instead of overwriting it")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"baseline file (default: {DEFAULT_OUTPUT.name})")
    parser.add_argument("--summary", type=Path, default=None,
                        help="append a Markdown check summary to this file "
                             "(default: $GITHUB_STEP_SUMMARY when set)")
    args = parser.parse_args(argv)

    if args.check and not args.output.exists():
        print(f"FAIL: no baseline at {args.output}; --check never writes "
              "one. Regenerate the baseline with "
              "`python scripts/bench_gate.py` and commit it.")
        return 1

    print("bench_gate: measuring the fixed-seed end-to-end rows")
    current = {
        "schema_version": SCHEMA_VERSION,
        "git_sha": git_sha(),
        "generated_at": datetime.datetime.now(datetime.timezone.utc)
                                         .isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        **measure(),
    }

    if not args.check:
        args.output.write_text(json.dumps(current, indent=2) + "\n")
        print(f"wrote {args.output}")
        return 0

    baseline = json.loads(args.output.read_text())
    code, summary_lines = check(current, baseline)
    summary_path = args.summary
    if summary_path is None and os.environ.get("GITHUB_STEP_SUMMARY"):
        summary_path = Path(os.environ["GITHUB_STEP_SUMMARY"])
    if summary_path is not None:
        with open(summary_path, "a", encoding="utf-8") as fh:
            fh.write("\n".join(summary_lines) + "\n")
        print(f"wrote check summary to {summary_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
