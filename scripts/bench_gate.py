#!/usr/bin/env python
"""Substrate benchmark gate: measure, record, and check for regressions.

Runs the simulation-substrate micro-benchmarks (engine dispatch, timeouts,
process spawn, network rpc/send, Zipf sampling) plus fixed-seed end-to-end
YCSB and TPC-C runs, and writes the samples to ``BENCH_substrate.json`` at
the repo root.  The JSON file is committed so every PR leaves a perf
trajectory the next one can compare against; ``git_sha`` and
``generated_at`` metadata make the committed trajectory self-describing.

Modes
-----

``python scripts/bench_gate.py``
    Measure and (over)write ``BENCH_substrate.json``.

``python scripts/bench_gate.py --check``
    Measure and compare against the committed ``BENCH_substrate.json``:

    * **correctness** (commit/abort counts, message totals and final
      simulated clock of the fixed-seed end-to-end runs) must match exactly —
      mismatch exits non-zero.  A PR that intentionally changes simulation
      semantics must regenerate the baseline in the same commit.
    * **performance** is advisory (machines differ): regressions beyond
      ``--tolerance`` (default 30%) are reported as warnings but do not
      fail the gate.

    When ``--summary FILE`` is given (or the ``GITHUB_STEP_SUMMARY``
    environment variable is set, as on GitHub Actions), a Markdown summary
    of the correctness verdict and every perf ratio is appended there so
    soft-warn regressions surface on the workflow run page instead of being
    buried in the log.

Wall-clock numbers are machine-specific; end-to-end rows record the best of
``--repeats`` runs to damp scheduler noise — ``load_s`` (building the
cluster: config, tables, the workload's loader) and ``wall_s`` (the run),
each judged on its own — and the correctness fields are asserted identical
across those repeats (they are fixed-seed — divergence means the simulator
lost determinism, which also fails the gate).

Memory (schema v5)
------------------

Every end-to-end row also records ``mem_peak_mb``: the tracemalloc peak of
one dedicated traced run.  tracemalloc roughly doubles wall-clock, so the
timed repeats run untraced and memory gets its own run (whose correctness
fields are asserted against the timed ones).  ``--check`` compares memory
like wall clock — soft warning beyond ``--tolerance`` — unless
``--enforce-memory`` is given, which turns a memory regression into a hard
failure.  The CI ``bench-gate`` job passes it for every row: the million-key
row asserts the columnar storage tier still fits its recorded ceiling, the
small rows that committed transactions are not retained while they wait for
their group commit.  ``--rows`` restricts the measured end-to-end rows
(micro benches are skipped when it is given).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import NamedTuple, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402
from repro.bench.experiments import storm_duration_us  # noqa: E402
from repro.bench.micro import MICRO_BENCHMARKS  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_substrate.json"
# v7: every end-to-end row times cluster construction as ``load_s`` beside
# ``wall_s`` (the clock used to start after the database was loaded, so the
# trajectory could not see the load layer at all).  v6: a fixed-seed
# ``ycsb_storm_small`` row runs the curated "standard storm" fault plan
# (replication faults + leader flap + stale reads) and the correctness
# fields gain ``crash_aborted`` and ``stale_reads``, pinning the
# fault scheduler's and the stale-read draw's determinism.  v5: every
# end-to-end row records ``mem_peak_mb`` (tracemalloc peak of a
# dedicated traced run), and a million-key ``ycsb_xlarge`` row (tapir, the
# columnar storage backend's flagship tier) joins the table alongside the
# ``zipf_1m`` micro bench.  v4 added the fixed-seed *open-loop* end-to-end
# row (Poisson arrivals at 0.8x of measured saturation) and stamped each
# row's arrival mode.
SCHEMA_VERSION = 7


class E2ERow(NamedTuple):
    """One fixed-seed end-to-end row measured next to the micro benches."""

    name: str
    protocol: str
    workload: str
    scale: str
    #: ``None`` is the closed loop, a dict is an
    #: :class:`repro.arrivals.ArrivalSpec` JSON form.
    arrival: Optional[dict]
    #: Cap on ``--repeats`` for this row (0 = no cap).  The million-key tier
    #: takes tens of seconds per run; best-of-3 would triple the gate's wall
    #: time for noise-damping the small rows don't need at that duration.
    max_repeats: int
    #: Named fault plan (currently only ``"standard_storm"``); ``None`` is a
    #: fault-free run.
    faults: Optional[str] = None


E2E_ROWS = (
    E2ERow("ycsb_small", "primo", "ycsb", "small", None, 0),
    E2ERow("tpcc_small", "primo", "tpcc", "small", None, 0),
    E2ERow("ycsb_openloop_small", "primo", "ycsb", "small",
           {"kind": "poisson", "rate_tps": 176_000.0}, 0),
    E2ERow("ycsb_xlarge", "tapir", "ycsb", "xlarge", None, 1),
    E2ERow("ycsb_storm_small", "primo", "ycsb", "small", None, 0,
           "standard_storm"),
)
#: Correctness fields of an end-to-end row (machine-independent, enforced).
E2E_CORRECTNESS_KEYS = ("committed", "aborted", "crash_aborted",
                        "network_messages", "final_env_now", "stale_reads")
#: Host-time fields of an end-to-end row (best of the repeats, soft-warned)
#: and the label each carries in the verdict table.
E2E_WALL_KEYS = {"wall_s": "wall clock", "load_s": "load"}
#: A wall must also grow by this many seconds to be flagged: a vectorised
#: load is under a millisecond at ``small``, where 30% is timer noise (the
#: same floor ``perf.compare`` gives ``setup_s``).
WALL_FLOOR_S = 0.05


def _arrival_stamp(arrival) -> str:
    if arrival is None:
        return "closed"
    rate = arrival.get("rate_tps")
    return f"{arrival['kind']}@{rate:g}tps" if rate else arrival["kind"]


def run_e2e(row: E2ERow, traced: bool = False) -> dict:
    """One fixed-seed end-to-end run (perf + correctness).

    With ``traced`` the run happens under tracemalloc and the sample gains
    ``mem_peak_mb``; its walls are *not* recorded (tracing roughly doubles
    them).
    """
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
        load_start = time.perf_counter()
        cluster = repro.build(spec)
        start = time.perf_counter()
        result = cluster.run()
        wall_s = time.perf_counter() - start
        sample = {
            "wall_s": round(wall_s, 4),
            "load_s": round(start - load_start, 4),
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
            sample["mem_peak_mb"] = round(peak / 2**20, 1)
            for key in E2E_WALL_KEYS:
                del sample[key]
    finally:
        if traced:
            tracemalloc.stop()
    return sample


def measure_e2e(row: E2ERow, repeats: int) -> dict:
    """Best-of-``repeats`` walls plus one traced run for ``mem_peak_mb``.

    Correctness fields must not vary across any of the runs (traced
    included) — they are fixed-seed, so divergence means lost determinism.
    """
    if row.max_repeats:
        repeats = min(repeats, row.max_repeats)
    samples = [run_e2e(row) for _ in range(max(1, repeats))]
    samples.append(run_e2e(row, traced=True))
    best = samples[0]
    for sample in samples[1:]:
        for key in E2E_CORRECTNESS_KEYS:
            if best[key] != sample[key]:
                raise SystemExit(
                    f"DETERMINISM FAIL: {row.name}.{key} varied across "
                    f"repeats ({best[key]} vs {sample[key]}) — fixed-seed runs "
                    "must be reproducible within one process."
                )
        for key in E2E_WALL_KEYS:
            if key in sample:
                best[key] = min(best[key], sample[key])
    best["mem_peak_mb"] = samples[-1]["mem_peak_mb"]
    return best


def git_sha() -> str:
    """Current HEAD, with a ``-dirty`` marker when the worktree has edits.

    A baseline regenerated before committing (the normal flow: measure, then
    commit code + baseline together) is stamped ``<parent-sha>-dirty``.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
        if out.returncode != 0:
            return "unknown"
        sha = out.stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
        if status.returncode == 0 and status.stdout.strip():
            sha += "-dirty"
        return sha
    except (OSError, subprocess.SubprocessError):
        # Includes TimeoutExpired: the stamp degrades, the gate never dies
        # over metadata.
        return "unknown"


def measure(repeats: int, rows: Optional[tuple] = None,
            include_micro: bool = True) -> dict:
    samples: dict = {"micro": {}}
    if include_micro:
        for name, (fn, n) in MICRO_BENCHMARKS.items():
            best = 0.0
            for _ in range(repeats):
                start = time.perf_counter()
                fn(n)
                elapsed = time.perf_counter() - start
                best = max(best, n / elapsed)
            samples["micro"][name] = {"ops_per_s": round(best, 1), "n": n}
            print(f"  {name:<16} {best:>14,.0f} ops/s")
    for e2e_row in (rows if rows is not None else E2E_ROWS):
        row = measure_e2e(e2e_row, repeats)
        samples[e2e_row.name] = row
        print(
            f"  {e2e_row.name:<20} {row['wall_s']:>12.3f} s  "
            f"(+{row['load_s']:.3f} s load)  "
            f"{row['mem_peak_mb']:>8.1f} MB peak   "
            f"(committed={row['committed']}, aborted={row['aborted']}, "
            f"arrival={row['arrival']})"
        )
    return samples


def check(current: dict, baseline: dict, tolerance: float,
          enforce_memory: bool = False) -> tuple[int, list[str]]:
    """Compare a fresh measurement against the committed baseline.

    Returns ``(exit_code, summary_lines)``; the exit code is non-zero only
    for correctness mismatches — and, with ``enforce_memory``, for memory
    ceilings blown beyond ``tolerance`` — and the summary lines are Markdown
    rows for the optional step summary.
    """
    failures = 0
    summary: list[str] = [
        "### Substrate bench gate",
        "",
        "| check | status |",
        "| --- | --- |",
    ]
    for row in E2E_ROWS:
        row_name = row.name
        if row_name not in current:
            continue  # filtered out with --rows
        stamp = _arrival_stamp(row.arrival)
        base_row = baseline.get(row_name)
        cur_row = current[row_name]
        if base_row is None:
            print(f"correctness: {row_name} has no baseline row (new) — skipping")
            summary.append(
                f"| `{row_name}` ({stamp}) correctness | ➕ no baseline row (new) |"
            )
            continue
        row_failures = 0
        for key in E2E_CORRECTNESS_KEYS:
            if base_row.get(key) != cur_row[key]:
                failures += 1
                row_failures += 1
                print(
                    f"CORRECTNESS FAIL: {row_name}.{key} = {cur_row[key]}, "
                    f"baseline has {base_row.get(key)} — simulation semantics "
                    "changed. If intentional, regenerate BENCH_substrate.json "
                    "in this commit."
                )
        if row_failures:
            summary.append(
                f"| `{row_name}` ({stamp}) correctness | ❌ **{row_failures} field(s) drifted** |"
            )
        else:
            print(f"correctness: {row_name} OK (counts, message totals and final clock match)")
            summary.append(f"| `{row_name}` ({stamp}) correctness | ✅ match |")
        for key, label in E2E_WALL_KEYS.items():
            base_wall = base_row.get(key)
            if not base_wall:
                continue  # a baseline older than the field
            ratio = base_wall / cur_row[key] if cur_row[key] else 1.0
            regressed = (ratio < 1.0 - tolerance
                         and cur_row[key] - base_wall > WALL_FLOOR_S)
            if regressed:
                status, marker = "REGRESSION (soft)", "⚠️ **soft regression**"
            else:
                status, marker = "ok", "✅"
            print(f"perf: {row_name:<20} {ratio:6.2f}x {label} vs baseline "
                  f"({cur_row[key]} s vs {base_wall} s) — {status}")
            summary.append(f"| `{row_name}` ({stamp}) {label} | {marker} {ratio:.2f}x vs baseline |")
        base_mem = base_row.get("mem_peak_mb")
        cur_mem = cur_row.get("mem_peak_mb")
        if base_mem and cur_mem:
            # Memory verdict.  tracemalloc peaks are far more machine-stable
            # than wall clock (they count Python-allocator bytes, not time),
            # so a blown ceiling is meaningful anywhere — but still soft by
            # default; --enforce-memory (the bench-gate CI job) hardens it.
            mem_ratio = cur_mem / base_mem
            regressed = mem_ratio > 1.0 + tolerance
            if regressed and enforce_memory:
                failures += 1
                status = "MEMORY CEILING EXCEEDED (enforced)"
                marker = "❌ **memory ceiling exceeded**"
                print(
                    f"MEMORY FAIL: {row_name} peaked at {cur_mem} MB, "
                    f"baseline ceiling is {base_mem} MB (+{tolerance:.0%} "
                    "tolerance). If the growth is intentional, regenerate "
                    "BENCH_substrate.json in this commit."
                )
            elif regressed:
                status, marker = "REGRESSION (soft)", "⚠️ **soft regression**"
            else:
                status, marker = "ok", "✅"
            print(
                f"mem:  {row_name:<20} {mem_ratio:6.2f}x peak vs baseline "
                f"({cur_mem} MB vs {base_mem} MB) — {status}"
            )
            summary.append(
                f"| `{row_name}` ({stamp}) memory peak | {marker} "
                f"{mem_ratio:.2f}x vs baseline ({cur_mem} MB vs {base_mem} MB) |"
            )

    base_micro = baseline.get("micro", {})
    for name, sample in current["micro"].items():
        base = base_micro.get(name)
        if not base:
            print(f"perf: {name} has no baseline sample (new benchmark) — skipping")
            summary.append(f"| `{name}` | ➕ no baseline sample |")
            continue
        ratio = sample["ops_per_s"] / base["ops_per_s"] if base["ops_per_s"] else 1.0
        regressed = ratio < 1.0 - tolerance
        if regressed:
            status, marker = "REGRESSION (soft)", "⚠️ **soft regression**"
        else:
            status, marker = "ok", "✅"
        print(f"perf: {name:<16} {ratio:6.2f}x vs baseline — {status}")
        summary.append(f"| `{name}` | {marker} {ratio:.2f}x vs baseline |")
    summary.append("")
    summary.append(
        "Perf and memory ratios are advisory (soft warnings) unless "
        "`--enforce-memory` is set; correctness rows are always enforced."
    )
    return (1 if failures else 0), summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baseline instead of overwriting it")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"baseline file (default: {DEFAULT_OUTPUT.name})")
    parser.add_argument("--repeats", type=int, default=3,
                        help="measurement repeats per benchmark (best-of)")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional perf regression before warning (default 0.30)")
    parser.add_argument("--summary", type=Path, default=None,
                        help="append a Markdown check summary to this file "
                             "(default: $GITHUB_STEP_SUMMARY when set)")
    parser.add_argument("--rows", type=str, default=None,
                        help="comma-separated end-to-end row names to measure "
                             "(skips the micro benches; default: all rows)")
    parser.add_argument("--enforce-memory", action="store_true",
                        help="fail (not just warn) when an end-to-end row's "
                             "mem_peak_mb exceeds the baseline by --tolerance")
    args = parser.parse_args()

    rows = None
    if args.rows is not None:
        wanted = [name.strip() for name in args.rows.split(",") if name.strip()]
        by_name = {row.name: row for row in E2E_ROWS}
        unknown = sorted(set(wanted) - set(by_name))
        if unknown:
            parser.error(
                f"unknown --rows name(s) {', '.join(unknown)}; "
                f"known rows: {', '.join(by_name)}"
            )
        rows = tuple(by_name[name] for name in wanted)

    print(f"bench_gate: measuring substrate benchmarks (best of {args.repeats})")
    current = {
        "schema_version": SCHEMA_VERSION,
        "git_sha": git_sha(),
        "generated_at": datetime.datetime.now(datetime.timezone.utc)
                                         .isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        **measure(args.repeats, rows=rows, include_micro=rows is None),
    }

    if args.check:
        if not args.output.exists():
            if rows is not None:
                raise SystemExit(
                    f"no baseline at {args.output} — a --rows subset cannot "
                    "seed one (it would commit a partial baseline)"
                )
            print(f"no baseline at {args.output} — writing one instead of checking")
            args.output.write_text(json.dumps(current, indent=2) + "\n")
            return 0
        baseline = json.loads(args.output.read_text())
        code, summary_lines = check(current, baseline, args.tolerance,
                                    enforce_memory=args.enforce_memory)
        summary_path = args.summary
        if summary_path is None and os.environ.get("GITHUB_STEP_SUMMARY"):
            summary_path = Path(os.environ["GITHUB_STEP_SUMMARY"])
        if summary_path is not None:
            with open(summary_path, "a", encoding="utf-8") as fh:
                fh.write("\n".join(summary_lines) + "\n")
            print(f"wrote check summary to {summary_path}")
        return code

    if rows is not None:
        raise SystemExit(
            "--rows without --check would overwrite the committed baseline "
            "with a partial measurement; regenerate the full file instead"
        )
    args.output.write_text(json.dumps(current, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
