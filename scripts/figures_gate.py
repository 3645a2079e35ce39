#!/usr/bin/env python
"""Figure-orchestrator gate: cached, pooled and inline cells must agree.

The orchestrator (``repro.bench.orchestrator``) promises that a cell returns
bit-identical commit/abort counts whether it is simulated inline, in a pool
worker, or served from the on-disk cache — and that a warm cache executes
zero new simulations.  This gate proves both on a couple of representative
figures:

1. plan the cells of the chosen figures at the chosen scale;
2. run them **inline** (``jobs=1``) with no cache — the reference results;
3. run them through a **process pool** (``--jobs``, default 2) into a fresh
   cache directory — every cell must match the reference exactly and the
   sweep must report ``executed == unique cells, cache_hits == 0``;
4. run them again against the now-**warm cache** — the sweep must report
   ``executed == 0`` and every result must still match the reference.

Exit status is non-zero on any mismatch.  Run it after touching the bench,
cluster or sim layers; CI runs it in the ``figures-smoke`` job.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.experiments import FIGURES  # noqa: E402
from repro.bench.orchestrator import ResultCache, run_cells  # noqa: E402
from repro.scales import SCALES, TINY_SCALE  # noqa: E402

#: Small but representative default: a knob sweep (blind writes) and a
#: durability-scheme matrix, covering workload and config overrides.
DEFAULT_FIGURES = ("fig09", "fig11")

#: Tiny scale so the gate finishes in well under a minute.
GATE_SCALE = TINY_SCALE


def fingerprint(result) -> tuple:
    """The fields that must be bit-identical across execution paths."""
    return (
        result.committed,
        result.aborted,
        result.metrics.crash_aborted,
        result.network_messages,
        tuple(result.metrics.latency.samples),
        tuple(sorted(result.abort_reasons.items())),
    )


def compare(reference: dict, candidate: dict, label: str) -> int:
    failures = 0
    for cell, ref in reference.items():
        got = candidate[cell]
        if fingerprint(ref) != fingerprint(got):
            failures += 1
            print(
                f"GATE FAIL [{label}] {cell.cell_id}: "
                f"committed/aborted {got.committed}/{got.aborted} "
                f"!= reference {ref.committed}/{ref.aborted} "
                "(or latency/message streams differ)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--figures", nargs="+", default=list(DEFAULT_FIGURES),
        choices=sorted(FIGURES), metavar="FIG",
        help=f"figures to check (default: {' '.join(DEFAULT_FIGURES)})",
    )
    parser.add_argument(
        "--scale", default="gate", choices=["gate"] + sorted(SCALES),
        help="bench scale (default: a tiny gate-only scale)",
    )
    parser.add_argument(
        "--jobs", type=int, default=2,
        help="pool width for the parallel pass (default: 2)",
    )
    args = parser.parse_args(argv)
    scale = GATE_SCALE if args.scale == "gate" else SCALES[args.scale]

    cells = [
        cell for name in args.figures for cell in FIGURES[name].plan(scale)
    ]
    unique = len({cell.cache_key() for cell in cells})
    print(
        f"figures gate: {len(cells)} cells ({unique} unique) from "
        f"{', '.join(args.figures)} at scale {scale.name!r}"
    )

    start = time.perf_counter()
    inline = run_cells(cells, jobs=1, cache=None)
    inline_s = time.perf_counter() - start
    print(f"  inline pass: {inline.executed} simulations in {inline_s:.1f}s")

    failures = 0
    with tempfile.TemporaryDirectory(prefix="figures-gate-") as cache_dir:
        cache = ResultCache(cache_dir)

        start = time.perf_counter()
        pooled = run_cells(cells, jobs=args.jobs, cache=cache)
        pooled_s = time.perf_counter() - start
        print(
            f"  pooled pass (--jobs {args.jobs}): {pooled.executed} simulations "
            f"in {pooled_s:.1f}s"
        )
        if pooled.executed != unique or pooled.cache_hits != 0:
            failures += 1
            print(
                f"GATE FAIL [pool] expected {unique} executions and 0 cache "
                f"hits on a cold cache, got {pooled.executed}/{pooled.cache_hits}"
            )
        failures += compare(inline.results, pooled.results, "pool vs inline")

        cached = run_cells(cells, jobs=args.jobs, cache=cache)
        if cached.executed != 0 or cached.cache_hits != unique:
            failures += 1
            print(
                f"GATE FAIL [cache] warm cache should execute 0 simulations "
                f"and hit {unique} entries, got {cached.executed} executions "
                f"and {cached.cache_hits} hits"
            )
        else:
            print(f"  warm-cache pass: 0 simulations, {cached.cache_hits} hits")
        failures += compare(inline.results, cached.results, "cache vs inline")

    if failures:
        print(f"figures gate: {failures} failure(s)")
        return 1
    print("figures gate: OK (inline == pooled == cached, warm cache ran nothing)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
