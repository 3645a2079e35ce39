"""The repo's benchmark: ``python -m perf.run``.

Runs the named workloads one after another, each in a fresh single-threaded
``perf.harness`` process with the pure-Python kernel pinned, prints every
metric by name with its unit, direction and bound, checks the outputs, and
(``--out``) writes one JSON document ``perf.compare`` understands.

After each workload the last line printed is its result object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

holding every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``; the value
is the median of the timed passes) or every per-layer metric (``--trace 1``; a
metric that could not be resolved reads -1 and is explained on standard
error).  Failed passes are reported there (``correct`` false, ``failed`` > 0);
the exit code is non-zero only when a workload could not be measured at all.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Child processes get this long; the benchmark contract allows 180 s per run.
CHILD_TIMEOUT_S = 170
#: What a missing per-layer value reads as in the result object.
UNRESOLVED = -1


def load_catalogue() -> dict:
    """``BENCHMARK.json``: workloads, metric names, units, directions, bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def run_child(name: str, args) -> dict:
    """One workload in a fresh process; its result document, or {} when the
    process failed or ran out of time (said on standard error)."""
    command = [sys.executable, "-m", "perf.harness", "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.passes is not None:
        command += ["--passes", str(args.passes)]
    if args.tiny:
        command.append("--tiny")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["REPRO_ENGINE"] = args.engine
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"perf: workload {name} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return {}
    if done.returncode != 0:
        print(f"perf: workload {name} failed (exit {done.returncode})", file=sys.stderr)
        return {}
    return json.loads(done.stdout.strip().splitlines()[-1])


def print_listing(catalogue: dict) -> None:
    print("workloads:")
    for workload in catalogue["workloads"]:
        print(f"  {workload['name']}: {workload['why']}")
    print("end-to-end metrics (per workload, median of the timed passes; bound = "
          "share of the parent's median it may worsen by):")
    for metric in catalogue["end_to_end"]:
        print(f"  {metric['name']} [{metric['unit']}] better={metric['better']} "
              f"bound={metric['bound']}")
    print("per-layer metrics (--trace 1; no bound):")
    for metric in catalogue["per_layer"]:
        print(f"  {metric['name']} [{metric['unit']}] better={metric['better']}")


def report(document: dict, catalogue: dict, trace: int) -> dict:
    """Print one workload's metrics; returns the result object (empty when
    no pass succeeded, so there is nothing to report)."""
    name = document["workload"]
    print(f"== {name}  seed={document['seed']}  engine={document['engine_backend']}  "
          f"python={document['python']}  passes={document['attempted']} "
          f"(failed {document['failed']})")
    for record in document["passes"]:
        if not record["ok"]:
            print(f"   pass {record['id']} ({record['kind']}) FAILED: {record['error']}")
    print("   simulated statistics: " + json.dumps(document["fingerprint"], sort_keys=True))
    end_to_end = document["end_to_end"]
    if not end_to_end:
        print(f"   no pass of {name} succeeded; no result")
        return {}
    for metric in catalogue["end_to_end"]:
        stats = end_to_end[metric["name"]]
        print(f"   {metric['name']:<22} {stats['median']:>12.4f} {metric['unit']:<5} "
              f"better={metric['better']:<6} bound={metric['bound']:<5} "
              f"q1={stats['q1']:.4f} q3={stats['q3']:.4f} n={stats['n']} "
              f"best={stats['best']:.4f}")
    metrics = {}
    if trace:
        values, notes = document["per_layer"], document["notes"]
        for metric in catalogue["per_layer"]:
            value = values.get(metric["name"], UNRESOLVED)
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(f"   {metric['name']:<38} {value:>14.4f} {metric['unit']:<6} "
                  f"better={metric['better']}")
        extra = sorted(set(values) - set(metrics))
        if extra:
            print("   layers outside the catalogue: " + ", ".join(
                f"{key}={values[key]:.4f}" for key in extra))
        for key, note in sorted(notes.items()):
            print(f"perf: {name}: {key}: {note}", file=sys.stderr)
    else:
        for metric in catalogue["end_to_end"]:
            metrics[metric["name"]] = {
                "value": end_to_end[metric["name"]]["median"], "unit": metric["unit"]}
    return {"correct": document["failed"] == 0, "attempted": document["attempted"],
            "failed": document["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf.run", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", default=None,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of timed passes per workload; the PR "
                             "driver passes BENCHMARK.json's run_seconds, "
                             "which is also the default")
    parser.add_argument("--passes", type=int, default=None,
                        help="exactly this many timed passes (quick local runs)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add the attribution passes")
    parser.add_argument("--engine", choices=("py", "c"), default="py",
                        help="scheduler kernel (c fails loudly when not built)")
    parser.add_argument("--out", default=None, help="write the JSON document here")
    parser.add_argument("--list", action="store_true",
                        help="print workloads and metrics, run nothing")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perf: {ROOT} holds no src/repro and BENCHMARK.json to measure",
              file=sys.stderr)
        return 2
    catalogue = load_catalogue()
    if args.list:
        print_listing(catalogue)
        return 0
    known = [w["name"] for w in catalogue["workloads"]]
    names = args.workload or known
    for name in names:
        if name not in known:
            parser.error(f"unknown workload {name!r}; choose from {', '.join(known)}")
    if args.passes is not None and args.passes < 1:
        parser.error("--passes must be at least 1")
    if args.seconds is None:
        args.seconds = float(catalogue["run_seconds"])

    started = time.perf_counter()
    print(f"perf: {len(names)} workload(s), ~{args.seconds:g} s of timed passes each"
          f"{' plus attribution passes' if args.trace else ''}; at most "
          f"{CHILD_TIMEOUT_S} s per workload", file=sys.stderr)
    output = {"git_sha": git_sha(), "engine": args.engine, "seed": args.seed,
              "trace": args.trace, "workloads": {}}
    status = 0
    for name in names:
        document = run_child(name, args)
        result = report(document, catalogue, args.trace) if document else {}
        if document:
            output["workloads"][name] = document
        if result:
            print(json.dumps(result))
        else:
            status = 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(output, handle, indent=1)
    print(f"perf: done in {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
