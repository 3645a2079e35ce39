"""Compare two ``python -m perf.run --out`` documents: ``python -m perf.compare``.

One row per (workload, end-to-end metric): both medians of the timed passes
with their quartiles, n and best pass, the ratio with its base, and a verdict
from the metric's bound in ``BENCHMARK.json``:

* ``better`` / ``worse`` — the median moved by more than the bound;
* ``same`` — it did not;
* ``unresolved`` — the interquartile spread of either side's passes is wider
  than the bound, so this pair of runs cannot tell; measure again, do not
  read it as "unchanged".

``setup_s`` is tens of milliseconds on three workloads, so its bound has an
absolute floor (:data:`SETUP_FLOOR_S`).  Exact per-layer metrics (call counts
and ``model.*``) are compared with ``==``; a change in the simulated
statistics is announced with a banner, because it makes every host-time
comparison one between two different simulations.

``--selfcheck`` runs the suite twice back to back and fails unless the two
runs agree: every end-to-end median within its own bound, every exact metric
identical, no failed pass.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from .run import ROOT, load_catalogue

__all__ = ["SETUP_FLOOR_S", "verdict", "is_exact", "compare", "main"]

#: ``setup_s`` may move by this much before its relative bound applies.
SETUP_FLOOR_S = 0.05


def is_exact(name: str) -> bool:
    """Per-layer metrics that are exact functions of seed and code."""
    if name.startswith("model.") or name == "txn.abort_share":
        return True
    return name.endswith("_per_commit") and not name.endswith("self_us_per_commit")


def verdict(metric: dict, base: dict, new: dict) -> dict:
    """Judge one end-to-end metric; ``base``/``new`` hold median, q1, q3, n."""
    floor = SETUP_FLOOR_S if metric["name"] == "setup_s" else 0.0
    change = (new["median"] - base["median"]) / base["median"]
    worse_by = change if metric["better"] == "lower" else -change
    allowed = max(metric["bound"], floor / base["median"])
    too_wide = any(
        side["n"] > 1 and side["q3"] - side["q1"] > max(
            metric["bound"] * side["median"], floor)
        for side in (base, new))
    if too_wide:
        word = "unresolved"
    elif worse_by > allowed:
        word = "worse"
    elif worse_by < -allowed:
        word = "better"
    else:
        word = "same"
    return {"verdict": word, "worse_by": worse_by, "allowed": allowed,
            "ratio": new["median"] / base["median"]}


def _stats(stats: dict, unit: str) -> str:
    return (f"{stats['median']:.4g} {unit} [{stats['q1']:.4g}, {stats['q3']:.4g}] "
            f"n={stats['n']} (best {stats['best']:.4g})")


def compare(base_doc: dict, new_doc: dict, catalogue: dict) -> dict:
    """Print the comparison; returns what a caller needs to decide."""
    rows, exact_changes, simulated_changed, failed = [], [], [], 0
    for name in (w["name"] for w in catalogue["workloads"]):
        base = base_doc["workloads"].get(name)
        new = new_doc["workloads"].get(name)
        if base is None or new is None:
            continue
        failed += base["failed"] + new["failed"]
        if base["fingerprint"] != new["fingerprint"]:
            simulated_changed.append(name)
        for metric in catalogue["end_to_end"]:
            key = metric["name"]
            if key not in base["end_to_end"] or key not in new["end_to_end"]:
                continue
            b, n = base["end_to_end"][key], new["end_to_end"][key]
            judged = verdict(metric, b, n)
            rows.append({"workload": name, "metric": key, **judged})
            print(f"{name:<18} {key:<20} base {_stats(b, metric['unit'])}   "
                  f"new {_stats(n, metric['unit'])}   "
                  f"{judged['ratio']:.3f}x of {b['median']:.4g} {metric['unit']}   "
                  f"{judged['verdict']}")
        base_layers, new_layers = base.get("per_layer"), new.get("per_layer")
        if base_layers is None or new_layers is None:
            continue
        for key in sorted(set(base_layers) | set(new_layers)):
            if is_exact(key) and base_layers.get(key) != new_layers.get(key):
                exact_changes.append((name, key, base_layers.get(key), new_layers.get(key)))
    for name, key, b, n in exact_changes:
        print(f"exact metric changed: {name} {key}: {b} -> {n}")
    if simulated_changed or any(key.startswith("model.") for _, key, _, _ in exact_changes):
        print("*** SIMULATED STATISTICS CHANGED on "
              f"{', '.join(simulated_changed) or 'model.* metrics'}: the two runs "
              "simulate different things; host-time ratios above compare two "
              "different simulations ***")
    if failed:
        print(f"*** {failed} pass(es) failed across the two documents ***")
    return {"rows": rows, "exact_changes": exact_changes,
            "simulated_changed": simulated_changed, "failed": failed}


def selfcheck(args, catalogue: dict) -> int:
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    documents = []
    for label in ("a", "b"):
        path = out_dir / f"selfcheck-{label}.json"
        command = [sys.executable, "-m", "perf.run", "--trace", "1",
                   "--seed", str(args.seed), "--out", str(path)]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL)
        if done.returncode != 0:
            print(f"selfcheck: run {label} failed (exit {done.returncode})")
            return 1
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    outcome = compare(documents[0], documents[1], catalogue)
    disagree = [row for row in outcome["rows"]
                if abs(row["worse_by"]) > row["allowed"]]
    for row in disagree:
        print(f"selfcheck: {row['workload']} {row['metric']} moved "
              f"{row['worse_by']:+.1%} between two runs of the same code "
              f"(allowed {row['allowed']:.1%})")
    ok = not (disagree or outcome["exact_changes"] or outcome["simulated_changed"]
              or outcome["failed"])
    print("selfcheck: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf.compare", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("documents", nargs="*", metavar="BASE.json NEW.json")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the suite twice and require agreement")
    parser.add_argument("--seed", type=int, default=42, help="(selfcheck) workload seed")
    args = parser.parse_args(argv)
    catalogue = load_catalogue()
    if args.selfcheck:
        return selfcheck(args, catalogue)
    if len(args.documents) != 2:
        parser.error("give BASE.json and NEW.json, or --selfcheck")
    loaded = []
    for path in args.documents:
        with open(path, encoding="utf-8") as handle:
            loaded.append(json.load(handle))
    outcome = compare(loaded[0], loaded[1], catalogue)
    return 1 if any(row["verdict"] == "worse" for row in outcome["rows"]) else 0


if __name__ == "__main__":
    sys.exit(main())
