"""One workload, measured in one fresh single-threaded process.

``python -m perf.run`` starts this module once per workload so that peak RSS
and import state belong to that workload alone.  The pass protocol: one
untimed ``tiny`` warm pass (imports, pyc, lazy tables), then timed passes —
``gc.collect()``, ``t0``, ``repro.build(spec)``, ``t1``, ``cluster.run()``,
``t2``, fingerprint, drop every reference — until ``--seconds`` have been
measured (never fewer than :data:`MIN_PASSES`).  With ``--trace 1`` three
attribution passes and the layer drives follow in the same process; no
end-to-end number ever comes from them.

The last line of standard output is the workload's result document (JSON).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Optional

from .drives import run_drives
from .layers import LAYERS, LayerMap
from .trace import CallProfile, MemTrace, Sampler, Spans, Tracer
from .workloads import WORKLOADS

__all__ = ["MIN_PASSES", "measure", "summarize", "main"]

#: Fewer timed passes than this and their median and quartiles mean little
#: on a host whose speed drifts on a tens-of-seconds scale.
MIN_PASSES = 5
OUT_DIR = Path(__file__).resolve().parent / "out"

#: name -> ((layer, qualified-name pattern), ...): exact call counters read
#: from the cProfile pass.  For a generator function a "call" is an entry
#: (the first call or a resume).
CALL_COUNTERS = {
    "sim.engine.timeouts_per_commit": (("sim.engine", "Environment.timeout"),),
    "sim.engine.processes_per_commit": (("sim.engine", "Environment.process"),),
    "sim.engine.resumes_per_commit": (("sim.engine", "Process._resume"),),
    "storage.gets_per_commit": (("storage.columnar", "ColumnarTable.get"),
                                ("storage.table", "Table.get")),
    "storage.lock.acquires_per_commit": (("storage.lock", "LockManager.acquire_nowait"),
                                         ("storage.lock", "LockManager.try_acquire")),
    "storage.lock.releases_per_commit": (("storage.lock", "LockManager.release"),),
    "workloads.specs_per_commit": (("workloads", "*Source.next"),),
    "commit.log_appends_per_commit": (("commit", "LogManager.append"),),
    "commit.flushes_per_commit": (("commit", "LogManager.flush"),),
    "replication.replicates_per_commit": (("replication", "ReplicationGroup.replicate"),),
    "sim.stats.records_per_commit": (("sim.stats", "LatencyRecorder.record"),),
}
SETUP_SHARE_LAYERS = ("scenario", "workloads", "storage.columnar", "sim.randgen")
ALLOC_LAYERS = ("storage.columnar", "storage.table", "workloads", "commit",
                "replication", "sim.stats")
BREAKDOWN_COMPONENTS = ("execute", "2pc", "commit", "backoff", "return")


def summarize(values, better: str = "lower") -> dict:
    """Median, quartiles (``statistics.quantiles(values, n=4)``), n and best pass.

    The median is the reported value; the quartiles say how noisy the run
    was.  ``best`` is printed beside them and judged by nothing (README,
    "Noise findings").
    """
    values = list(values)
    if len(values) < 2:
        q1 = q3 = median = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    best = min(values) if better == "lower" else max(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "best": best}


def fingerprint(cluster, result) -> dict:
    """The simulated statistics that a pure host-side speed-up must not move."""
    metrics = result.metrics
    return {
        "committed": metrics.committed,
        "aborted": metrics.aborted,
        "crash_aborted": metrics.crash_aborted,
        "network_messages": result.network_messages,
        "final_now_us": cluster.env.now,
        "p50_latency_ms": result.p50_latency_ms,
        "p99_latency_ms": result.p99_latency_ms,
        "counters": metrics.counters.as_dict(),
        "abort_reasons": dict(result.abort_reasons),
    }


def model_metrics(result) -> dict:
    """Simulated-time statistics (exact functions of seed and code)."""
    breakdown = result.breakdown_us
    depth = result.degradation_depth
    recovery = result.time_to_90pct_recovery_us
    counters = result.metrics.counters
    values = {
        "model.throughput_ktps": result.throughput_ktps,
        "model.p50_latency_ms": result.p50_latency_ms,
        "model.p99_latency_ms": result.p99_latency_ms,
        "model.abort_rate": result.abort_rate,
        "model.crash_aborted": result.metrics.crash_aborted,
        "model.stale_reads": counters.get("stale_reads"),
        "model.arrivals_dropped": counters.get("arrivals_dropped"),
        # Fault-free runs record no timeline: no dip, nothing to recover from.
        "model.degradation_depth": 0.0 if depth is None else depth,
        "model.recovery_us": 0.0 if recovery is None else recovery,
    }
    for component in BREAKDOWN_COMPONENTS:
        values[f"model.{component}_us"] = breakdown.get(component, 0.0)
    return values


def run_pass(api, spec, pass_id: int, kind: str, spans: Spans,
             tracer: Optional[Tracer] = None, check_latency: bool = True) -> dict:
    """One pass of the protocol; returns its record (``ok`` False on any failure)."""
    tracer = tracer or Tracer()
    record = {"id": pass_id, "kind": kind, "ok": False}
    gc.collect()
    try:
        tracer.before_setup()
        try:
            t0 = time.perf_counter()
            cluster = api.build(spec)
            t1 = time.perf_counter()
            tracer.before_run()
            result = cluster.run()
            t2 = time.perf_counter()
        finally:
            tracer.after_run()
        fp = fingerprint(cluster, result)
        committed = fp["committed"]
        samples = result.metrics.latency.count
        if committed <= 0:
            raise AssertionError("no transaction committed")
        if check_latency and abs(samples - committed) > 0.01 * committed:
            raise AssertionError(
                f"{samples} latency samples for {committed} commits")
        record.update(ok=True, setup_s=t1 - t0, run_s=t2 - t1, fingerprint=fp,
                      model=model_metrics(result))
        t3 = time.perf_counter()
        spans.add("pass", t0, t3, pass_id)
        spans.add("setup", t0, t1, pass_id, parent="pass")
        spans.add("run", t1, t2, pass_id, parent="pass")
        spans.add("report", t2, t3, pass_id, parent="pass")
    except Exception as exc:  # a failed pass is counted, not fatal
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return record


def measure(api, spec, *, seconds: float, passes: Optional[int], spans: Spans,
            check_latency: bool = True) -> list:
    """The timed passes: until ``seconds`` are measured, or exactly ``passes``."""
    records: list = []
    started = time.perf_counter()

    def done() -> bool:
        if passes is not None:
            return len(records) >= passes
        return (len(records) >= MIN_PASSES
                and time.perf_counter() - started >= seconds)

    while not done():
        records.append(run_pass(api, spec, len(records) + 1, "timed", spans,
                                check_latency=check_latency))
    return records


def check_fingerprints(records: list) -> None:
    """Mark every pass whose simulated statistics differ from pass 1's."""
    reference = next((r["fingerprint"] for r in records if r["ok"]), None)
    for record in records:
        if record["ok"] and record["fingerprint"] != reference:
            record["ok"] = False
            record["error"] = "simulated statistics differ from pass 1"


def end_to_end(records: list) -> dict:
    """The end-to-end metrics, from the timed passes that succeeded."""
    good = [r for r in records if r["ok"] and r["kind"] == "timed"]
    if not good:
        return {}
    return {
        "setup_s": summarize(r["setup_s"] for r in good),
        "run_wall_s": summarize(r["run_s"] for r in good),
        "commits_per_host_s": summarize(
            (r["fingerprint"]["committed"] / r["run_s"] for r in good), "higher"),
        # Peak RSS after timed pass 1: this process has run nothing else yet.
        "rss_peak_mb": summarize([records[0]["rss_mb"]]),
    }


def traced_passes(api, spec, records: list, spans: Spans, layer_map: LayerMap,
                  check_latency: bool) -> tuple[dict, dict, dict]:
    """Sampler, cProfile and tracemalloc passes plus the drives.

    Returns ``(per-layer metrics, notes on missing ones, layers.json content)``;
    appends the three pass records to ``records``.
    """
    timed = [r for r in records if r["ok"]]
    run_wall = statistics.median(r["run_s"] for r in timed)  # what run_wall_s reports
    fp = timed[0]["fingerprint"]
    committed = fp["committed"]
    metrics: dict = dict(timed[0]["model"])
    notes: dict = {}

    def traced(kind, tracer):
        record = run_pass(api, spec, len(records) + 1, kind, spans, tracer,
                          check_latency)
        records.append(record)
        return record

    sampler = Sampler(layer_map)
    sampled = traced("sampler", sampler)
    run_shares, setup_shares = sampler.shares("run"), sampler.shares("setup")
    for layer in sorted(set(LAYERS) | set(run_shares)):
        share = run_shares.get(layer, 0.0)
        metrics[f"{layer}.self_share"] = share
        metrics[f"{layer}.self_us_per_commit"] = share * run_wall / committed * 1e6
    for layer in SETUP_SHARE_LAYERS:
        metrics[f"setup.{layer}.self_share"] = setup_shares.get(layer, 0.0)

    profile = CallProfile(layer_map)
    profiled = traced("cprofile", profile)
    for layer in sorted(set(LAYERS) | set(profile.calls)):
        metrics[f"{layer}.calls_per_commit"] = profile.calls.get(layer, 0) / committed
        metrics[f"{layer}.entries_per_commit"] = profile.entries.get(layer, 0) / committed
    for name, targets in CALL_COUNTERS.items():
        counts = [profile.function_calls(layer, pattern) for layer, pattern in targets]
        found = [count for count in counts if count is not None]
        if found:
            metrics[name] = sum(found) / committed
        else:
            notes[name] = "unresolved: no profiled function matches " + ", ".join(
                f"{layer}:{pattern}" for layer, pattern in targets)
    attempts = fp["committed"] + fp["aborted"] + fp["crash_aborted"]
    metrics["sim.network.messages_per_commit"] = fp["network_messages"] / committed
    metrics["txn.attempts_per_commit"] = attempts / committed
    metrics["txn.abort_share"] = fp["aborted"] / (fp["committed"] + fp["aborted"])
    metrics["total.calls_per_commit"] = profile.total_calls / committed
    if sampled["ok"]:
        metrics["total.sampler_overhead_ratio"] = sampled["run_s"] / run_wall
    if profiled["ok"]:
        metrics["total.profile_overhead_ratio"] = profiled["run_s"] / run_wall

    memory = MemTrace(layer_map)
    traced("tracemalloc", memory)
    metrics["mem.traced_peak_mb"] = memory.peak_mb
    for layer in ALLOC_LAYERS:
        metrics[f"{layer}.alloc_mb"] = memory.alloc_mb.get(layer, 0.0)

    t0 = time.perf_counter()
    drive_values, drive_errors = run_drives(api.build(spec))
    spans.add("drives", t0, time.perf_counter(), 0)
    metrics.update(drive_values)
    notes.update(drive_errors)

    layers_doc = {
        "run_self_share": run_shares,
        "setup_self_share": setup_shares,
        "samples": sampler.samples,
        "alloc_mb": memory.alloc_mb,
        "edges": [
            {"caller": caller, "callee": callee, "calls": calls,
             "cumulative_s": cumulative}
            for (caller, callee), (calls, cumulative) in sorted(profile.edges.items())
        ],
    }
    return metrics, notes, layers_doc


def run_workload(api, name: str, seed: int, *, seconds: float,
                 passes: Optional[int], trace: bool, tiny: bool,
                 package_dir: str) -> dict:
    """Warm pass, timed passes, optional traced passes: the result document."""
    workload = WORKLOADS[name]
    spans = Spans()
    # Untimed warm pass at tiny scale: imports, pyc, lazy tables.  It is not a
    # measurement, so no invariant is applied to it.
    api.build(workload.spec(api, seed, True)).run()
    check_latency = workload.fault_free
    spec = workload.spec(api, seed, tiny)
    records = measure(api, spec, seconds=seconds, passes=passes, spans=spans,
                      check_latency=check_latency)
    document = {
        "workload": name,
        "seed": seed,
        "scale": "tiny" if tiny else "full",
        "python": platform.python_version(),
        "engine_backend": getattr(sys.modules.get("repro.sim.engine"),
                                  "ENGINE_BACKEND", "unknown"),
    }
    # Before the traced passes, so that no per-layer number comes from a timed
    # pass whose simulated statistics diverged; again after them, to judge them.
    check_fingerprints(records)
    if trace and any(r["ok"] for r in records):
        per_layer, notes, layers_doc = traced_passes(
            api, spec, records, spans, LayerMap(package_dir), check_latency)
        document.update(per_layer=per_layer, notes=notes)
        OUT_DIR.mkdir(exist_ok=True)
        spans.write_chrome_trace(OUT_DIR / f"trace-{name}.json", f"perf {name}")
        with open(OUT_DIR / f"layers-{name}.json", "w", encoding="utf-8") as handle:
            json.dump(layers_doc, handle, indent=1)
    check_fingerprints(records)
    reference = next((r for r in records if r["ok"]), None)
    document.update(
        attempted=len(records),
        failed=sum(not r["ok"] for r in records),
        fingerprint=reference["fingerprint"] if reference else None,
        end_to_end=end_to_end(records),
        passes=[{k: v for k, v in r.items() if k not in ("fingerprint", "model")}
                for r in records],
    )
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf.harness", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--passes", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the tiny-scale variant (harness tests)")
    args = parser.parse_args(argv)

    # The kernel is pinned before the first import of repro: the benchmark's
    # numbers must not depend on whether a compiled extension happens to exist.
    os.environ.setdefault("REPRO_ENGINE", "py")
    try:
        import repro
    except ImportError as exc:
        print(f"perf: cannot import repro with REPRO_ENGINE="
              f"{os.environ['REPRO_ENGINE']}: {exc}", file=sys.stderr)
        return 2
    document = run_workload(
        repro, args.workload, args.seed, seconds=args.seconds,
        passes=args.passes, trace=bool(args.trace), tiny=args.tiny,
        package_dir=os.path.dirname(os.path.abspath(repro.__file__)))
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
