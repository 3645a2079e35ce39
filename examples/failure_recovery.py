#!/usr/bin/env python3
"""Failure and recovery demo: what happens when a partition leader crashes.

Declares the crash as a :class:`repro.FaultPlan` event on the scenario
(``faults=[...]``), then uses
:func:`repro.build` (rather than :func:`repro.run`) to keep a handle on the
cluster, so the post-run recovery state of §5.2 can be inspected: failure
detection by the membership service, leader re-election, watermark agreement
(every partition publishes its latest partition watermark, the maximum wins),
rollback of the transactions above the agreed watermark, and resumption of
normal processing.

Run with:  python examples/failure_recovery.py
"""

import repro
from repro.sim.stats import COUNTERS


def main() -> None:
    spec = repro.ScenarioSpec(
        protocol="primo",
        workload="ycsb",
        scale="small",
        config_overrides={
            "n_partitions": 4,
            "workers_per_partition": 2,
            "inflight_per_worker": 2,
            "duration_us": 60_000.0,
            "warmup_us": 10_000.0,
            "epoch_length_us": 5_000.0,
            "heartbeat_interval_us": 1_000.0,
            "heartbeat_timeout_us": 5_000.0,
        },
        workload_overrides={"keys_per_partition": 10_000},
        # Kill partition 2's leader at t = 40 ms; see `--list faults` for the
        # other registered fault kinds (delay windows, partitions, skew, ...).
        faults=[repro.fault("crash", at_us=40_000.0, target=2)],
    )
    cluster = repro.build(spec)
    result = cluster.run()

    print("Primo run with a partition-leader crash at t = 40 ms")
    print("-" * 72)
    print(f"committed transactions       : {result.committed}")
    print(f"aborted (conflict) attempts  : {result.aborted}")
    print(f"crash-induced aborts         : {result.metrics.crash_aborted}")
    print(f"crash-abort rate             : {result.crash_abort_rate:.2%}")
    print(f"throughput                   : {result.throughput_ktps:.1f} kTPS")
    print()
    print("Run counters (whole run; meanings from repro.sim.stats.COUNTERS)")
    print("-" * 72)
    for name, value in sorted(result.metrics.counters.as_dict().items()):
        if value:
            print(f"{name:<27}: {value:>8}  {COUNTERS[name]}")
    print()
    print("Recovery protocol trace")
    print("-" * 72)
    term = cluster.membership.current_term
    print(f"recovery TERM-ID             : {term}")
    print(f"published partition marks    : {cluster.membership.published_watermarks(term)}")
    print(f"agreed global watermark      : {cluster.membership.agreed_global_watermark(term)}")
    print()
    print("Transactions whose results had already been returned (ts below the")
    print("agreed watermark) survive the crash; everything above it is rolled")
    print("back and the partition resumes with a consistent prefix (§5.2).")


if __name__ == "__main__":
    main()
