"""The four benchmark workloads: names and the specs they generate.

Why each exists is recorded once, in ``BENCHMARK.json`` (``--list`` prints it).

A workload is a function of ``(seed, scale)``: the seed reaches the program
only as ``config_overrides["seed"]`` of the generated ``ScenarioSpec``.
``tiny=True`` gives the same scenario shape at the ``tiny`` scale preset — the
untimed warm pass and the harness tests use it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

__all__ = ["WORKLOADS", "Workload"]

#: Offered load of the open-loop storm per closed-loop-equivalent client:
#: 176k tps at scale ``small`` (16 clients), ~0.8x of ycsb_primo's saturation
#: (the bench gate's ycsb_openloop_small rate).
_STORM_RATE_TPS_PER_CLIENT = 11_000.0
#: The storm needs this long a window at any scale: a leader flap's ~20 ms
#: recovery quiesce would swallow a shorter one whole.
_STORM_DURATION_US = 60_000.0


class Workload(NamedTuple):
    name: str
    #: (repro, seed, tiny) -> ScenarioSpec
    spec: Callable
    #: Fault-free workloads record one latency sample per commit; the storm
    #: loses samples to crash aborts, so the invariant is skipped there.
    fault_free: bool = True


def _overrides(seed: int, tiny: bool, **timed) -> dict:
    """Config overrides: the seed always, duration overrides only at full size."""
    overrides = {"seed": int(seed)}
    if not tiny:
        overrides.update(timed)
    return overrides


def _ycsb_primo(repro, seed, tiny):
    return repro.ScenarioSpec(
        protocol="primo", durability="wm", workload="ycsb",
        scale="tiny" if tiny else "small",
        # Workload defaults: theta=0.6, 50% writes, 20% distributed.
        config_overrides=_overrides(seed, tiny, duration_us=30_000.0),
    )


def _tpcc_primo(repro, seed, tiny):
    return repro.ScenarioSpec(
        protocol="primo", durability="wm", workload="tpcc",
        scale="tiny" if tiny else "small",
        config_overrides=_overrides(seed, tiny),
    )


def _ycsb_sundial_1m(repro, seed, tiny):
    return repro.ScenarioSpec(
        protocol="sundial", durability="coco", workload="ycsb",
        scale="tiny" if tiny else "xlarge",
        workload_overrides={"distributed_pct": 1.0},
        config_overrides=_overrides(seed, tiny, duration_us=10_000.0),
    )


def _ycsb_primo_storm(repro, seed, tiny):
    scale = repro.SCALES["tiny" if tiny else "small"]
    clients = 4 * scale.workers_per_partition * scale.inflight_per_worker
    base = _ycsb_primo(repro, seed, tiny)
    return base.derive(
        arrival={"kind": "poisson",
                 "rate_tps": _STORM_RATE_TPS_PER_CLIENT * clients},
        faults=repro.FaultPlan(events=tuple(
            repro.standard_storm(scale.warmup_us, _STORM_DURATION_US))),
        duration_us=_STORM_DURATION_US,
        # The fast failure detector, so the leader flaps recover inside the
        # window (what the storm figure and the bench gate's storm row use).
        heartbeat_interval_us=500.0,
        heartbeat_timeout_us=2_000.0,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ycsb_primo", _ycsb_primo),
        Workload("tpcc_primo", _tpcc_primo),
        Workload("ycsb_sundial_1m", _ycsb_sundial_1m),
        Workload("ycsb_primo_storm", _ycsb_primo_storm, fault_free=False),
    )
}
