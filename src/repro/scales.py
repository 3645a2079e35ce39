"""Run-size presets shared by the scenario layer and the benchmark harness.

A :class:`BenchScale` bundles everything that makes a run bigger or smaller
without changing its semantics: simulated duration, per-partition concurrency,
and the population sizing of every registered workload.  The presets are
**registered** (:data:`repro.registry.SCALE_REGISTRY`): the built-in four
(``tiny``/``small``/``medium``/``paper``) self-register below, and extensions
add their own from one file with :func:`repro.registry.register_scale` — the
new name is immediately accepted by ``ScenarioSpec.scale``, ``--scale`` and
``--list scales``.  :data:`SCALES` is the registry.

This lives outside ``repro.bench`` so ``repro.scenario`` (which every bench
entry point is built on) can import it without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .registry import SCALE_REGISTRY, register_scale

__all__ = ["BenchScale", "SCALES", "TINY_SCALE", "resolve_scale", "sweep_values"]


@dataclass(frozen=True)
class BenchScale:
    """Run-size preset used by the experiment functions."""

    name: str
    duration_us: float
    warmup_us: float
    workers_per_partition: int
    inflight_per_worker: int
    ycsb_keys_per_partition: int
    tpcc_warehouses_per_partition: int
    tpcc_items: int
    tpcc_customers_per_district: int
    sweep_points: int  # how many points of each sweep to keep
    # Extension-workload populations (see each workload's ``scale_defaults``
    # registration).  Defaulted so pre-existing BenchScale(...) call sites
    # keep constructing.
    tatp_subscribers_per_partition: int = 20_000
    smallbank_accounts_per_partition: int = 20_000


#: Name -> BenchScale: the scale registry itself (``SCALES["small"]``,
#: ``sorted(SCALES)``, ``SCALES.values()``), externally registered presets included.
SCALES = SCALE_REGISTRY

_PRESETS = {
    "small": BenchScale(
        name="small",
        duration_us=20_000.0,
        warmup_us=5_000.0,
        workers_per_partition=2,
        inflight_per_worker=2,
        ycsb_keys_per_partition=10_000,
        tpcc_warehouses_per_partition=4,
        tpcc_items=200,
        tpcc_customers_per_district=30,
        sweep_points=3,
        tatp_subscribers_per_partition=5_000,
        smallbank_accounts_per_partition=5_000,
    ),
    "medium": BenchScale(
        name="medium",
        duration_us=40_000.0,
        warmup_us=10_000.0,
        workers_per_partition=3,
        inflight_per_worker=2,
        ycsb_keys_per_partition=20_000,
        tpcc_warehouses_per_partition=8,
        tpcc_items=500,
        tpcc_customers_per_district=60,
        sweep_points=4,
        tatp_subscribers_per_partition=10_000,
        smallbank_accounts_per_partition=10_000,
    ),
    "paper": BenchScale(
        name="paper",
        duration_us=100_000.0,
        warmup_us=20_000.0,
        workers_per_partition=4,
        inflight_per_worker=3,
        ycsb_keys_per_partition=100_000,
        tpcc_warehouses_per_partition=16,
        tpcc_items=2_000,
        tpcc_customers_per_district=200,
        sweep_points=6,
        tatp_subscribers_per_partition=20_000,
        smallbank_accounts_per_partition=20_000,
    ),
    # Million-key tiers (README "Scale tiers & memory").  Only feasible on the
    # columnar storage backend (what a fixed workload schema selects): a
    # bulk-loaded row holds a 4-byte slot, in a zero-filled mapping the load
    # never writes, until a transaction first touches it, and ≈ 46 bytes
    # after, where a dict-backed row needs ≈ 228.  The simulated
    # durations are short — the point of these tiers is *population* (cold
    # caches, deep Zipf tails, hundreds of concurrent clients), not simulated
    # seconds — so most rows are never touched (≈ 5 % of 1M on
    # ``ycsb_sundial_1m``).  Loading a fixed-schema workload (ycsb,
    # smallbank) is O(columns) operations (``ColumnarTable.insert_many``), so
    # host time at these tiers is the run; tpcc/tatp rows differ, and each
    # table takes them as cell tuples in one ``Table.load``.
    "xlarge": BenchScale(
        name="xlarge",
        duration_us=20_000.0,
        warmup_us=5_000.0,
        workers_per_partition=25,       # x4 partitions x2 inflight = 200 clients
        inflight_per_worker=2,
        ycsb_keys_per_partition=250_000,  # x4 partitions = 1M keys
        tpcc_warehouses_per_partition=32,
        tpcc_items=5_000,
        tpcc_customers_per_district=500,
        sweep_points=3,
        tatp_subscribers_per_partition=250_000,
        smallbank_accounts_per_partition=125_000,  # x2 tables x4 = 1M rows
    ),
    "web": BenchScale(
        name="web",
        duration_us=20_000.0,
        warmup_us=5_000.0,
        workers_per_partition=25,       # x4 partitions x5 inflight = 500 clients
        inflight_per_worker=5,
        ycsb_keys_per_partition=1_250_000,  # x4 partitions = 5M keys
        tpcc_warehouses_per_partition=64,
        tpcc_items=10_000,
        tpcc_customers_per_district=1_000,
        sweep_points=3,
        tatp_subscribers_per_partition=1_250_000,
        smallbank_accounts_per_partition=625_000,  # x2 tables x4 = 5M rows
    ),
}


#: Tiny preset for tests and gates: each cell simulates in a fraction of a
#: second.  Registered like the figure-quality presets (so the CLI and
#: scenario files accept ``"tiny"`` first-class) and also kept as a module
#: constant for the test suite.
TINY_SCALE = BenchScale(
    name="tiny",
    duration_us=6_000.0,
    warmup_us=2_000.0,
    workers_per_partition=1,
    inflight_per_worker=2,
    ycsb_keys_per_partition=2_000,
    tpcc_warehouses_per_partition=2,
    tpcc_items=50,
    tpcc_customers_per_district=10,
    sweep_points=2,
    tatp_subscribers_per_partition=500,
    smallbank_accounts_per_partition=500,
)

_DESCRIPTIONS = {
    "xlarge": "1M YCSB keys, 200 clients; needs the columnar storage backend",
    "web": "5M YCSB keys, 500 clients; needs the columnar storage backend",
}

register_scale(TINY_SCALE, description="test/gate preset: fraction of a second per cell")
for _name, _scale in _PRESETS.items():
    register_scale(
        _scale,
        description=_DESCRIPTIONS.get(
            _name,
            f"{_scale.duration_us / 1000.0:g} ms simulated, "
            f"{_scale.sweep_points} sweep points",
        ),
    )
del _name, _scale


def resolve_scale(scale) -> BenchScale:
    """Coerce a scale given by name, mapping, or instance into a BenchScale.

    Names are looked up in the scale registry, so externally registered
    presets resolve everywhere built-ins do — and an unknown name raises the
    registry's did-you-mean :class:`~repro.registry.UnknownNameError`.
    """
    if isinstance(scale, BenchScale):
        return scale
    if isinstance(scale, str):
        return SCALE_REGISTRY.get(scale)
    if isinstance(scale, dict):
        return BenchScale(**scale)
    raise TypeError(f"scale must be a name, dict or BenchScale, not {type(scale).__name__}")


def sweep_values(values: list, scale: BenchScale) -> list:
    """Thin a sweep down to the scale's number of points (keeping endpoints)."""
    if len(values) <= scale.sweep_points:
        return list(values)
    if scale.sweep_points == 1:
        return [values[-1]]
    step = (len(values) - 1) / (scale.sweep_points - 1)
    indices = sorted({round(i * step) for i in range(scale.sweep_points)})
    return [values[i] for i in indices]
