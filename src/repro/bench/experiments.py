"""Figure-level experiments: one plan and one render per table/figure of the paper.

Every figure is split into two halves so the orchestrator can parallelize and
cache the expensive part:

* a **plan** declares the figure's simulation *cells* — independent
  (protocol, workload, scale, knobs) points — as :class:`~repro.bench.orchestrator.Cell`
  specs without running anything;
* a **render** takes ``{cell.key: RunResult}`` for those cells, prints the
  readable report and returns the figure's data dictionary.

The regular figures (6-10 and 14) are :class:`AxisSweep` data records, whose
generic plan and render are the registered pair; the others are hand-written.
Both halves are reached through the :data:`FIGURES` registry.
``python -m repro.bench`` executes the union of every planned cell across
processes with an on-disk cache (see ``orchestrator.py``);
:func:`run_figure` plans, executes inline and renders one figure in a single
call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from ..core.analysis import AnalysisParameters, ConflictRateModel
from ..registry import FIGURE_REGISTRY
from ..scales import SCALES, BenchScale, sweep_values
from ..scenario import ScenarioSpec, sweep as scenario_sweep
from ..sim.stats import BREAKDOWN_COMPONENTS
from .orchestrator import Cell, run_cells
from .report import format_ratio, print_header, print_table

__all__ = ["FIGURES", "FigureSpec", "run_figure"]

#: Protocols compared in the overall-performance figures (Figs. 4, 5).
OVERALL_PROTOCOLS = ("2pl_nw", "2pl_wd", "silo", "sundial", "aria", "primo")


# ---------------------------------------------------------------------------
# Figures 4 and 5: overall performance and breakdowns
# ---------------------------------------------------------------------------

def _overall_plan(figure: str, workload: str, scale: BenchScale) -> list[Cell]:
    base = ScenarioSpec(protocol="primo", workload=workload, scale=scale)
    cells = [Cell(figure, protocol, base.derive(protocol=protocol))
             for protocol in OVERALL_PROTOCOLS]
    # "Primo w/o WM" for the (b) factor breakdown: WCF with COCO group commit.
    cells.append(Cell(figure, "primo@coco", base.derive(durability="coco")))
    return cells


def _overall_render(figure: str, workload: str, paper_factor: float,
                    scale: BenchScale, results: dict) -> dict:
    """Shared report of Figs. 4 and 5 (a-d)."""
    protocol_results = {name: results[name] for name in OVERALL_PROTOCOLS}

    # (b) factor breakdown: Sundial reference, then add WCF, then WM.
    # "Primo w/o WM & WCF" (TicToc locally + 2PL/2PC for distributed txns) is
    # no registered protocol, so the 2PL(WD)+COCO run stands in for it: it
    # has both things the row takes away from Primo (a locking 2PC prepare
    # round instead of WCF, COCO epoch group commit instead of WM) but not
    # the TicToc local concurrency control.  ROADMAP item 1(c) is to record
    # this row as ``approximates``.
    breakdown = {
        "sundial (reference)": protocol_results["sundial"],
        "primo w/o WM & WCF (2PL+2PC proxy)": protocol_results["2pl_wd"],
        "primo w/o WM (WCF + COCO)": results["primo@coco"],
        "primo (WCF + WM)": protocol_results["primo"],
    }

    sundial_tps = protocol_results["sundial"].throughput_tps or 1.0
    best_other = max(
        r.throughput_tps for name, r in protocol_results.items() if name != "primo"
    ) or 1.0
    rows = []
    for name, result in protocol_results.items():
        rows.append(
            (
                name,
                result.throughput_ktps,
                f"{result.throughput_tps / best_other:.2f}x" if name == "primo" else "",
                f"{result.abort_rate:.1%}",
                result.mean_latency_ms,
                result.p99_latency_ms,
            )
        )

    print_header(
        f"{figure}: overall performance on {workload.upper()} (default setting)",
        f"Primo beats the best competitor by {paper_factor:.2f}x",
    )
    print_table(
        ["protocol", "kTPS", "primo vs best", "abort", "avg ms", "p99 ms"], rows
    )

    print("\n  (b) factor breakdown (ratios vs Sundial; paper: 0.76x/0.87x -> 1.78x/1.35x -> 1.91x/1.42x)")
    print_table(
        ["variant", "kTPS", "vs sundial"],
        [
            (name, r.throughput_ktps, f"{r.throughput_tps / sundial_tps:.2f}x")
            for name, r in breakdown.items()
        ],
    )

    print("\n  (c) latency breakdown (average µs per committed transaction)")
    print_table(
        ["protocol"] + list(BREAKDOWN_COMPONENTS),
        [
            [name] + [result.breakdown_us.get(c, 0.0) for c in BREAKDOWN_COMPONENTS]
            for name, result in protocol_results.items()
        ],
    )

    print("\n  (d) tail latency (99th percentile, ms)")
    print_table(
        ["protocol", "p99 ms"],
        [(name, result.p99_latency_ms) for name, result in protocol_results.items()],
    )

    return {
        "results": {name: r.summary() for name, r in protocol_results.items()},
        "factor_breakdown": {name: r.summary() for name, r in breakdown.items()},
        "primo_vs_best": protocol_results["primo"].throughput_tps / best_other,
        "paper_factor": paper_factor,
    }


# ---------------------------------------------------------------------------
# Figures 6-10 and 14: protocols compared while one scenario axis is swept
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Series:
    """One line of an axis sweep: a protocol, optionally under a pinned
    durability scheme (Fig. 14's ``primo(coco)``)."""

    protocol: str
    durability: Optional[str] = None

    @property
    def name(self) -> str:
        return self.protocol + (f"({self.durability})" if self.durability else "")


@dataclass(frozen=True)
class Metric:
    """One column per series: a ``RunResult`` attribute, its heading
    (formatted with the series name) and the format spec of a value (``""``
    hands the raw number to the table printer)."""

    attr: str
    heading: str = "{} kTPS"
    value_format: str = ""


THROUGHPUT = Metric("throughput_ktps")
ABORT_RATE = Metric("abort_rate", "{} abort", ".1%")


def _formatted(value, format_spec: str):
    return format(value, format_spec) if format_spec else value


@dataclass(frozen=True)
class AxisSweep:
    """A figure that compares protocols while one scenario axis is swept.

    ``axis`` is any :meth:`ScenarioSpec.derive` axis and ``values`` the
    paper's full list, thinned per scale by ``sweep_values``.  Each level
    ``(name, {axis: value})`` pins further axes and prints its own table,
    headed by ``title`` formatted with ``level=name`` and the pinned axes; a
    figure without levels has one unnamed level.  ``ratio`` names the
    (numerator, denominator) series of an extra column over the first metric.

    :meth:`render` returns the figure's data as ``{"axis", "values",
    "levels": [{"name", "fixed", "metrics": {attr: {series: [...]}}}]}``,
    every list aligned with ``values``.
    """

    figure: str
    workload: str
    axis: str
    values: tuple
    series: tuple
    title: str
    claim: str
    axis_heading: str
    axis_format: str = ""
    levels: tuple = ((None, {}),)
    metrics: tuple = (THROUGHPUT,)
    ratio: Optional[tuple] = None

    def _key(self, level: Optional[str], series: Series, value) -> str:
        return "@".join(filter(None, (series.name, level, f"{self.axis}={value}")))

    def plan(self, scale: BenchScale) -> list[Cell]:
        base = ScenarioSpec(protocol=self.series[0].protocol,
                            workload=self.workload, scale=scale)
        return [
            Cell(self.figure, self._key(level, series, value),
                 base.derive(protocol=series.protocol, durability=series.durability,
                             **fixed, **{self.axis: value}))
            for level, fixed in self.levels
            for value in sweep_values(self.values, scale)
            for series in self.series
        ]

    def render(self, scale: BenchScale, results: dict) -> dict:
        values = sweep_values(self.values, scale)
        columns = [(metric, series) for metric in self.metrics for series in self.series]
        levels = []
        for level, fixed in self.levels:
            table = {
                metric.attr: {
                    series.name: [getattr(results[self._key(level, series, value)],
                                          metric.attr) for value in values]
                    for series in self.series
                }
                for metric in self.metrics
            }
            headings = [self.axis_heading] + [metric.heading.format(series.name)
                                              for metric, series in columns]
            rows = [[_formatted(value, self.axis_format)]
                    + [_formatted(table[metric.attr][series.name][i], metric.value_format)
                       for metric, series in columns]
                    for i, value in enumerate(values)]
            if self.ratio is not None:
                numerator, denominator = self.ratio
                first = table[self.metrics[0].attr]
                headings.append(f"{numerator}/{denominator}")
                for i, row in enumerate(rows):
                    row.append(format_ratio(
                        first[numerator][i] / max(first[denominator][i], 1e-9)))
            print_header(self.title.format(level=level, **fixed), self.claim)
            print_table(headings, rows)
            levels.append({"name": level, "fixed": dict(fixed), "metrics": table})
        return {"axis": self.axis, "values": values, "levels": levels}


#: The strongest baseline against Primo (Figs. 7, 8, 10, 14).
SUNDIAL_AND_PRIMO = (Series("sundial"), Series("primo"))
#: 0% to 100% in steps of 20% (Figs. 8 and 9).
FRACTIONS_0_TO_1 = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

FIG06 = AxisSweep(
    "fig06", "ycsb", "zipf_theta", (0.0, 0.2, 0.4, 0.6, 0.8, 0.95),
    (Series("sundial"), Series("2pl_nw"), Series("primo")),
    "Figure 6: impact of contention (YCSB skew sweep)",
    "Primo wins at every skew; margin grows with contention (1.19x -> 2.18x)",
    axis_heading="skew",
    metrics=(THROUGHPUT, ABORT_RATE),
)
FIG07 = AxisSweep(
    "fig07", "ycsb", "distributed_pct", (0.05, 0.2, 0.4, 0.6, 0.8, 1.0),
    SUNDIAL_AND_PRIMO,
    "Figure 7 ({level}): impact of % distributed transactions (skew={zipf_theta})",
    "low contention: 1.12x -> 1.58x; high contention: 2.46x -> 1.96x",
    axis_heading="% distributed", axis_format=".0%",
    levels=(("low_contention", {"zipf_theta": 0.0}),
            ("high_contention", {"zipf_theta": 0.9})),
)
FIG08 = AxisSweep(
    "fig08", "ycsb", "write_pct", FRACTIONS_0_TO_1, SUNDIAL_AND_PRIMO,
    "Figure 8 ({level}): impact of the read-write ratio",
    "Primo stable as writes grow; 0.96x/0.82x at 0% writes up to 2.86x/2.81x at 100%",
    axis_heading="% writes", axis_format=".0%",
    levels=(("20pct_distributed", {"distributed_pct": 0.2}),
            ("80pct_distributed", {"distributed_pct": 0.8})),
)
FIG09 = AxisSweep(
    "fig09", "ycsb", "blind_write_pct", FRACTIONS_0_TO_1,
    (Series("primo"), Series("sundial")),
    "Figure 9: impact of the blind-write ratio",
    "Primo wins while blind writes < ~80%; even at 100% it needs no more roundtrips than 2PC",
    axis_heading="blind-write ratio", axis_format=".0%",
    ratio=("primo", "sundial"),
)
FIG10 = AxisSweep(
    "fig10", "tpcc", "warehouses_per_partition", (1, 2, 4, 8, 16, 32),
    SUNDIAL_AND_PRIMO,
    "Figure 10: impact of the number of warehouses (TPC-C)",
    "Primo wins at every size; improvement larger with fewer warehouses (1.61x -> 1.15x)",
    axis_heading="warehouses/partition",
)
FIG14 = AxisSweep(
    "fig14", "ycsb", "n_partitions", (1, 2, 4, 8, 12, 16, 20),
    SUNDIAL_AND_PRIMO + (Series("primo", "coco"),),
    "Figure 14: scalability on YCSB",
    "Primo scales best (3.2x/1.7x over the best baseline at 20 partitions); COCO flattens past ~12",
    axis_heading="partitions",
    metrics=(Metric("throughput_ktps", "{}"),),
)


# ---------------------------------------------------------------------------
# Figure 11: logging schemes
# ---------------------------------------------------------------------------

FIG11_SCHEMES = ("clv", "coco", "wm")
FIG11_PROTOCOLS = ("2pl_wd", "sundial", "primo")


def fig11_plan(scale: BenchScale) -> list[Cell]:
    base = ScenarioSpec(protocol="primo", workload="ycsb", scale=scale)
    return [
        Cell("fig11", f"{protocol}@{scheme}",
             base.derive(protocol=protocol, durability=scheme))
        for protocol in FIG11_PROTOCOLS
        for scheme in FIG11_SCHEMES
    ]


def fig11_render(scale: BenchScale, results: dict) -> dict:
    table = {protocol: {scheme: results[f"{protocol}@{scheme}"].throughput_ktps
                        for scheme in FIG11_SCHEMES}
             for protocol in FIG11_PROTOCOLS}
    print_header(
        "Figure 11: logging/group-commit schemes on YCSB",
        "WM > COCO > CLV for every concurrency-control scheme",
    )
    print_table(
        ["protocol"] + [s.upper() for s in FIG11_SCHEMES],
        [[p] + [table[p][s] for s in FIG11_SCHEMES] for p in FIG11_PROTOCOLS],
    )
    return {"throughput_ktps": table}


# ---------------------------------------------------------------------------
# Figure 12: watermark interval / epoch size
# ---------------------------------------------------------------------------

#: The two group-commit schemes Figs. 12 and 13 compare.
WM_AND_COCO = ("wm", "coco")
#: Fig. 12's watermark intervals / epoch sizes, ms.
FIG12_INTERVALS_MS = (2.0, 5.0, 10.0, 20.0, 40.0)


def fig12_plan(scale: BenchScale) -> list[Cell]:
    intervals_ms = sweep_values(FIG12_INTERVALS_MS, scale)
    crash_time = scale.warmup_us + scale.duration_us * 0.6
    base = ScenarioSpec(
        protocol="primo", workload="ycsb", scale=scale,
        faults=[{"kind": "crash", "at_us": crash_time, "target": 1}],
    )
    return [
        Cell("fig12", f"{scheme}@i{interval_ms}",
             base.derive(durability=scheme, epoch_length_us=interval_ms * 1000.0))
        for interval_ms in intervals_ms
        for scheme in WM_AND_COCO
    ]


def fig12_render(scale: BenchScale, results: dict) -> dict:
    intervals_ms = sweep_values(FIG12_INTERVALS_MS, scale)
    runs = {scheme: [results[f"{scheme}@i{interval_ms}"] for interval_ms in intervals_ms]
            for scheme in WM_AND_COCO}
    print_header(
        "Figure 12: impact of the watermark interval / epoch size",
        "latency and crash-abort rate grow with the interval; WM > COCO throughput at equal interval",
    )
    print_table(
        ["scheme", "interval ms", "avg latency ms", "crash aborts", "kTPS"],
        [(scheme, interval_ms, runs[scheme][i].mean_latency_ms,
          f"{runs[scheme][i].crash_abort_rate:.2%}", runs[scheme][i].throughput_ktps)
         for i, interval_ms in enumerate(intervals_ms) for scheme in WM_AND_COCO],
    )
    return {
        "intervals_ms": intervals_ms,
        "latency_ms": {s: [r.mean_latency_ms for r in runs[s]] for s in runs},
        "crash_abort_rate": {s: [r.crash_abort_rate for r in runs[s]] for s in runs},
        "throughput_ktps": {s: [r.throughput_ktps for r in runs[s]] for s in runs},
    }


# ---------------------------------------------------------------------------
# Figure 13: lagging watermarks and slow partitions
# ---------------------------------------------------------------------------

#: Fig. 13a's extra delays of partition 1's watermark/epoch messages, ms.
FIG13_DELAYS_MS = (0.0, 5.0, 10.0, 20.0, 30.0)
FIG13_SLOW_VARIANTS = (
    ("wm_force_update", True), ("wm_no_force_update", False), ("coco", None),
)


def fig13_plan(scale: BenchScale) -> list[Cell]:
    delays_ms = sweep_values(FIG13_DELAYS_MS, scale)
    base = ScenarioSpec(protocol="primo", workload="ycsb", scale=scale)
    cells = [
        # (a) delay only the watermark/epoch control messages of partition 1.
        Cell("fig13", f"{scheme}@d{delay_ms}", base.derive(
            durability=scheme,
            faults=[{"kind": "message_delay", "target": 1,
                     "delay_us": delay_ms * 1000.0}],
        ))
        for delay_ms in delays_ms
        for scheme in WM_AND_COCO
    ]
    # (b) slow down partition 1 by inflating its message latency.
    slow = base.derive(
        cpu_record_access_us=0.4,
        faults=[{"kind": "slow_partition", "target": 1, "delay_us": 200.0}],
    )
    for label, force_update in FIG13_SLOW_VARIANTS:
        cells.append(Cell("fig13", f"slow@{label}", slow.derive(
            durability="coco" if label == "coco" else "wm",
            watermark_force_update=bool(force_update),
        )))
    return cells


def fig13_render(scale: BenchScale, results: dict) -> dict:
    delays_ms = sweep_values(FIG13_DELAYS_MS, scale)
    message_delay = {
        scheme: {"throughput": [results[f"{scheme}@d{d}"].throughput_ktps for d in delays_ms],
                 "latency": [results[f"{scheme}@d{d}"].mean_latency_ms for d in delays_ms]}
        for scheme in WM_AND_COCO
    }
    print_header(
        "Figure 13a: lagging due to watermark/epoch message delay",
        "WM throughput is unaffected by message delay while COCO's drops; latency rises for both",
    )
    print_table(
        ["delay ms", "WM kTPS", "WM ms", "COCO kTPS", "COCO ms"],
        [[delay_ms] + [message_delay[scheme][column][i]
                       for scheme in WM_AND_COCO for column in ("throughput", "latency")]
         for i, delay_ms in enumerate(delays_ms)],
    )

    slow = {label: {"throughput_ktps": results[f"slow@{label}"].throughput_ktps,
                    "latency_ms": results[f"slow@{label}"].mean_latency_ms}
            for label, _force_update in FIG13_SLOW_VARIANTS}
    print_header(
        "Figure 13b: lagging due to a slow partition",
        "force-updating the slow partition's watermark keeps WM latency close to COCO",
    )
    print_table(
        ["configuration", "kTPS", "avg latency ms"],
        [[k, v["throughput_ktps"], v["latency_ms"]] for k, v in slow.items()],
    )
    return {"delays_ms": delays_ms, "message_delay": message_delay, "slow_partition": slow}


# ---------------------------------------------------------------------------
# Figure 15: TAPIR comparison
# ---------------------------------------------------------------------------

FIG15_CONDITIONS = (
    ("low_contention_20pct", 0.0, 0.2),
    ("low_contention_80pct", 0.0, 0.8),
    ("high_contention_20pct", 0.9, 0.2),
    ("high_contention_80pct", 0.9, 0.8),
)
FIG15_PROTOCOLS = ("primo", "tapir")


def fig15_plan(scale: BenchScale) -> list[Cell]:
    base = ScenarioSpec(
        protocol="primo", workload="ycsb", scale=scale,
        config_overrides={"workers_per_partition": 1, "inflight_per_worker": 4},
    )
    return [
        Cell("fig15", f"{protocol}@{label}", base.derive(
            protocol=protocol, zipf_theta=skew, distributed_pct=distributed))
        for label, skew, distributed in FIG15_CONDITIONS
        for protocol in FIG15_PROTOCOLS
    ]


def fig15_render(scale: BenchScale, results: dict) -> dict:
    data = {label: {protocol: results[f"{protocol}@{label}"] for protocol in FIG15_PROTOCOLS}
            for label, _skew, _distributed in FIG15_CONDITIONS}
    print_header(
        "Figure 15: comparison with TAPIR (one worker per server)",
        "Primo 4.1x-8.3x higher throughput; TAPIR much lower latency (no group commit)",
    )
    print_table(
        ["condition", "primo kTPS", "tapir kTPS", "ratio", "primo ms", "tapir ms"],
        [(label, entry["primo"].throughput_ktps, entry["tapir"].throughput_ktps,
          format_ratio(entry["primo"].throughput_tps / max(entry["tapir"].throughput_tps, 1e-9)),
          entry["primo"].mean_latency_ms, entry["tapir"].mean_latency_ms)
         for label, entry in data.items()],
    )
    return {
        label: {p: r.summary() for p, r in entry.items()} for label, entry in data.items()
    }


# ---------------------------------------------------------------------------
# Appendix A: analytical model (no simulation cells)
# ---------------------------------------------------------------------------

def appendix_plan(scale: BenchScale) -> list[Cell]:
    return []


def appendix_render(scale: BenchScale, results: dict) -> dict:
    base = AnalysisParameters()
    read_ratios = [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0]
    rows = ConflictRateModel.sweep_read_ratio(base, read_ratios)
    print_header(
        "Appendix A: analytical conflict-rate comparison",
        "Primo has the lower conflict rate whenever the read ratio R_r < 0.8 (with R_u = 0.6)",
    )
    print_table(
        ["read ratio", "CR_2PC", "CR_Primo", "primo wins"],
        [[r["read_ratio"], r["cr_2pc"], r["cr_primo"], r["primo_wins"]] for r in rows],
    )
    return {"rows": rows}


# ---------------------------------------------------------------------------
# Open-loop load curves (README "Open-loop load & latency curves" — not a
# paper figure)
# ---------------------------------------------------------------------------

#: Protocols compared on the offered-load sweep.
OPENLOOP_PROTOCOLS = ("2pl_nw", "sundial", "primo")

#: Offered load as fractions of the measured saturation anchor; thinned per
#: scale by ``sweep_values`` like every other sweep.
OPENLOOP_LOAD_FRACTIONS = (0.5, 0.8, 1.0, 1.2)

#: Measured closed-loop saturation (committed tps, primo on YCSB, fixed seed)
#: per scale — the 1.0x anchor of the offered-load sweep.  Measured 2026-08
#: from the fixed-seed runs behind ``scripts/bench_gate.py`` (e.g. small:
#: 4447 committed / 20 ms ≈ 222 kTPS).
OPENLOOP_SATURATION_TPS = {"tiny": 90_000.0, "small": 220_000.0}


def openloop_saturation_tps(scale: BenchScale) -> float:
    """The sweep's 1.0x offered-load anchor for ``scale``.

    Unmeasured scales extrapolate from the small anchor by execution width
    (workers × inflight) — a nominal anchor: the curves still show the knee,
    it just may not sit exactly at 1.0x.
    """
    rate = OPENLOOP_SATURATION_TPS.get(scale.name)
    if rate is not None:
        return rate
    small = SCALES["small"]
    width = scale.workers_per_partition * scale.inflight_per_worker
    small_width = small.workers_per_partition * small.inflight_per_worker
    return OPENLOOP_SATURATION_TPS["small"] * width / small_width


def openloop_plan(scale: BenchScale) -> list[Cell]:
    """One Poisson offered-load point per (protocol, fraction) — a plain
    ``repro.sweep`` over the ``arrival`` axis."""
    fractions = sweep_values(list(OPENLOOP_LOAD_FRACTIONS), scale)
    saturation = openloop_saturation_tps(scale)
    base = ScenarioSpec(protocol="primo", workload="ycsb", scale=scale)
    specs = scenario_sweep(
        base,
        protocol=list(OPENLOOP_PROTOCOLS),
        arrival=[{"kind": "poisson", "rate_tps": saturation * fraction}
                 for fraction in fractions],
    )
    keys = (f"{protocol}@x{fraction:g}"
            for protocol in OPENLOOP_PROTOCOLS for fraction in fractions)
    return [Cell("openloop", key, spec) for key, spec in zip(keys, specs)]


def openloop_render(scale: BenchScale, results: dict) -> dict:
    """Throughput-vs-offered-load plus p50/p99/p999 latency curves."""
    fractions = sweep_values(list(OPENLOOP_LOAD_FRACTIONS), scale)
    saturation = openloop_saturation_tps(scale)
    print_header(
        "Open loop: throughput and latency vs offered load (Poisson arrivals)",
        "latency includes admission queueing; the tail explodes past 1.0x of saturation",
    )
    data: dict = {
        "saturation_tps": saturation,
        "offered_tps": [saturation * fraction for fraction in fractions],
        "protocols": {},
    }
    for protocol in OPENLOOP_PROTOCOLS:
        runs = [results[f"{protocol}@x{fraction:g}"] for fraction in fractions]
        series = {
            "achieved_ktps": [run.throughput_ktps for run in runs],
            "p50_ms": [run.p50_latency_ms for run in runs],
            "p99_ms": [run.p99_latency_ms for run in runs],
            "p999_ms": [run.p999_latency_ms for run in runs],
            "dropped": [run.metrics.counters.get("arrivals_dropped") for run in runs],
        }
        print(f"\n  {protocol}")
        print_table(
            ["offered", "offered kTPS", "kTPS", "p50 ms", "p99 ms", "p999 ms",
             "dropped"],
            [(f"{fraction:g}x", saturation * fraction / 1000.0, *row)
             for fraction, row in zip(fractions, zip(*series.values()))],
        )
        data["protocols"][protocol] = series
    return data


# ---------------------------------------------------------------------------
# The standard storm: degradation and recovery under replication faults
# ---------------------------------------------------------------------------

def storm_duration_us(scale: BenchScale) -> float:
    """The storm's measurement window for ``scale``.

    Leader fail-over (detection + §5.2 recovery) takes ~20-25 ms of simulated
    time regardless of scale, so the window is stretched to fit a full
    crash → stall → recovery arc; smaller presets keep their sizing (keys,
    workers) and just measure longer.
    """
    return max(scale.duration_us * 3.0, 60_000.0)


def storm_plan(scale: BenchScale) -> list[Cell]:
    """One :func:`repro.faults.standard_storm` run per registered protocol."""
    from ..faults import standard_storm
    from ..registry import PROTOCOL_REGISTRY

    duration = storm_duration_us(scale)
    base = ScenarioSpec(
        protocol="primo", workload="ycsb", scale=scale,
        faults=standard_storm(scale.warmup_us, duration),
        config_overrides={
            "duration_us": duration,
            # A fast failure detector, so the storm's leader flap is detected
            # and recovered well inside the measurement window.
            "heartbeat_interval_us": 500.0,
            "heartbeat_timeout_us": 2_000.0,
        },
    )
    return [Cell("storm", protocol, base.derive(protocol=protocol))
            for protocol in PROTOCOL_REGISTRY.names()]


def storm_render(scale: BenchScale, results: dict) -> dict:
    """Per-protocol degradation/recovery table + the windowed tps series."""
    from statistics import median

    from ..registry import PROTOCOL_REGISTRY

    print_header(
        "The standard storm: degradation and recovery under replication faults",
        "follower lag, slow partition, follower crash, leader flap, stale reads "
        "— one curated plan, every protocol",
    )
    data: dict = {"duration_us": storm_duration_us(scale), "protocols": {}}
    rows = []
    for protocol in PROTOCOL_REGISTRY.names():
        result = results[protocol]
        timeline = result.timeline
        tps = timeline.throughput_tps() if timeline is not None else []
        trimmed = tps[: len(timeline.completed_counts())] if timeline else []
        baseline = median(trimmed) if trimmed else 0.0
        depth = result.degradation_depth
        t90 = result.time_to_90pct_recovery_us
        counters = result.metrics.counters
        series = {
            "window_us": timeline.window_us if timeline is not None else None,
            "throughput_tps": tps,
            "mean_latency_us": (timeline.mean_latency_us()
                                if timeline is not None else []),
            "degradation_depth": depth,
            "time_to_90pct_recovery_us": t90,
            "stale_reads": counters.get("stale_reads"),
            "crashes_injected": counters.get("crashes_injected"),
            "recovery_time_us": counters.get("recovery_time_us"),
        }
        data["protocols"][protocol] = series
        rows.append((
            protocol,
            result.throughput_ktps,
            baseline / 1000.0,
            (min(trimmed) / 1000.0) if trimmed else 0.0,
            f"{depth:.0%}" if depth is not None else "-",
            f"{t90 / 1000.0:.1f}" if t90 is not None else "never",
            counters.get("stale_reads"),
            counters.get("crashes_injected"),
        ))
    print_table(
        ["protocol", "kTPS", "median win kTPS", "min win kTPS",
         "depth", "t90 ms", "stale reads", "crashes"],
        rows,
    )
    return data


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FigureSpec:
    """Planner/renderer pair the orchestrator drives for one figure.

    ``plan(scale)`` declares the cells; ``render(scale, results_by_key)``
    consumes ``{cell.key: RunResult}`` and returns the figure's data dict.
    """

    name: str
    plan: Callable
    render: Callable


def _register_figure(name: str, plan: Callable, render: Callable,
                     description: str = "") -> None:
    FIGURE_REGISTRY.register(name, FigureSpec(name, plan, render), description=description)


_register_figure("fig04", partial(_overall_plan, "fig04", "ycsb"),
                 partial(_overall_render, "Figure 4", "ycsb", 1.91),
                 "overall performance on YCSB")
_register_figure("fig05", partial(_overall_plan, "fig05", "tpcc"),
                 partial(_overall_render, "Figure 5", "tpcc", 1.42),
                 "overall performance on TPC-C")
_register_figure("fig06", FIG06.plan, FIG06.render, "impact of contention (Zipf skew)")
_register_figure("fig07", FIG07.plan, FIG07.render, "% distributed transactions")
_register_figure("fig08", FIG08.plan, FIG08.render, "read-write ratio")
_register_figure("fig09", FIG09.plan, FIG09.render, "blind-write ratio")
_register_figure("fig10", FIG10.plan, FIG10.render, "TPC-C warehouses")
_register_figure("fig11", fig11_plan, fig11_render, "logging / group-commit schemes")
_register_figure("fig12", fig12_plan, fig12_render, "watermark interval / epoch size")
_register_figure("fig13", fig13_plan, fig13_render, "lagging watermarks, slow partition")
_register_figure("fig14", FIG14.plan, FIG14.render, "scalability with partitions")
_register_figure("fig15", fig15_plan, fig15_render, "comparison with TAPIR")
_register_figure("openloop", openloop_plan, openloop_render,
                 "throughput + p50/p99/p999 latency vs offered load "
                 "(open-loop Poisson arrivals)")
_register_figure("storm", storm_plan, storm_render,
                 "degradation depth + time-to-recovery under the standard "
                 "storm (replication faults), every protocol")
_register_figure("appendix", appendix_plan, appendix_render,
                 "analytical conflict-rate model")

#: name -> FigureSpec — the figure registry itself, used by
#: ``python -m repro.bench`` and the figures gate.  Figures registered by
#: external code (``repro.registry.register_figure``) appear here too.
FIGURES = FIGURE_REGISTRY


def run_figure(name: str, scale: BenchScale) -> dict:
    """Plan, execute inline (no cache) and render one registered figure."""
    figure = FIGURES[name]
    cells = figure.plan(scale)
    return figure.render(scale, run_cells(cells).by_key(cells))
