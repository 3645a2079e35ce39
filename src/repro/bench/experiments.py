"""Figure-level experiments: one plan/render pair per table/figure of the paper.

Every figure is split into two halves so the orchestrator can parallelize and
cache the expensive part:

* a **plan** function declares the figure's simulation *cells* — independent
  (protocol, workload, scale, knobs) points — as :class:`~repro.bench.orchestrator.Cell`
  specs without running anything;
* a **render** function takes ``{cell.key: RunResult}`` for those cells,
  prints the readable report and returns the figure's data dictionary.

Both halves are reached through the :data:`FIGURES` registry.
``python -m repro.bench`` executes the union of every planned cell across
processes with an on-disk cache (see ``orchestrator.py``);
:func:`run_figure` plans, executes inline and renders one figure in a single
call (``benchmarks/bench_figures.py`` times it at the ``small`` scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.analysis import AnalysisParameters, ConflictRateModel
from ..registry import FIGURE_REGISTRY
from ..scales import SCALES, BenchScale, sweep_values
from ..scenario import ScenarioSpec, sweep as scenario_sweep
from ..sim.stats import BREAKDOWN_COMPONENTS
from .orchestrator import Cell, make_cell, run_cells
from .report import print_header, print_table

__all__ = ["FIGURES", "FigureSpec", "run_figure"]

#: Protocols compared in the overall-performance figures (Figs. 4, 5).
OVERALL_PROTOCOLS = ("2pl_nw", "2pl_wd", "silo", "sundial", "aria", "primo")
#: The strongest baseline against Primo (Figs. 7, 8, 10, 14).
SUNDIAL_AND_PRIMO = ("sundial", "primo")


# ---------------------------------------------------------------------------
# Figures 4 and 5: overall performance and breakdowns
# ---------------------------------------------------------------------------

def _overall_plan(figure: str, scale: BenchScale, workload: str) -> list[Cell]:
    cells = [
        make_cell(figure, protocol, protocol, scale, workload=workload)
        for protocol in OVERALL_PROTOCOLS
    ]
    # "Primo w/o WM" for the (b) factor breakdown: WCF with COCO group commit.
    cells.append(
        make_cell(figure, "primo@coco", "primo", scale, workload=workload,
                  durability="coco")
    )
    return cells


def _overall_render(results: dict, workload: str, paper_factor: float,
                    figure: str) -> dict:
    """Shared report of Figs. 4 and 5 (a-d)."""
    protocol_results = {name: results[name] for name in OVERALL_PROTOCOLS}

    # (b) factor breakdown: Sundial reference, then add WCF, then WM.
    # "Primo w/o WM & WCF" (TicToc locally + 2PL/2PC for distributed txns) is
    # approximated by 2PL(WD)+COCO — see EXPERIMENTS.md for the substitution.
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


def fig04_plan(scale: BenchScale) -> list[Cell]:
    return _overall_plan("fig04", scale, "ycsb")


def fig04_render(scale: BenchScale, results: dict) -> dict:
    return _overall_render(results, "ycsb", paper_factor=1.91, figure="Figure 4")


def fig05_plan(scale: BenchScale) -> list[Cell]:
    return _overall_plan("fig05", scale, "tpcc")


def fig05_render(scale: BenchScale, results: dict) -> dict:
    return _overall_render(results, "tpcc", paper_factor=1.42, figure="Figure 5")


# ---------------------------------------------------------------------------
# Figure 6: contention
# ---------------------------------------------------------------------------

FIG06_PROTOCOLS = ("sundial", "2pl_nw", "primo")


def fig06_plan(scale: BenchScale) -> list[Cell]:
    skews = sweep_values([0.0, 0.2, 0.4, 0.6, 0.8, 0.95], scale)
    return [
        make_cell("fig06", f"{protocol}@skew{skew}", protocol, scale,
                  workload="ycsb", workload_overrides={"zipf_theta": skew})
        for skew in skews
        for protocol in FIG06_PROTOCOLS
    ]


def fig06_render(scale: BenchScale, results: dict) -> dict:
    skews = sweep_values([0.0, 0.2, 0.4, 0.6, 0.8, 0.95], scale)
    series: dict[str, list] = {p: [] for p in FIG06_PROTOCOLS}
    aborts: dict[str, list] = {p: [] for p in FIG06_PROTOCOLS}
    for skew in skews:
        for protocol in FIG06_PROTOCOLS:
            result = results[f"{protocol}@skew{skew}"]
            series[protocol].append(result.throughput_ktps)
            aborts[protocol].append(result.abort_rate)
    print_header(
        "Figure 6: impact of contention (YCSB skew sweep)",
        "Primo wins at every skew; margin grows with contention (1.19x -> 2.18x)",
    )
    print_table(
        ["skew"] + [f"{p} kTPS" for p in FIG06_PROTOCOLS] + [f"{p} abort" for p in FIG06_PROTOCOLS],
        [
            [skews[i]]
            + [series[p][i] for p in FIG06_PROTOCOLS]
            + [f"{aborts[p][i]:.1%}" for p in FIG06_PROTOCOLS]
            for i in range(len(skews))
        ],
    )
    return {"skews": skews, "throughput_ktps": series, "abort_rate": aborts}


# ---------------------------------------------------------------------------
# Figure 7: fraction of distributed transactions
# ---------------------------------------------------------------------------

FIG07_CONTENTION_LEVELS = (("low_contention", 0.0), ("high_contention", 0.9))


def fig07_plan(scale: BenchScale) -> list[Cell]:
    ratios = sweep_values([0.05, 0.2, 0.4, 0.6, 0.8, 1.0], scale)
    return [
        make_cell(
            "fig07", f"{protocol}@{label}@r{ratio}", protocol, scale,
            workload="ycsb",
            workload_overrides={"zipf_theta": skew, "distributed_pct": ratio},
        )
        for label, skew in FIG07_CONTENTION_LEVELS
        for ratio in ratios
        for protocol in SUNDIAL_AND_PRIMO
    ]


def fig07_render(scale: BenchScale, results: dict) -> dict:
    ratios = sweep_values([0.05, 0.2, 0.4, 0.6, 0.8, 1.0], scale)
    out = {}
    for label, skew in FIG07_CONTENTION_LEVELS:
        series = {p: [] for p in SUNDIAL_AND_PRIMO}
        for ratio in ratios:
            for protocol in SUNDIAL_AND_PRIMO:
                result = results[f"{protocol}@{label}@r{ratio}"]
                series[protocol].append(result.throughput_ktps)
        out[label] = series
        print_header(
            f"Figure 7 ({label}): impact of % distributed transactions (skew={skew})",
            "low contention: 1.12x -> 1.58x; high contention: 2.46x -> 1.96x",
        )
        print_table(
            ["% distributed"] + [f"{p} kTPS" for p in SUNDIAL_AND_PRIMO],
            [[f"{ratios[i]:.0%}"] + [series[p][i] for p in SUNDIAL_AND_PRIMO]
             for i in range(len(ratios))],
        )
    return {"ratios": ratios, **out}


# ---------------------------------------------------------------------------
# Figure 8: read-write ratio
# ---------------------------------------------------------------------------

FIG08_DISTRIBUTED_LEVELS = (("20pct_distributed", 0.2), ("80pct_distributed", 0.8))


def fig08_plan(scale: BenchScale) -> list[Cell]:
    write_ratios = sweep_values([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], scale)
    return [
        make_cell(
            "fig08", f"{protocol}@{label}@w{write_pct}", protocol, scale,
            workload="ycsb",
            workload_overrides={"write_pct": write_pct, "distributed_pct": distributed},
        )
        for label, distributed in FIG08_DISTRIBUTED_LEVELS
        for write_pct in write_ratios
        for protocol in SUNDIAL_AND_PRIMO
    ]


def fig08_render(scale: BenchScale, results: dict) -> dict:
    write_ratios = sweep_values([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], scale)
    out = {}
    for label, _distributed in FIG08_DISTRIBUTED_LEVELS:
        series = {p: [] for p in SUNDIAL_AND_PRIMO}
        for write_pct in write_ratios:
            for protocol in SUNDIAL_AND_PRIMO:
                result = results[f"{protocol}@{label}@w{write_pct}"]
                series[protocol].append(result.throughput_ktps)
        out[label] = series
        print_header(
            f"Figure 8 ({label}): impact of the read-write ratio",
            "Primo stable as writes grow; 0.96x/0.82x at 0% writes up to 2.86x/2.81x at 100%",
        )
        print_table(
            ["% writes"] + [f"{p} kTPS" for p in SUNDIAL_AND_PRIMO],
            [[f"{write_ratios[i]:.0%}"] + [series[p][i] for p in SUNDIAL_AND_PRIMO]
             for i in range(len(write_ratios))],
        )
    return {"write_ratios": write_ratios, **out}


# ---------------------------------------------------------------------------
# Figure 9: blind writes
# ---------------------------------------------------------------------------

def fig09_plan(scale: BenchScale) -> list[Cell]:
    ratios = sweep_values([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], scale)
    return [
        make_cell("fig09", f"{protocol}@b{ratio}", protocol, scale,
                  workload="ycsb", workload_overrides={"blind_write_pct": ratio})
        for ratio in ratios
        for protocol in ("primo", "sundial")
    ]


def fig09_render(scale: BenchScale, results: dict) -> dict:
    ratios = sweep_values([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], scale)
    series = {"primo": [], "sundial": []}
    for ratio in ratios:
        for protocol in series:
            series[protocol].append(results[f"{protocol}@b{ratio}"].throughput_ktps)
    print_header(
        "Figure 9: impact of the blind-write ratio",
        "Primo wins while blind writes < ~80%; even at 100% it needs no more roundtrips than 2PC",
    )
    print_table(
        ["blind-write ratio", "primo kTPS", "sundial kTPS", "primo/sundial"],
        [
            [f"{ratios[i]:.0%}", series["primo"][i], series["sundial"][i],
             f"{series['primo'][i] / max(series['sundial'][i], 1e-9):.2f}x"]
            for i in range(len(ratios))
        ],
    )
    return {"ratios": ratios, **series}


# ---------------------------------------------------------------------------
# Figure 10: warehouses
# ---------------------------------------------------------------------------

def fig10_plan(scale: BenchScale) -> list[Cell]:
    warehouse_counts = sweep_values([1, 2, 4, 8, 16, 32], scale)
    return [
        make_cell(
            "fig10", f"{protocol}@w{warehouses}", protocol, scale,
            workload="tpcc",
            workload_overrides={"warehouses_per_partition": warehouses},
        )
        for warehouses in warehouse_counts
        for protocol in SUNDIAL_AND_PRIMO
    ]


def fig10_render(scale: BenchScale, results: dict) -> dict:
    warehouse_counts = sweep_values([1, 2, 4, 8, 16, 32], scale)
    series = {p: [] for p in SUNDIAL_AND_PRIMO}
    for warehouses in warehouse_counts:
        for protocol in SUNDIAL_AND_PRIMO:
            series[protocol].append(
                results[f"{protocol}@w{warehouses}"].throughput_ktps
            )
    print_header(
        "Figure 10: impact of the number of warehouses (TPC-C)",
        "Primo wins at every size; improvement larger with fewer warehouses (1.61x -> 1.15x)",
    )
    print_table(
        ["warehouses/partition"] + [f"{p} kTPS" for p in SUNDIAL_AND_PRIMO],
        [[warehouse_counts[i]] + [series[p][i] for p in SUNDIAL_AND_PRIMO]
         for i in range(len(warehouse_counts))],
    )
    return {"warehouses": warehouse_counts, **series}


# ---------------------------------------------------------------------------
# Figure 11: logging schemes
# ---------------------------------------------------------------------------

FIG11_SCHEMES = ("clv", "coco", "wm")
FIG11_PROTOCOLS = ("2pl_wd", "sundial", "primo")


def fig11_plan(scale: BenchScale) -> list[Cell]:
    return [
        make_cell("fig11", f"{protocol}@{scheme}", protocol, scale,
                  workload="ycsb", durability=scheme)
        for protocol in FIG11_PROTOCOLS
        for scheme in FIG11_SCHEMES
    ]


def fig11_render(scale: BenchScale, results: dict) -> dict:
    table = {}
    for protocol in FIG11_PROTOCOLS:
        table[protocol] = {}
        for scheme in FIG11_SCHEMES:
            table[protocol][scheme] = results[f"{protocol}@{scheme}"].throughput_ktps
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

def fig12_plan(scale: BenchScale) -> list[Cell]:
    intervals_ms = sweep_values([2.0, 5.0, 10.0, 20.0, 40.0], scale)
    crash_time = scale.warmup_us + scale.duration_us * 0.6
    return [
        make_cell(
            "fig12", f"{scheme}@i{interval_ms}", "primo", scale,
            workload="ycsb", durability=scheme,
            epoch_length_us=interval_ms * 1000.0,
            faults=[{"kind": "crash", "at_us": crash_time, "target": 1}],
        )
        for interval_ms in intervals_ms
        for scheme in ("wm", "coco")
    ]


def fig12_render(scale: BenchScale, results: dict) -> dict:
    intervals_ms = sweep_values([2.0, 5.0, 10.0, 20.0, 40.0], scale)
    rows = []
    data = {"wm": {}, "coco": {}}
    for interval_ms in intervals_ms:
        for scheme in ("wm", "coco"):
            result = results[f"{scheme}@i{interval_ms}"]
            data[scheme][interval_ms] = result
            rows.append(
                (scheme, interval_ms, result.mean_latency_ms,
                 f"{result.crash_abort_rate:.2%}", result.throughput_ktps)
            )
    print_header(
        "Figure 12: impact of the watermark interval / epoch size",
        "latency and crash-abort rate grow with the interval; WM > COCO throughput at equal interval",
    )
    print_table(["scheme", "interval ms", "avg latency ms", "crash aborts", "kTPS"], rows)
    return {
        "intervals_ms": intervals_ms,
        "latency_ms": {s: [data[s][i].mean_latency_ms for i in intervals_ms] for s in data},
        "crash_abort_rate": {s: [data[s][i].crash_abort_rate for i in intervals_ms] for s in data},
        "throughput_ktps": {s: [data[s][i].throughput_ktps for i in intervals_ms] for s in data},
    }


# ---------------------------------------------------------------------------
# Figure 13: lagging watermarks and slow partitions
# ---------------------------------------------------------------------------

FIG13_SLOW_VARIANTS = (
    ("wm_force_update", True), ("wm_no_force_update", False), ("coco", None),
)


def fig13_plan(scale: BenchScale) -> list[Cell]:
    delays_ms = sweep_values([0.0, 5.0, 10.0, 20.0, 30.0], scale)
    cells = [
        # (a) delay only the watermark/epoch control messages of partition 1.
        make_cell(
            "fig13", f"{scheme}@d{delay_ms}", "primo", scale,
            workload="ycsb", durability=scheme,
            faults=[{"kind": "message_delay", "target": 1,
                     "delay_us": delay_ms * 1000.0}],
        )
        for delay_ms in delays_ms
        for scheme in ("wm", "coco")
    ]
    for label, force_update in FIG13_SLOW_VARIANTS:
        scheme = "coco" if label == "coco" else "wm"
        cells.append(
            make_cell(
                # (b) slow down partition 1 by inflating its message latency.
                "fig13", f"slow@{label}", "primo", scale,
                workload="ycsb", durability=scheme,
                watermark_force_update=bool(force_update),
                cpu_record_access_us=0.4,
                faults=[{"kind": "slow_partition", "target": 1,
                         "delay_us": 200.0}],
            )
        )
    return cells


def fig13_render(scale: BenchScale, results: dict) -> dict:
    delays_ms = sweep_values([0.0, 5.0, 10.0, 20.0, 30.0], scale)
    message_delay = {"wm": {"throughput": [], "latency": []},
                     "coco": {"throughput": [], "latency": []}}
    for delay_ms in delays_ms:
        for scheme in ("wm", "coco"):
            result = results[f"{scheme}@d{delay_ms}"]
            message_delay[scheme]["throughput"].append(result.throughput_ktps)
            message_delay[scheme]["latency"].append(result.mean_latency_ms)

    print_header(
        "Figure 13a: lagging due to watermark/epoch message delay",
        "WM throughput is unaffected by message delay while COCO's drops; latency rises for both",
    )
    print_table(
        ["delay ms", "WM kTPS", "WM ms", "COCO kTPS", "COCO ms"],
        [
            [delays_ms[i], message_delay["wm"]["throughput"][i], message_delay["wm"]["latency"][i],
             message_delay["coco"]["throughput"][i], message_delay["coco"]["latency"][i]]
            for i in range(len(delays_ms))
        ],
    )

    slow = {}
    for label, _force_update in FIG13_SLOW_VARIANTS:
        result = results[f"slow@{label}"]
        slow[label] = {"throughput_ktps": result.throughput_ktps,
                       "latency_ms": result.mean_latency_ms}
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
# Figure 14: scalability
# ---------------------------------------------------------------------------

def fig14_plan(scale: BenchScale) -> list[Cell]:
    partition_counts = sweep_values([1, 2, 4, 8, 12, 16, 20], scale)
    cells = []
    for n_partitions in partition_counts:
        for protocol in SUNDIAL_AND_PRIMO:
            cells.append(
                make_cell("fig14", f"{protocol}@n{n_partitions}", protocol, scale,
                          workload="ycsb", n_partitions=n_partitions)
            )
        cells.append(
            make_cell("fig14", f"primo(coco)@n{n_partitions}", "primo", scale,
                      workload="ycsb", n_partitions=n_partitions,
                      durability="coco")
        )
    return cells


def fig14_render(scale: BenchScale, results: dict) -> dict:
    partition_counts = sweep_values([1, 2, 4, 8, 12, 16, 20], scale)
    series: dict[str, list] = {p: [] for p in SUNDIAL_AND_PRIMO}
    series["primo(coco)"] = []
    for n_partitions in partition_counts:
        for protocol in SUNDIAL_AND_PRIMO:
            series[protocol].append(
                results[f"{protocol}@n{n_partitions}"].throughput_ktps
            )
        series["primo(coco)"].append(
            results[f"primo(coco)@n{n_partitions}"].throughput_ktps
        )
    print_header(
        "Figure 14: scalability on YCSB",
        "Primo scales best (3.2x/1.7x over the best baseline at 20 partitions); COCO flattens past ~12",
    )
    print_table(
        ["partitions"] + list(series.keys()),
        [[partition_counts[i]] + [series[name][i] for name in series]
         for i in range(len(partition_counts))],
    )
    return {"partitions": partition_counts, "throughput_ktps": series}


# ---------------------------------------------------------------------------
# Figure 15: TAPIR comparison
# ---------------------------------------------------------------------------

FIG15_CONDITIONS = (
    ("low_contention_20pct", 0.0, 0.2),
    ("low_contention_80pct", 0.0, 0.8),
    ("high_contention_20pct", 0.9, 0.2),
    ("high_contention_80pct", 0.9, 0.8),
)


def fig15_plan(scale: BenchScale) -> list[Cell]:
    return [
        make_cell(
            "fig15", f"{protocol}@{label}", protocol, scale,
            workload="ycsb",
            workload_overrides={"zipf_theta": skew, "distributed_pct": distributed},
            workers_per_partition=1, inflight_per_worker=4,
        )
        for label, skew, distributed in FIG15_CONDITIONS
        for protocol in ("primo", "tapir")
    ]


def fig15_render(scale: BenchScale, results: dict) -> dict:
    rows = []
    data = {}
    for label, _skew, _distributed in FIG15_CONDITIONS:
        entry = {
            protocol: results[f"{protocol}@{label}"]
            for protocol in ("primo", "tapir")
        }
        data[label] = entry
        ratio = entry["primo"].throughput_tps / max(entry["tapir"].throughput_tps, 1e-9)
        rows.append(
            (label, entry["primo"].throughput_ktps, entry["tapir"].throughput_ktps,
             f"{ratio:.2f}x", entry["primo"].mean_latency_ms, entry["tapir"].mean_latency_ms)
        )
    print_header(
        "Figure 15: comparison with TAPIR (one worker per server)",
        "Primo 4.1x-8.3x higher throughput; TAPIR much lower latency (no group commit)",
    )
    print_table(
        ["condition", "primo kTPS", "tapir kTPS", "ratio", "primo ms", "tapir ms"], rows
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


def _openloop_keys(fractions: list) -> list[str]:
    return [f"{protocol}@x{fraction:g}"
            for protocol in OPENLOOP_PROTOCOLS for fraction in fractions]


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
    return [Cell("openloop", key, spec)
            for key, spec in zip(_openloop_keys(fractions), specs)]


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
        series = {"achieved_ktps": [], "p50_ms": [], "p99_ms": [],
                  "p999_ms": [], "dropped": []}
        rows = []
        for fraction in fractions:
            result = results[f"{protocol}@x{fraction:g}"]
            dropped = result.metrics.counters.get("arrivals_dropped")
            series["achieved_ktps"].append(result.throughput_ktps)
            series["p50_ms"].append(result.p50_latency_ms)
            series["p99_ms"].append(result.p99_latency_ms)
            series["p999_ms"].append(result.p999_latency_ms)
            series["dropped"].append(dropped)
            rows.append((
                f"{fraction:g}x",
                saturation * fraction / 1000.0,
                result.throughput_ktps,
                result.p50_latency_ms,
                result.p99_latency_ms,
                result.p999_latency_ms,
                dropped,
            ))
        print(f"\n  {protocol}")
        print_table(
            ["offered", "offered kTPS", "kTPS", "p50 ms", "p99 ms", "p999 ms",
             "dropped"],
            rows,
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
    return [
        make_cell(
            "storm", protocol, protocol, scale,
            faults=standard_storm(scale.warmup_us, duration),
            duration_us=duration,
            # A fast failure detector, so the storm's leader flap is detected
            # and recovered well inside the measurement window.
            heartbeat_interval_us=500.0,
            heartbeat_timeout_us=2_000.0,
        )
        for protocol in PROTOCOL_REGISTRY.names()
    ]


def storm_render(scale: BenchScale, results: dict) -> dict:
    """Per-protocol degradation/recovery table + the windowed tps series."""
    from statistics import median

    from ..registry import PROTOCOL_REGISTRY

    print_header(
        "The standard storm: degradation and recovery under replication faults",
        "follower lag, slow partition, follower crash, leader flap, stale reads "
        "— one curated plan, every protocol",
    )
    data: dict = {
        "duration_us": storm_duration_us(scale),
        "protocols": {},
    }
    rows = []
    for protocol in PROTOCOL_REGISTRY.names():
        result = results[protocol]
        timeline = result.timeline
        tps = timeline.throughput_tps() if timeline is not None else []
        trimmed = tps[: len(timeline._completed_counts())] if timeline else []
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
    FIGURE_REGISTRY.register(
        name, FigureSpec(name, plan, render), description=description
    )


_register_figure("fig04", fig04_plan, fig04_render, "overall performance on YCSB")
_register_figure("fig05", fig05_plan, fig05_render, "overall performance on TPC-C")
_register_figure("fig06", fig06_plan, fig06_render, "impact of contention (Zipf skew)")
_register_figure("fig07", fig07_plan, fig07_render, "% distributed transactions")
_register_figure("fig08", fig08_plan, fig08_render, "read-write ratio")
_register_figure("fig09", fig09_plan, fig09_render, "blind-write ratio")
_register_figure("fig10", fig10_plan, fig10_render, "TPC-C warehouses")
_register_figure("fig11", fig11_plan, fig11_render, "logging / group-commit schemes")
_register_figure("fig12", fig12_plan, fig12_render, "watermark interval / epoch size")
_register_figure("fig13", fig13_plan, fig13_render, "lagging watermarks, slow partition")
_register_figure("fig14", fig14_plan, fig14_render, "scalability with partitions")
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
