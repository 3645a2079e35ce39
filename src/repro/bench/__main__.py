"""Command-line entry point: ``python -m repro.bench --figure fig06 --scale medium``.

Figures are planned first, then the union of their cells is executed through
the orchestrator — across processes with ``--jobs N`` and memoized under
``--cache-dir`` so an interrupted or repeated sweep only simulates what is
missing.  ``--emit-json`` writes the per-figure data dictionaries plus sweep
accounting as a machine-readable artifact (used by the figures-smoke CI job).

The registries are the CLI's source of truth: ``--list protocols`` (or
``workloads``/``durability``/``figures``/``scales``/``faults``/``arrivals``)
prints
everything currently registered — including extensions registered by imported
user code — and ``--scenario file.json`` runs declarative
:class:`~repro.scenario.ScenarioSpec` documents — fault plans and workload
mixes included — through the same cached orchestrator as the figures (see
``examples/scenarios/`` for a cookbook).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from ..registry import (
    ARRIVAL_REGISTRY,
    DURABILITY_REGISTRY,
    FAULT_REGISTRY,
    FIGURE_REGISTRY,
    PROTOCOL_REGISTRY,
    SCALE_REGISTRY,
    WORKLOAD_REGISTRY,
    UnknownNameError,
)
from ..scales import SCALES
from ..scenario import ScenarioSpec
from .experiments import FIGURES
from .orchestrator import Cell, NullCache, ResultCache, SUBSTRATE_VERSION, run_cells
from .report import print_header, print_table

DEFAULT_CACHE_DIR = ".bench-cache"

#: ``--list`` targets: name -> () -> [(name, description), ...].
LISTINGS = {
    "protocols": lambda: [
        (e.name, _protocol_blurb(e)) for e in PROTOCOL_REGISTRY.entries()
    ],
    "workloads": lambda: [
        (e.name, _workload_blurb(e)) for e in WORKLOAD_REGISTRY.entries()
    ],
    "durability": lambda: [
        (e.name, e.metadata.get("description", "")) for e in DURABILITY_REGISTRY.entries()
    ],
    "figures": lambda: [
        (e.name, e.metadata.get("description", "")) for e in FIGURE_REGISTRY.entries()
    ],
    "scales": lambda: [
        (e.name, e.metadata.get("description", "")
                 or f"{e.obj.duration_us / 1000.0:g} ms simulated, "
                    f"{e.obj.sweep_points} sweep points")
        for e in SCALE_REGISTRY.entries()
    ],
    "faults": lambda: [
        (e.name, _fault_blurb(e)) for e in FAULT_REGISTRY.entries()
    ],
    "arrivals": lambda: [
        (e.name, _arrival_blurb(e)) for e in ARRIVAL_REGISTRY.entries()
    ],
}


def _arrival_blurb(entry) -> str:
    description = entry.metadata.get("description", "")
    params = entry.metadata.get("params", {})
    suffix = f"[params: {', '.join(params)}]" if params else ""
    return " ".join(part for part in (description, suffix) if part)


def _fault_blurb(entry) -> str:
    description = entry.metadata.get("description", "")
    params = entry.metadata.get("params", ())
    suffix = f"[params: {', '.join(params)}]" if params else ""
    return " ".join(part for part in (description, suffix) if part)


def _protocol_blurb(entry) -> str:
    description = entry.metadata.get("description", "")
    pairing = entry.metadata.get("default_durability", "coco")
    suffix = f"[durability: {pairing}]"
    return f"{description} {suffix}" if description else suffix


def _workload_blurb(entry) -> str:
    description = entry.metadata.get("description", "")
    config = entry.metadata.get("config_cls")
    suffix = f"[config: {config.__name__}]" if config else ""
    return " ".join(part for part in (description, suffix) if part)


def _print_listing(target: str) -> None:
    rows = LISTINGS[target]()
    width = max((len(name) for name, _ in rows), default=0)
    for name, description in rows:
        line = f"{name:<{width}}  {description}".rstrip()
        print(line)


def _load_scenarios(path: str, parser: argparse.ArgumentParser) -> list[ScenarioSpec]:
    """Parse a scenario file: one spec object or a JSON array of them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"--scenario {path}: {exc}")
    documents = data if isinstance(data, list) else [data]
    specs = []
    for i, document in enumerate(documents):
        try:
            specs.append(ScenarioSpec.from_json_dict(document))
        except (TypeError, ValueError) as exc:
            parser.error(f"--scenario {path} entry {i}: {exc}")
    return specs


def _run_scenarios(specs: list[ScenarioSpec], args, cache, progress, profile_dir=None) -> int:
    cells = [
        Cell(figure="scenario", key=f"#{i}", spec=spec)
        for i, spec in enumerate(specs)
    ]
    outcome = run_cells(cells, jobs=args.jobs, cache=cache, progress=progress,
                        profile_dir=profile_dir)
    rows = []
    for cell in cells:
        result = outcome.results[cell]
        rows.append(
            (
                cell.key,
                result.protocol,
                result.durability,
                result.workload,
                result.throughput_ktps,
                f"{result.abort_rate:.1%}",
                result.mean_latency_ms,
            )
        )
    print_header(f"{len(cells)} scenario(s) from {args.scenario}")
    print_table(
        ["scenario", "protocol", "durability", "workload", "kTPS", "abort", "avg ms"],
        rows,
    )
    if args.emit_json:
        artifact = {
            "meta": {
                "substrate_version": SUBSTRATE_VERSION,
                "jobs": args.jobs,
            },
            "scenarios": [
                {
                    "spec": cell.spec.to_json_dict(),
                    "result": outcome.results[cell].summary(),
                }
                for cell in cells
            ],
        }
        with open(args.emit_json, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True)
        print(f"[bench] wrote {args.emit_json}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's figures on the simulated cluster.",
    )
    parser.add_argument(
        "--figure",
        "--only",
        dest="figure",
        action="append",
        metavar="FIG",
        help="figure to run (repeatable; see --list figures); default: all figures",
    )
    parser.add_argument(
        "--list",
        dest="list_target",
        choices=sorted(LISTINGS),
        help="print the registered names of the chosen kind and exit",
    )
    parser.add_argument(
        "--scenario",
        metavar="FILE",
        help="run ScenarioSpec JSON (an object or an array) instead of figures",
    )
    parser.add_argument(
        "--scale",
        default=None,
        choices=sorted(SCALES),
        help="run size: tiny (tests), small (seconds per point), medium, or "
             "paper (default: small; scenario files carry their own scale)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for cell execution (default: 1, inline)",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"on-disk result cache location (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every cell; neither read nor write the cache",
    )
    parser.add_argument(
        "--emit-json",
        metavar="OUT",
        help="write per-figure data and sweep accounting to this JSON file",
    )
    parser.add_argument(
        "--quiet-progress",
        action="store_true",
        help="suppress per-cell progress lines on stderr",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run every executed cell under cProfile and dump per-cell "
             ".pstats files into <cache-dir>/profiles/ (cached cells are "
             "not profiled; combine with --no-cache to profile everything)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    if args.list_target:
        _print_listing(args.list_target)
        return 0

    cache = NullCache() if args.no_cache else ResultCache(args.cache_dir)
    profile_dir = None
    if args.profile:
        # Profiles live next to the cached results they were measured for.
        profile_dir = str(Path(args.cache_dir) / "profiles")
        print(f"[bench] profiling executed cells into {profile_dir}", file=sys.stderr)
    progress = None
    if not args.quiet_progress:
        def progress(message: str) -> None:
            print(f"[bench] {message}", file=sys.stderr)

    if args.scenario:
        # A scenario file carries its own scale per spec; a figure selection
        # is meaningless for it.  Reject the combination instead of silently
        # running something other than what was asked for.
        if args.figure:
            parser.error("--scenario and --figure/--only are mutually exclusive")
        if args.scale is not None:
            parser.error(
                "--scale does not apply to --scenario (set \"scale\" inside "
                "the scenario file)"
            )
        return _run_scenarios(_load_scenarios(args.scenario, parser), args, cache,
                              progress, profile_dir)

    # Validate figure names through the registry so a typo gets the same
    # did-you-mean treatment as a typo'd protocol in a ScenarioSpec.
    figure_names = args.figure or sorted(FIGURES)
    for name in figure_names:
        try:
            FIGURE_REGISTRY.check(name)
        except UnknownNameError as exc:
            parser.error(str(exc))

    scale_name = args.scale or "small"
    scale = SCALES[scale_name]
    plans = {name: FIGURES[name].plan(scale) for name in figure_names}
    all_cells = [cell for name in figure_names for cell in plans[name]]

    start = time.perf_counter()
    outcome = run_cells(all_cells, jobs=args.jobs, cache=cache, progress=progress,
                        profile_dir=profile_dir)
    wall_s = time.perf_counter() - start

    figure_data = {}
    for name in figure_names:
        figure_data[name] = FIGURES[name].render(scale, outcome.by_key(plans[name]))

    print(
        f"\n[bench] {len(all_cells)} cells "
        f"({outcome.executed} executed, {outcome.cache_hits} cached, "
        f"{outcome.deduplicated} shared) in {wall_s:.1f}s "
        f"with --jobs {args.jobs}",
        file=sys.stderr,
    )

    if args.emit_json:
        artifact = {
            "meta": {
                "scale": scale_name,
                "jobs": args.jobs,
                "figures": figure_names,
                "substrate_version": SUBSTRATE_VERSION,
                "cells_total": len(all_cells),
                "cells_executed": outcome.executed,
                "cells_cached": outcome.cache_hits,
                "cells_deduplicated": outcome.deduplicated,
                "wall_s": round(wall_s, 3),
            },
            "figures": figure_data,
        }
        with open(args.emit_json, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True)
        print(f"[bench] wrote {args.emit_json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
