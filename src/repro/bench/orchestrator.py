"""Parallel figure-sweep orchestrator with a resumable on-disk result cache.

Regenerating the paper's figures decomposes into independent *cells*: one
fixed-seed simulation per (protocol, workload, scale, knobs) point.  This
module turns each cell into a declarative :class:`Cell` spec, executes the
whole set across CPU cores (:func:`execute_cells` — the one inline-or-pool
loop, which the campaign executor drains too), and memoizes every cell's
:class:`~repro.cluster.results.RunResult` in an on-disk JSON cache keyed by a
stable hash of the cell spec plus the substrate version.  Interrupted or
repeated sweeps therefore resume: only cells whose spec (or the simulator
itself) changed are recomputed.

Determinism contract
--------------------

A cell produces **bit-identical** commit/abort counts whether it runs inline
(``jobs=1``), in a pool worker, or comes back from the cache.  Two properties
make that hold:

* all simulation seeding goes through ``repro.sim.randgen.stable_hash``
  (crc32-based), so a fixed-seed run is reproducible across processes and
  interpreter restarts (see "Determinism ground rules" in ROADMAP.md);
* every result — including one computed inline — is normalized through the
  JSON round-trip (:meth:`RunResult.to_json_dict` /
  :meth:`RunResult.from_json_dict`) before it is handed to a renderer, so the
  three execution paths cannot diverge even in float formatting.

Cache layout
------------

``<cache-dir>/<sha256-prefix>.json`` — one file per cell, containing the
schema version, the substrate version, the cell spec (for human inspection
and integrity checking) and the serialized result.  Files are written
atomically (tmp + rename) so an interrupted sweep never leaves a corrupt
entry; unreadable or mismatched entries are treated as misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .. import __version__ as _REPRO_VERSION
from ..cluster.results import RunResult
from ..scenario import ScenarioSpec
from ..scenario import run as _run_scenario

__all__ = [
    "Cell",
    "CacheGcReport",
    "NullCache",
    "ResultCache",
    "SweepOutcome",
    "SUBSTRATE_VERSION",
    "CACHE_SCHEMA_VERSION",
    "collect_cache_garbage",
    "execute_cell",
    "execute_cells",
    "run_cells",
]

#: Version of the simulation substrate baked into every cache key.  Bump the
#: package version (or wipe the cache) when simulation semantics change; the
#: bench gate (``scripts/bench_gate.py --check``) hard-fails on unintentional
#: semantic drift, so a stale cache and a drifted substrate cannot silently
#: coexist on CI.
SUBSTRATE_VERSION = _REPRO_VERSION

#: Version of the on-disk cache file format itself.  v9: the result carries
#: no ``extra`` object (v8 stored the run's whole ``SystemConfig`` there, and
#: nothing read it).  Entries of an older schema degrade to misses and
#: ``scripts/cache_gc.py`` reclaims them.
CACHE_SCHEMA_VERSION = 9


@dataclass(frozen=True)
class Cell:
    """One independent simulation point of a figure sweep.

    A thin presentation wrapper: ``figure`` and ``key`` identify the cell to
    its renderer, while ``spec`` — a validated
    :class:`~repro.scenario.ScenarioSpec` — is the physics of the run and the
    sole input to its cache key.  Two cells that differ only in
    ``figure``/``key`` share one simulation.
    """

    figure: str
    key: str
    spec: ScenarioSpec

    @property
    def cell_id(self) -> str:
        return f"{self.figure}/{self.key}"

    def cache_key(self) -> str:
        """Stable content hash of the spec's canonical JSON + substrate version."""
        payload = (
            '{"spec":' + self.spec.canonical_json()
            + ',"substrate":' + json.dumps(SUBSTRATE_VERSION) + "}"
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def execute_cell(cell: Cell, profile_dir: Optional[str] = None) -> RunResult:
    """Run one cell's simulation to completion (in the current process).

    With ``profile_dir`` set, the run executes under :mod:`cProfile` and the
    raw stats are dumped to ``<profile_dir>/<figure>-<key>-<hash>.pstats``
    (loadable with ``pstats.Stats`` or snakeviz) — the ``--profile`` flag of
    ``python -m repro.bench`` plumbs through here for both inline and pooled
    execution.
    """
    if profile_dir is None:
        return _run_scenario(cell.spec)
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = _run_scenario(cell.spec)
    finally:
        profiler.disable()
    profiler.dump_stats(_profile_path(profile_dir, cell))
    return result


def _profile_path(profile_dir: str, cell: Cell) -> str:
    directory = Path(profile_dir)
    directory.mkdir(parents=True, exist_ok=True)
    safe_key = "".join(
        ch if ch.isalnum() or ch in "._-" else "_" for ch in cell.key
    )
    return str(directory / f"{cell.figure}-{safe_key}-{cell.cache_key()[:8]}.pstats")


def _execute_cell_json(cell: Cell, profile_dir: Optional[str] = None) -> dict:
    """Pool-worker entry point: the JSON form crosses the process boundary."""
    return execute_cell(cell, profile_dir=profile_dir).to_json_dict()


def execute_cells(
    cells: Iterable[Cell],
    jobs: int = 1,
    profile_dir: Optional[str] = None,
) -> Iterator[tuple[Cell, Union[dict, BaseException]]]:
    """Run ``cells``, yielding ``(cell, result_json | exception)`` as each finishes.

    The one execution loop behind :func:`run_cells` and the campaign
    executor.  ``cells`` is consumed lazily — a cell is pulled only when there
    is room for it — so the caller's iterator decides, just before each cell
    starts, whether there is more work (skip it, stop after an error, ...).
    With ``jobs <= 1`` cells run inline, one at a time; otherwise on a process
    pool with at most ``2 * jobs`` in flight, so a huge plan streams instead
    of being submitted whole.  A cell that raises is yielded with its
    exception and the loop carries on: what an error means is the caller's
    policy.  Results are always the lossless JSON dict, so inline and pooled
    executions are normalized exactly like cached ones.
    """
    if jobs <= 1:
        for cell in cells:
            try:
                result = _execute_cell_json(cell, profile_dir)
            except Exception as exc:  # noqa: BLE001 — handed to the caller
                result = exc
            yield cell, result
        return
    cells = iter(cells)
    in_flight: dict = {}  # future -> cell
    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        while True:
            for cell in islice(cells, 2 * jobs - len(in_flight)):
                in_flight[pool.submit(_execute_cell_json, cell, profile_dir)] = cell
            if not in_flight:
                return
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in done:
                cell = in_flight.pop(future)
                exc = future.exception()
                yield cell, exc if exc is not None else future.result()
    finally:
        # Torn down early (the consumer raised or stopped iterating): queued
        # cells never start, running ones finish before the pool is joined.
        pool.shutdown(wait=True, cancel_futures=True)


class ResultCache:
    """On-disk JSON memo of cell results, keyed by :meth:`Cell.cache_key`."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    def path_for(self, cache_key: str) -> Path:
        return self.root / f"{cache_key}.json"

    def load(self, path) -> Optional[RunResult]:
        """The result stored at ``path``; ``None`` for an invalid entry.

        The one validity check behind :meth:`get_by_key`, :meth:`contains_key`
        and :func:`collect_cache_garbage`: an entry counts only when it
        parses, carries the current schema and substrate versions, and its
        result decodes.  Corrupt, unreadable or version-skewed entries are
        therefore misses everywhere — an interrupted or skewed cache degrades
        to recomputation, never to a crash, a wrong figure, or a cell that
        counts as done but cannot be read.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict):
            return None
        if entry.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        if entry.get("substrate_version") != SUBSTRATE_VERSION:
            return None
        try:
            return RunResult.from_json_dict(entry["result"])
        except (KeyError, TypeError, ValueError):
            return None

    def get_by_key(self, cache_key: str) -> Optional[RunResult]:
        """The cached result stored under ``cache_key``, or ``None`` on a miss.

        Campaign executors address the cache by the manifest's precomputed
        content keys through here.
        """
        return self.load(self.path_for(cache_key))

    def contains_key(self, cache_key: str) -> bool:
        """Whether a *valid* entry exists for ``cache_key`` (campaign status)."""
        return self.get_by_key(cache_key) is not None

    def get(self, cell: Cell) -> Optional[RunResult]:
        """Return the cached result for ``cell``, or ``None`` on a miss."""
        return self.get_by_key(cell.cache_key())

    def put(self, cell: Cell, result_json: dict) -> None:
        """Atomically persist one cell's serialized result.

        Large results are streamed, not materialized: ``json.dump`` with
        keyword options takes the chunked ``iterencode`` path, so the
        document is written to the tmp file incrementally instead of being
        built as one in-memory string.  (A document holds every latency
        sample: ≈ 2.5 MB for a ``web`` cell.)
        """
        self.root.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "substrate_version": SUBSTRATE_VERSION,
            "spec": cell.spec.to_json_dict(),
            "result": result_json,
        }
        fd, tmp_path = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp_path, self.path_for(cell.cache_key()))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise


class NullCache:
    """Cache stand-in that never hits and never stores (``--no-cache``)."""

    def get(self, cell: Cell) -> Optional[RunResult]:
        return None

    def put(self, cell: Cell, result_json: dict) -> None:
        pass


@dataclass
class SweepOutcome:
    """Results of one orchestrated sweep, plus execution accounting."""

    results: dict = field(default_factory=dict)  # Cell -> RunResult
    executed: int = 0       # simulations actually run this sweep
    cache_hits: int = 0     # unique cells served from the on-disk cache
    deduplicated: int = 0   # cells that shared another cell's simulation

    def by_key(self, cells: Iterable[Cell]) -> dict:
        """Results for ``cells`` keyed by ``cell.key`` (a renderer's view)."""
        return {cell.key: self.results[cell] for cell in cells}


def run_cells(
    cells: Sequence[Cell],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[str], None]] = None,
    profile_dir: Optional[str] = None,
) -> SweepOutcome:
    """Execute every cell, using the cache and up to ``jobs`` processes.

    Identical specs (same cache key) are simulated once and shared.  With
    ``jobs <= 1`` everything runs inline in this process; either way each
    result is normalized through the JSON round-trip so inline, pooled and
    cached executions are indistinguishable.  ``profile_dir`` turns on
    per-cell :mod:`cProfile` dumps (see :func:`execute_cell`) — cached cells
    produce no profile because nothing simulates.

    A cell that raises fails the sweep, but not the work already paid for:
    no further cell is started, everything in flight is still published to
    the cache, then the first error is re-raised — a rerun executes only
    what is missing.
    """
    cache = cache if cache is not None else NullCache()
    notify = progress or (lambda message: None)

    # Deduplicate by cache key, preserving plan order.
    unique: dict[str, list[Cell]] = {}
    for cell in cells:
        unique.setdefault(cell.cache_key(), []).append(cell)

    outcome = SweepOutcome()
    outcome.deduplicated = len(cells) - len(unique)
    resolved: dict[Cell, RunResult] = {}  # first cell of each key -> result

    pending: list[Cell] = []
    for aliases in unique.values():
        cached = cache.get(aliases[0])
        if cached is not None:
            resolved[aliases[0]] = cached
            outcome.cache_hits += 1
            notify(f"cache hit  {aliases[0].cell_id}")
        else:
            pending.append(aliases[0])

    first_error: Optional[BaseException] = None

    def work() -> Iterator[Cell]:
        for cell in pending:
            if first_error is not None:
                return
            notify(f"running    {cell.cell_id}")
            yield cell

    for cell, result in execute_cells(work(), jobs=jobs, profile_dir=profile_dir):
        if isinstance(result, BaseException):
            notify(f"FAILED     {cell.cell_id}: {result}")
            if first_error is None:
                first_error = result
            continue
        cache.put(cell, result)
        resolved[cell] = RunResult.from_json_dict(result)
        outcome.executed += 1
        notify(f"finished   {cell.cell_id}")
    if first_error is not None:
        raise first_error

    for aliases in unique.values():
        for cell in aliases:
            outcome.results[cell] = resolved[aliases[0]]
    return outcome


# ---------------------------------------------------------------------------
# Cache garbage collection
# ---------------------------------------------------------------------------

@dataclass
class CacheGcReport:
    """What one :func:`collect_cache_garbage` pass found (and removed)."""

    root: str = ""
    dry_run: bool = False
    kept: int = 0                  # valid entries left in place
    stale_entries: int = 0         # schema/substrate-skewed or corrupt files
    orphaned_tmp: int = 0          # abandoned .tmp-* files past the age cutoff
    bytes_reclaimed: int = 0       # total size of everything removed

    def describe(self) -> str:
        action = "would reclaim" if self.dry_run else "reclaimed"
        return (
            f"{self.root}: kept {self.kept} entries; {action} "
            f"{self.bytes_reclaimed:,} bytes "
            f"({self.stale_entries} stale/corrupt entries, "
            f"{self.orphaned_tmp} orphaned tmp files)"
        )


def collect_cache_garbage(root, tmp_age_s: float = 3600.0,
                          dry_run: bool = False) -> CacheGcReport:
    """Prune version-skewed, corrupt and orphaned files from a result cache.

    Needed hygiene once campaigns share one cache directory across hosts and
    substrate upgrades: every version skew turns the previous entries into
    dead weight that ``get`` already ignores but nothing ever deletes.  Removes

    * entries whose schema or substrate version no longer matches, that do
      not parse, or whose result does not decode — exactly the files
      :meth:`ResultCache.get` treats as misses (:meth:`ResultCache.load`),
      so removal can never change what a sweep computes;
    * ``.tmp-*`` spill files older than ``tmp_age_s`` seconds — debris of
      executors killed mid-:meth:`ResultCache.put` (younger ones are left
      alone: they may belong to a write in flight right now).

    With ``dry_run`` nothing is deleted; the report counts what would go.
    Concurrent executors are safe: deleting an invalid entry or an abandoned
    tmp file can at worst race another GC's unlink, which is tolerated.
    """
    import time

    cache = ResultCache(root)
    report = CacheGcReport(root=str(cache.root), dry_run=dry_run)
    if not cache.root.is_dir():
        return report
    now = time.time()
    for path in sorted(cache.root.iterdir()):
        if not path.is_file():
            continue
        remove = False
        if path.name.startswith(".tmp-"):
            try:
                if now - path.stat().st_mtime >= tmp_age_s:
                    remove = True
                    report.orphaned_tmp += 1
            except OSError:
                continue
        elif path.suffix == ".json":
            if cache.load(path) is None:
                remove = True
                report.stale_entries += 1
            else:
                report.kept += 1
        else:
            continue
        if not remove:
            continue
        try:
            size = path.stat().st_size
            if not dry_run:
                path.unlink()
            report.bytes_reclaimed += size
        except OSError:
            # Another GC (or the owning writer) got there first; fine.
            pass
    return report
