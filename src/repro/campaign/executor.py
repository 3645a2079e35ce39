"""Coordinator-free campaign execution over a content-keyed cache.

Any number of executors — processes on one machine (``--jobs``), separate
hosts on a shared filesystem, CI matrix shards — run the same manifest
concurrently with **no coordinator process** and no locks.  The shared
:class:`~repro.bench.orchestrator.ResultCache` is the only result store and
the only completion record: a cell is *done* iff a valid entry exists under
its content key.  An executor checks the cache just before each cell starts
and skips it when it is done, so re-running a finished campaign executes
**zero** simulations, and an executor killed mid-run loses only its
in-flight cells (everything it finished is already published).

The contract for executors that share a directory: two of them may both
run the same cell.  That is harmless — a cell's result is a deterministic
function of its spec, and :meth:`ResultCache.put` publishes through a
private temp file and ``os.replace``, so both executors write identical
bytes and a reader never sees a torn entry.  The cost is time: an executor
skips only what is already published when it reaches a cell, so two
executors started together over the same cells may duplicate most of them.
To avoid that, give each executor a disjoint ``--shard i/n`` (a static
partition by cell index, which is how CI splits a campaign).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from ..bench.orchestrator import Cell, ResultCache, execute_cells
from .manifest import Manifest, load_manifest

__all__ = [
    "ExecutorStats",
    "parse_shard",
    "run_campaign",
]


def parse_shard(text: Optional[str]) -> tuple[int, int]:
    """Parse ``"i/n"`` (0-based) into ``(i, n)``; ``None`` means ``(0, 1)``."""
    if text is None:
        return (0, 1)
    try:
        index_text, _, count_text = text.partition("/")
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"shard must look like 'i/n' (e.g. '0/2'), got {text!r}") from None
    if count < 1 or not 0 <= index < count:
        raise ValueError(
            f"shard {text!r} out of range: need 0 <= i < n with n >= 1")
    return (index, count)


@dataclass
class ExecutorStats:
    """Accounting for one executor pass over a manifest."""

    total_cells: int = 0       # campaign cells visited
    executed: int = 0          # simulations this executor ran
    cache_hits: int = 0        # cells already published when visited
    skipped_shard: int = 0     # cells outside this executor's shard
    wall_s: float = 0.0
    errors: list = field(default_factory=list)  # (cell_id, message) pairs

    def describe(self, shard: tuple[int, int]) -> str:
        parts = [
            f"{self.total_cells} cells",
            f"{self.executed} executed",
            f"{self.cache_hits} cached",
        ]
        if shard != (0, 1):
            parts.append(f"{self.skipped_shard} other-shard")
        if self.errors:
            parts.append(f"{len(self.errors)} FAILED")
        return f"shard {shard[0]}/{shard[1]}: " + ", ".join(parts) + \
               f" in {self.wall_s:.1f}s"


def run_campaign(directory, shard: tuple[int, int] = (0, 1), jobs: int = 1,
                 progress: Optional[Callable[[str], None]] = None,
                 manifest: Optional[Manifest] = None) -> ExecutorStats:
    """Execute (this shard of) a compiled campaign until no work remains.

    Streams the spec's cells once: for each cell in this shard, check the
    shared cache (done → skip), else simulate — through
    :func:`~repro.bench.orchestrator.execute_cells`, inline with ``jobs=1`` or
    on a bounded process pool, which pulls (and so cache-checks) a cell only
    when it is about to start — and publish the result to the cache.
    Everything is idempotent: rerunning a finished campaign streams straight
    through on cache hits.

    A cell whose simulation *raises* is recorded in ``stats.errors`` and left
    unpublished, so a rerun retries it; the executor keeps going — one
    poisoned cell must not strand a million-cell campaign.
    """
    manifest = manifest if manifest is not None else load_manifest(directory)
    manifest.check_substrate()
    shard_index, shard_count = shard
    if not 0 <= shard_index < shard_count:
        raise ValueError(f"shard index {shard_index} out of range for "
                         f"{shard_count} shard(s)")
    notify = progress or (lambda message: None)
    cache = ResultCache(manifest.dirs.cache_dir)
    stats = ExecutorStats()
    start = time.perf_counter()

    def next_uncached() -> Iterator[Cell]:
        for campaign_cell in manifest.spec.cells():
            stats.total_cells += 1
            if campaign_cell.index % shard_count != shard_index:
                stats.skipped_shard += 1
                continue
            if cache.contains_key(campaign_cell.key):
                stats.cache_hits += 1
                continue
            cell = campaign_cell.cell(manifest.name)
            notify(f"running    {cell.cell_id}")
            yield cell

    for cell, result in execute_cells(next_uncached(), jobs=jobs):
        try:
            if isinstance(result, BaseException):
                raise result
            cache.put(cell, result)
        except Exception as exc:  # noqa: BLE001 — isolate poisoned cells
            stats.errors.append((cell.cell_id, f"{type(exc).__name__}: {exc}"))
            notify(f"FAILED     {cell.cell_id}: {exc}")
        else:
            stats.executed += 1
            notify(f"finished   {cell.cell_id}")
    stats.wall_s = time.perf_counter() - start
    return stats


def main_progress(stream=None) -> Callable[[str], None]:
    """The default ``[campaign] ...`` progress printer (stderr)."""
    stream = stream if stream is not None else sys.stderr

    def notify(message: str) -> None:
        print(f"[campaign] {message}", file=stream)

    return notify
