"""Coordinator-free campaign execution: claims + content-keyed cache.

Any number of executors — processes on one machine (``--jobs``), separate
hosts on a shared filesystem, CI matrix shards — run the same manifest
concurrently with **no coordinator process**.  Two pieces make that safe:

Claims
    Before simulating a cell, an executor atomically creates
    ``claims/<content-key>.claim`` with ``O_CREAT | O_EXCL`` — the filesystem
    guarantees exactly one winner per key.  Losers skip the cell and move on;
    the winner releases the claim after publishing its result.  A claim whose
    mtime is older than the TTL belongs to a **dead executor** (killed
    mid-cell): reclaim goes through ``os.rename`` to a reclaimer-private
    tombstone — of N concurrent reclaimers exactly one rename succeeds, the
    winner re-checks the tombstone's age (a claim refreshed between stat and
    rename is restored, not reaped), and only that winner retries the
    ``O_CREAT | O_EXCL`` creation.  Duplicate concurrent execution is thereby
    confined to vanishing scheduling windows — and is harmless anyway:
    results are deterministic and cache writes are atomic, so concurrent
    writers publish identical bytes.  (The same applies if an executor
    simply outlives the TTL on one cell.)

Results
    The shared :class:`~repro.bench.orchestrator.ResultCache` is the only
    result store and the only completion record.  A cell is *done* iff a
    valid entry exists under its content key; executors check the cache
    before claiming, so re-running a finished campaign executes **zero**
    simulations, and a crashed executor loses at most its in-flight cells
    (their claims expire; their finished cells are already published).

Sharding (``--shard i/n``) is an optional static pre-partition by cell index
— it removes claim contention entirely when shards are disjoint by
construction (CI matrix jobs with per-shard caches), while the claim protocol
alone suffices when executors genuinely share a directory.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

from ..bench.orchestrator import Cell, ResultCache, execute_cells
from .manifest import Manifest, load_manifest

__all__ = [
    "DEFAULT_CLAIM_TTL_S",
    "ExecutorStats",
    "parse_shard",
    "run_campaign",
    "sweep_stale_claims",
    "try_claim",
]

#: Default seconds before an unreleased claim counts as abandoned.  Must
#: comfortably exceed one cell's wall time; tiny/small-scale cells finish in
#: seconds, so 15 minutes is conservative without stranding cells for long
#: after a crash.
DEFAULT_CLAIM_TTL_S = 900.0


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


def _claim_path(claims_dir: Path, key: str) -> Path:
    return claims_dir / f"{key}.claim"


def try_claim(claims_dir: Path, key: str,
              claim_ttl_s: float = DEFAULT_CLAIM_TTL_S) -> bool:
    """Atomically claim one cell; ``True`` iff this executor now owns it.

    A live claim by someone else returns ``False``.  A stale claim (mtime
    older than ``claim_ttl_s``) is reaped with a single winner: it is
    renamed to a reclaimer-private tombstone (only one concurrent rename
    can succeed; the losers back off), the tombstone's age is re-checked —
    a claim refreshed between the stat and the rename is renamed back, not
    reaped — and only the reclaimer that removed a genuinely stale claim
    retries the ``O_CREAT | O_EXCL`` creation.
    """
    claims_dir.mkdir(parents=True, exist_ok=True)
    path = _claim_path(claims_dir, key)
    payload = json.dumps({
        "pid": os.getpid(),
        "host": socket.gethostname(),
        "claimed_at": time.time(),
    })
    for attempt in range(2):
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            if attempt:
                return False
            try:
                age = time.time() - path.stat().st_mtime
            except OSError:
                continue  # released between open and stat: retry the claim
            if age < claim_ttl_s:
                return False
            if not _reap_claim(path, claim_ttl_s):
                return False  # another reclaimer won the race; not our cell
            continue
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        return True
    return False


def _reap_claim(path: Path, claim_ttl_s: float) -> bool:
    """Remove one stale claim with a single winner; ``True`` iff we did.

    Plain unlink-then-retry lets two reclaimers both "succeed": B stats the
    stale claim, A reaps it and ``O_EXCL``-creates a fresh one, then B
    unlinks A's *fresh* claim and claims too.  Renaming first closes that:
    exactly one rename of the claim succeeds (everyone else gets ENOENT and
    backs off), and the winner — now sole owner of the tombstone — re-checks
    its age, renaming a claim that turned out fresh back into place instead
    of reaping it.
    """
    tombstone = path.with_name(f"{path.name}.reap{os.getpid()}")
    try:
        os.rename(path, tombstone)
    except OSError:
        return False  # already reaped (or released) by someone else
    try:
        stale = time.time() - tombstone.stat().st_mtime >= claim_ttl_s
    except OSError:
        return False  # tombstone gone (swept concurrently): treat as lost
    if not stale:
        # The stat that sent us here saw a different, older claim file; we
        # grabbed a live one — put it back untouched and back off.
        try:
            os.rename(tombstone, path)
        except OSError:
            pass
        return False
    try:
        os.unlink(tombstone)
    except OSError:
        pass
    return True


def release_claim(claims_dir: Path, key: str) -> None:
    try:
        _claim_path(claims_dir, key).unlink()
    except OSError:
        pass


def sweep_stale_claims(claims_dir, claim_ttl_s: float = DEFAULT_CLAIM_TTL_S,
                       dry_run: bool = False) -> tuple[int, int]:
    """Remove expired claim files; returns ``(count, bytes_reclaimed)``.

    Executors reclaim lazily (only for cells they visit), so a campaign
    abandoned mid-run can leave dead claims behind; ``scripts/cache_gc.py
    --claims`` sweeps them eagerly.  Reap tombstones orphaned by a reclaimer
    killed mid-reap age out the same way.  Live claims are never touched.
    """
    claims_dir = Path(claims_dir)
    swept = 0
    bytes_reclaimed = 0
    if not claims_dir.is_dir():
        return (0, 0)
    now = time.time()
    for path in sorted(claims_dir.glob("*.claim")) + \
            sorted(claims_dir.glob("*.claim.reap*")):
        try:
            stat = path.stat()
            if now - stat.st_mtime < claim_ttl_s:
                continue
            if not dry_run:
                path.unlink()
            swept += 1
            bytes_reclaimed += stat.st_size
        except OSError:
            continue  # claimed/released concurrently; fine
    return (swept, bytes_reclaimed)


@dataclass
class ExecutorStats:
    """Accounting for one executor pass over a manifest."""

    total_cells: int = 0       # manifest lines visited
    executed: int = 0          # simulations this executor ran
    cache_hits: int = 0        # cells already published when visited
    skipped_claimed: int = 0   # cells another live executor owned
    skipped_shard: int = 0     # cells outside this executor's shard
    reclaimed: int = 0         # expired claims this executor reaped
    wall_s: float = 0.0
    errors: list = field(default_factory=list)  # (cell_id, message) pairs

    @property
    def completed_here(self) -> int:
        return self.executed + self.cache_hits

    def describe(self, shard: tuple[int, int]) -> str:
        parts = [
            f"{self.total_cells} cells",
            f"{self.executed} executed",
            f"{self.cache_hits} cached",
        ]
        if shard != (0, 1):
            parts.append(f"{self.skipped_shard} other-shard")
        if self.skipped_claimed:
            parts.append(f"{self.skipped_claimed} claimed elsewhere")
        if self.reclaimed:
            parts.append(f"{self.reclaimed} stale claims reclaimed")
        if self.errors:
            parts.append(f"{len(self.errors)} FAILED")
        return f"shard {shard[0]}/{shard[1]}: " + ", ".join(parts) + \
               f" in {self.wall_s:.1f}s"


def run_campaign(directory, shard: tuple[int, int] = (0, 1), jobs: int = 1,
                 claim_ttl_s: float = DEFAULT_CLAIM_TTL_S,
                 progress: Optional[Callable[[str], None]] = None,
                 manifest: Optional[Manifest] = None) -> ExecutorStats:
    """Execute (this shard of) a compiled campaign until no work remains.

    Streams the manifest once: for each cell in this shard, check the shared
    cache (done → skip), try to claim (lost → skip; someone live owns it),
    else simulate — through :func:`~repro.bench.orchestrator.execute_cells`,
    inline with ``jobs=1`` or on a bounded process pool, which pulls (and so
    claims) a cell only when it is about to start — publish to the cache,
    and release the claim.  Everything is idempotent: rerunning a finished
    campaign streams straight through on cache hits.

    A cell whose simulation *raises* is recorded in ``stats.errors`` and its
    claim released so another executor (or a rerun) can retry; the executor
    keeps going — one poisoned cell must not strand a million-cell campaign.
    """
    manifest = manifest if manifest is not None else load_manifest(directory)
    manifest.check_substrate()
    shard_index, shard_count = shard
    if not 0 <= shard_index < shard_count:
        raise ValueError(f"shard index {shard_index} out of range for "
                         f"{shard_count} shard(s)")
    notify = progress or (lambda message: None)
    cache = ResultCache(manifest.dirs.cache_dir)
    claims_dir = manifest.dirs.claims_dir
    stats = ExecutorStats()
    start = time.perf_counter()
    claimed: dict[Cell, str] = {}  # started, not yet published -> content key

    def claim_next() -> Iterator[Cell]:
        for manifest_cell in manifest.iter_cells():
            stats.total_cells += 1
            if manifest_cell.index % shard_count != shard_index:
                stats.skipped_shard += 1
                continue
            key = manifest_cell.key
            if cache.contains_key(key):
                stats.cache_hits += 1
                continue
            claim_existed = _claim_path(claims_dir, key).exists()
            if not try_claim(claims_dir, key, claim_ttl_s):
                stats.skipped_claimed += 1
                notify(f"claimed    {manifest_cell.cell_id} (by another executor)")
                continue
            if claim_existed:
                stats.reclaimed += 1
            # Claimed after the cache check — but a reclaimed cell may have
            # been published by its dying owner; recheck before simulating.
            if cache.contains_key(key):
                release_claim(claims_dir, key)
                stats.cache_hits += 1
                continue
            try:
                cell = manifest.derive_cell(manifest_cell)
            except Exception:
                release_claim(claims_dir, key)
                raise  # derivation drift poisons every cell: stop loudly
            claimed[cell] = key
            notify(f"running    {cell.cell_id}")
            yield cell

    try:
        for cell, result in execute_cells(claim_next(), jobs=jobs):
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
            release_claim(claims_dir, claimed.pop(cell))
    finally:
        # Anything still claimed but never published (torn down by an
        # exception) goes back to the table.
        for key in claimed.values():
            release_claim(claims_dir, key)
    stats.wall_s = time.perf_counter() - start
    return stats


def main_progress(stream=None) -> Callable[[str], None]:
    """The default ``[campaign] ...`` progress printer (stderr)."""
    stream = stream if stream is not None else sys.stderr

    def notify(message: str) -> None:
        print(f"[campaign] {message}", file=stream)

    return notify
