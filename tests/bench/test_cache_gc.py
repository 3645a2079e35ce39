"""Cache garbage collection: version-skew pruning and tmp-file reaping."""

import json
import os
import time

from repro.bench.orchestrator import (
    CACHE_SCHEMA_VERSION,
    SUBSTRATE_VERSION,
    Cell,
    ResultCache,
    collect_cache_garbage,
)
from repro.scenario import ScenarioSpec


#: The smallest result document ``RunResult.from_json_dict`` decodes.
RESULT = {
    "protocol": "primo", "durability": "coco", "workload": "ycsb",
    "n_partitions": 2, "metrics": {"committed": 1, "aborted": 0,
                                   "crash_aborted": 0, "duration_us": 1.0,
                                   "latency_samples": [], "breakdown": {},
                                   "counters": {}},
    "network_messages": 0, "per_txn_type": {}, "abort_reasons": {},
}


def valid_entry(tmp_path, key="a" * 32) -> None:
    cache = ResultCache(tmp_path)
    cache.root.mkdir(parents=True, exist_ok=True)
    entry = {
        "schema": CACHE_SCHEMA_VERSION,
        "substrate_version": SUBSTRATE_VERSION,
        "result": RESULT,
    }
    (cache.root / f"{key}.json").write_text(json.dumps(entry))


def test_gc_keeps_valid_entries_and_prunes_skewed_ones(tmp_path):
    valid_entry(tmp_path, key="b" * 32)
    (tmp_path / ("c" * 32 + ".json")).write_text(json.dumps({
        "schema": CACHE_SCHEMA_VERSION - 1,
        "substrate_version": SUBSTRATE_VERSION,
        "result": {},
    }))
    (tmp_path / ("d" * 32 + ".json")).write_text(json.dumps({
        "schema": CACHE_SCHEMA_VERSION,
        "substrate_version": "0.0.0-ancient",
        "result": {},
    }))
    (tmp_path / ("e" * 32 + ".json")).write_text("{not json")

    report = collect_cache_garbage(tmp_path)
    assert report.kept == 1
    assert report.stale_entries == 3
    assert report.bytes_reclaimed > 0
    assert (tmp_path / ("b" * 32 + ".json")).exists()
    assert not (tmp_path / ("c" * 32 + ".json")).exists()


def test_gc_dry_run_deletes_nothing(tmp_path):
    (tmp_path / ("f" * 32 + ".json")).write_text("corrupt")
    report = collect_cache_garbage(tmp_path, dry_run=True)
    assert report.dry_run and report.stale_entries == 1
    assert report.bytes_reclaimed > 0
    assert (tmp_path / ("f" * 32 + ".json")).exists()
    assert "would reclaim" in report.describe()


def test_gc_reaps_only_old_tmp_files(tmp_path):
    tmp_path.mkdir(exist_ok=True)
    fresh = tmp_path / ".tmp-fresh.json"
    fresh.write_text("in-flight write")
    old = tmp_path / ".tmp-old.json"
    old.write_text("abandoned write")
    stamp = time.time() - 7200.0
    os.utime(old, (stamp, stamp))

    report = collect_cache_garbage(tmp_path, tmp_age_s=3600.0)
    assert report.orphaned_tmp == 1
    assert fresh.exists()       # may belong to a live ResultCache.put
    assert not old.exists()


def test_gc_of_a_missing_directory_is_a_noop(tmp_path):
    report = collect_cache_garbage(tmp_path / "never-created")
    assert report.kept == report.stale_entries == report.bytes_reclaimed == 0


def test_gc_never_touches_what_get_would_serve(tmp_path):
    # The invariant that makes GC safe to run during a sweep: everything GC
    # removes is already invisible to ResultCache.get.
    cache = ResultCache(tmp_path)
    cell = Cell("fig", "point", ScenarioSpec(protocol="primo", scale="tiny"))
    cache.put(cell, RESULT)
    before = cache.get(cell)
    assert before is not None
    collect_cache_garbage(tmp_path)
    after = cache.get(cell)
    assert after is not None
    assert after.to_json_dict() == before.to_json_dict()
