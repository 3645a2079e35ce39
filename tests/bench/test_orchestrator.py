"""Tests of the parallel figure-sweep orchestrator and its on-disk cache."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.orchestrator import (
    CACHE_SCHEMA_VERSION,
    Cell,
    NullCache,
    ResultCache,
    SUBSTRATE_VERSION,
    execute_cell,
    run_cells,
)
from repro.cluster.results import RunResult
from repro.scales import TINY_SCALE
from repro.scenario import ScenarioSpec

TEST_SCALE = TINY_SCALE
BASE = ScenarioSpec(protocol="primo", workload="ycsb", scale=TEST_SCALE)


def cell(figure="figX", key="primo", **changes) -> Cell:
    return Cell(figure, key, BASE.derive(**changes))


def fingerprint(result: RunResult) -> tuple:
    return (
        result.committed,
        result.aborted,
        result.network_messages,
        tuple(result.metrics.latency.samples),
    )


# ---------------------------------------------------------------------------
# Cell specs and cache keys
# ---------------------------------------------------------------------------

def test_cache_key_ignores_figure_and_key_identity():
    a = cell(figure="fig04", key="primo")
    b = cell(figure="fig14", key="primo@n4")
    assert a.cache_key() == b.cache_key()


def test_cache_key_changes_with_physics():
    base = cell()
    assert base.cache_key() != cell(protocol="sundial", key="sundial").cache_key()
    assert base.cache_key() != cell(workload="tpcc").cache_key()
    assert base.cache_key() != cell(n_partitions=2).cache_key()
    assert (
        base.cache_key()
        != cell(workload_overrides={"zipf_theta": 0.9}).cache_key()
    )
    assert (
        base.cache_key()
        != cell(faults=[{"kind": "message_delay", "target": 1,
                         "delay_us": 1000.0}]).cache_key()
    )


def test_cache_key_is_override_order_insensitive():
    a = cell(workload_overrides={"zipf_theta": 0.4, "write_pct": 0.2})
    b = cell(workload_overrides={"write_pct": 0.2, "zipf_theta": 0.4})
    assert a.cache_key() == b.cache_key()


def test_cells_are_hashable_and_usable_as_dict_keys():
    mapping = {cell(): 1, cell(key="other"): 2}
    assert len(mapping) == 2
    assert mapping[cell()] == 1


# ---------------------------------------------------------------------------
# RunResult JSON round-trip
# ---------------------------------------------------------------------------

def test_run_result_json_round_trip_is_lossless():
    result = execute_cell(cell())
    data = json.loads(json.dumps(result.to_json_dict()))
    restored = RunResult.from_json_dict(data)
    assert fingerprint(restored) == fingerprint(result)
    assert restored.summary() == result.summary()
    assert restored.metrics.counters.as_dict() == result.metrics.counters.as_dict()
    assert restored.breakdown_us == result.breakdown_us
    assert restored.protocol == "primo" and restored.workload == "ycsb"


# ---------------------------------------------------------------------------
# Cache behavior
# ---------------------------------------------------------------------------

def test_cache_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    c = cell()
    assert cache.get(c) is None
    first = run_cells([c], jobs=1, cache=cache)
    assert first.executed == 1 and first.cache_hits == 0
    assert cache.get(c) is not None
    second = run_cells([c], jobs=1, cache=cache)
    assert second.executed == 0 and second.cache_hits == 1
    assert fingerprint(second.results[c]) == fingerprint(first.results[c])


def test_resume_after_interrupt_only_runs_missing_cells(tmp_path):
    """A pre-seeded cache dir (an interrupted sweep) resumes, not recomputes."""
    cache = ResultCache(tmp_path)
    done = cell(key="done")
    missing = cell(key="missing", protocol="sundial")
    cache.put(done, execute_cell(done).to_json_dict())

    outcome = run_cells([done, missing], jobs=1, cache=cache)
    assert outcome.cache_hits == 1
    assert outcome.executed == 1
    assert outcome.results[done].protocol == "primo"
    assert outcome.results[missing].protocol == "sundial"


def test_corrupt_or_mismatched_cache_entries_are_misses(tmp_path):
    cache = ResultCache(tmp_path)
    c = cell()
    run_cells([c], jobs=1, cache=cache)
    path = cache.path_for(c.cache_key())

    path.write_text("not json at all")
    assert cache.get(c) is None

    # Valid JSON that is not an object is also a miss, not a crash.
    path.write_text("[]")
    assert cache.get(c) is None
    path.write_text("null")
    assert cache.get(c) is None

    entry = {
        "schema": CACHE_SCHEMA_VERSION + 1,
        "substrate_version": SUBSTRATE_VERSION,
        "result": {},
    }
    path.write_text(json.dumps(entry))
    assert cache.get(c) is None

    entry = {
        "schema": CACHE_SCHEMA_VERSION,
        "substrate_version": "0.0.0-other",
        "result": {},
    }
    path.write_text(json.dumps(entry))
    assert cache.get(c) is None

    # A corrupt entry degrades to recomputation.
    outcome = run_cells([c], jobs=1, cache=cache)
    assert outcome.executed == 1 and cache.get(c) is not None


def test_an_entry_without_latency_samples_is_a_miss_not_an_empty_run(tmp_path):
    """A document written when large runs stored a latency sketch instead of
    their samples must be recomputed, not read as a run with p50 = 0."""
    cache = ResultCache(tmp_path)
    c = cell()
    run_cells([c], jobs=1, cache=cache)
    path = cache.path_for(c.cache_key())
    entry = json.loads(path.read_text())
    assert entry["schema"] == CACHE_SCHEMA_VERSION
    assert entry["substrate_version"] == SUBSTRATE_VERSION
    metrics = entry["result"]["metrics"]
    del metrics["latency_samples"]
    metrics["latency_sketch"] = {"count": metrics["committed"], "buckets": {}}
    path.write_text(json.dumps(entry))
    assert cache.get(c) is None


def test_null_cache_never_stores():
    c = cell()
    cache = NullCache()
    outcome = run_cells([c, c], jobs=1, cache=cache)
    assert outcome.executed == 1  # deduplicated within the sweep
    assert cache.get(c) is None


def test_identical_specs_share_one_simulation(tmp_path):
    a = cell(figure="fig04", key="primo")
    b = cell(figure="fig14", key="primo@n4")
    outcome = run_cells([a, b], jobs=1, cache=ResultCache(tmp_path))
    assert outcome.executed == 1
    assert outcome.deduplicated == 1
    assert outcome.results[a] is outcome.results[b]


def test_a_failing_cell_does_not_discard_finished_results(tmp_path):
    """One raising cell fails the sweep, but what was simulated is cached.

    The poisoned plan passes spec validation (the spec does not know the
    cluster's partition count) and raises when the cluster starts.
    """
    poisoned = cell(key="poisoned", faults=[
        {"kind": "slow_partition", "target": 5, "delay_us": 10.0}])
    good = [cell(key=f"seed{seed}", seed=seed) for seed in range(6)]

    cache = ResultCache(tmp_path / "pooled")
    started = []

    def progress(message: str) -> None:
        if message.startswith("running"):
            started.append(message.split()[-1])

    with pytest.raises(ValueError, match="targets partition 5"):
        run_cells([poisoned] + good, jobs=2, cache=cache, progress=progress)
    # Every cell handed out before the error surfaced was published — the
    # pool holds 2 x jobs cells, so at least three good ones...
    published = {c.cell_id for c in good if cache.get(c) is not None}
    assert published == set(started) - {poisoned.cell_id}
    assert len(published) >= 3
    # ...and a rerun simulates only what never ran.
    rerun = run_cells(good, jobs=2, cache=cache)
    assert (rerun.cache_hits, rerun.executed) == (len(published),
                                                  len(good) - len(published))

    # Inline the order is fixed: nothing starts after the first error.
    cache = ResultCache(tmp_path / "inline")
    with pytest.raises(ValueError, match="targets partition 5"):
        run_cells(good[:2] + [poisoned] + good[2:], cache=cache)
    assert [cache.get(c) is not None for c in good] == [True, True] + [False] * 4


# ---------------------------------------------------------------------------
# Fixed-seed determinism across execution paths
# ---------------------------------------------------------------------------

def test_jobs_1_and_jobs_4_produce_identical_results(tmp_path):
    cells = [
        cell(key="primo"),
        cell(key="sundial", protocol="sundial"),
        cell(key="skewed", workload_overrides={"zipf_theta": 0.9}),
        cell(key="delayed", faults=[{"kind": "message_delay", "target": 1,
                                     "delay_us": 2_000.0}]),
    ]
    inline = run_cells(cells, jobs=1, cache=None)
    pooled = run_cells(cells, jobs=4, cache=ResultCache(tmp_path))
    cached = run_cells(cells, jobs=4, cache=ResultCache(tmp_path))
    assert pooled.executed == len(cells) and cached.executed == 0
    for c in cells:
        assert fingerprint(inline.results[c]) == fingerprint(pooled.results[c])
        assert fingerprint(inline.results[c]) == fingerprint(cached.results[c])


def test_cache_keys_are_stable_across_processes():
    """A spec-derived cache key must not depend on interpreter state (hash
    randomization, registration order): a warm cache written by one process
    has to hit in the next."""
    script = (
        "from repro.bench.orchestrator import Cell\n"
        "from repro.scales import TINY_SCALE\n"
        "from repro.scenario import ScenarioSpec\n"
        "print(Cell('figX', 'k', ScenarioSpec(\n"
        "    protocol='primo', scale=TINY_SCALE, durability='coco',\n"
        "    workload_overrides={'zipf_theta': 0.9, 'write_pct': 0.2},\n"
        "    config_overrides={'n_partitions': 2})).cache_key())\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    keys = {
        subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={**env, "PYTHONHASHSEED": seed},
        ).stdout.strip()
        for seed in ("0", "12345")
    }
    local = cell(
        key="k", durability="coco", n_partitions=2,
        workload_overrides={"write_pct": 0.2, "zipf_theta": 0.9},
    ).cache_key()
    assert keys == {local}


def test_cell_spec_is_a_validated_scenario():
    from repro.scenario import ScenarioSpec

    c = cell(workload_overrides={"zipf_theta": 0.9})
    assert isinstance(c.spec, ScenarioSpec)
    assert c.spec.protocol == "primo" and c.spec.workload == "ycsb"
    assert dict(c.spec.workload_overrides) == {"zipf_theta": 0.9}
    # Cache keys hash the spec's canonical JSON plus the substrate version.
    assert c.cache_key() == Cell("other", "name", c.spec).cache_key()


def test_by_key_maps_results_for_renderers():
    cells = [cell(key="primo"), cell(key="sundial", protocol="sundial")]
    outcome = run_cells(cells, jobs=1)
    by_key = outcome.by_key(cells)
    assert set(by_key) == {"primo", "sundial"}
    assert by_key["sundial"].protocol == "sundial"
