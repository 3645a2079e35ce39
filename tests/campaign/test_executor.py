"""Cooperative execution: sharding, idempotence, poisoned cells, cache validity.

The acceptance bar from the campaign design: N executors over one manifest
and one shared cache publish every cell, with results byte-identical to a
single executor's; a cell is done iff its cache entry decodes; and
re-running a finished campaign executes zero simulations.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.orchestrator import collect_cache_garbage
from repro.campaign import (
    CampaignSpec,
    campaign_status,
    compile_campaign,
    load_manifest,
    parse_shard,
    run_campaign,
)
from repro.campaign.manifest import ManifestError
from repro.scenario import ScenarioSpec

SRC = str(Path(__file__).resolve().parents[2] / "src")


def tiny_campaign(name="coop", seed_reps=2) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        base=ScenarioSpec(protocol="primo", workload="ycsb", scale="tiny"),
        factors={"protocol": ["primo", "sundial"], "zipf_theta": [0.2, 0.8]},
        seed_reps=seed_reps,
    )


def cache_bytes(directory) -> dict:
    """Cache-entry file name -> raw bytes, for byte-identity comparison."""
    cache_dir = Path(directory) / "cache"
    return {
        path.name: path.read_bytes()
        for path in sorted(cache_dir.glob("*.json"))
    }


def run_executor_process(directory) -> subprocess.Popen:
    """Start ``python -m repro.campaign run DIRECTORY`` in its own process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.campaign", "run", str(directory),
         "--quiet"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


class TestShards:
    def test_parse_shard(self):
        assert parse_shard(None) == (0, 1)
        assert parse_shard("1/4") == (1, 4)
        with pytest.raises(ValueError, match="i/n"):
            parse_shard("one/two")
        with pytest.raises(ValueError, match="out of range"):
            parse_shard("4/4")

    @pytest.mark.parametrize("text", ["0/0", "-1/2", "1/2/3"])
    def test_parse_shard_rejects_malformed_shards(self, text):
        with pytest.raises(ValueError, match="shard"):
            parse_shard(text)

    def test_run_refuses_a_shard_index_past_the_count(self, tmp_path):
        directory = tmp_path / "shard-range"
        compile_campaign(tiny_campaign(), directory)
        with pytest.raises(ValueError, match="out of range"):
            run_campaign(directory, shard=(2, 2))

    def test_a_shard_past_the_last_cell_runs_nothing(self, tmp_path):
        campaign = tiny_campaign()
        directory = tmp_path / "empty-shard"
        compile_campaign(campaign, directory)
        stats = run_campaign(directory, shard=parse_shard("9/10"))
        assert campaign.total_cells == 8
        assert (stats.executed, stats.cache_hits) == (0, 0)
        assert stats.skipped_shard == stats.total_cells == 8
        assert not stats.errors

    def test_a_shard_runs_exactly_the_cells_its_index_selects(self, tmp_path):
        directory = tmp_path / "shard-3-of-4"
        manifest = compile_campaign(tiny_campaign(), directory)
        stats = run_campaign(directory, shard=(3, 4))
        assert (stats.executed, stats.skipped_shard) == (2, 6)
        published = {path.stem for path in (directory / "cache").glob("*.json")}
        assert published == {cell.key for cell in manifest.iter_cells()
                             if cell.index in (3, 7)}


class TestCooperation:
    def test_two_executor_processes_publish_every_cell_byte_identical_to_one(
            self, tmp_path):
        campaign = tiny_campaign()
        solo_dir = tmp_path / "solo"
        coop_dir = tmp_path / "coop"
        compile_campaign(campaign, solo_dir)
        compile_campaign(campaign, coop_dir)

        solo_stats = run_campaign(solo_dir)
        assert solo_stats.executed == campaign.total_cells

        # Two unsharded executor processes race over the SAME manifest and
        # cache; the cache is the only coordination, so a cell may run twice.
        executors = [run_executor_process(coop_dir) for _ in range(2)]
        try:
            outputs = [proc.communicate(timeout=300) for proc in executors]
        finally:
            for proc in executors:
                proc.kill()  # a no-op once the process has exited
        executed = 0
        for proc, (out, err) in zip(executors, outputs):
            assert proc.returncode == 0, err
            executed += int(re.search(r" (\d+) executed,", out).group(1))

        assert executed >= campaign.total_cells
        assert campaign_status(coop_dir).done == campaign.total_cells
        # Byte-for-byte the same result files as the single executor.
        assert cache_bytes(coop_dir) == cache_bytes(solo_dir)

    def test_disjoint_shards_union_to_the_full_campaign(self, tmp_path):
        campaign = tiny_campaign()
        directory = tmp_path / "sharded"
        compile_campaign(campaign, directory)
        stats0 = run_campaign(directory, shard=(0, 2))
        stats1 = run_campaign(directory, shard=(1, 2))
        assert stats0.executed + stats1.executed == campaign.total_cells
        assert stats0.skipped_shard == stats1.executed
        assert stats1.cache_hits == 0  # disjoint: no overlap to hit

    def test_finished_campaign_reruns_with_zero_executions(self, tmp_path):
        campaign = tiny_campaign()
        directory = tmp_path / "idem"
        compile_campaign(campaign, directory)
        run_campaign(directory)
        before = cache_bytes(directory)
        stats = run_campaign(directory)
        assert stats.executed == 0
        assert stats.cache_hits == campaign.total_cells
        assert cache_bytes(directory) == before

    def test_dict_valued_factor_levels_survive_compile_then_run(self, tmp_path):
        # Arrival specs (and workload mixes, fault plans) are dict-valued
        # factor levels; they must land in cells.jsonl as plain JSON that
        # derive() accepts, not as the campaign's frozen tuple-of-pairs.
        campaign = CampaignSpec(
            name="open-loop",
            base=ScenarioSpec(protocol="primo", workload="ycsb", scale="tiny"),
            factors={"arrival": [{"kind": "poisson", "rate_tps": 40_000},
                                 {"kind": "poisson", "rate_tps": 80_000}]},
            seed_reps=1,
        )
        directory = tmp_path / "open-loop"
        compile_campaign(campaign, directory)
        manifest = load_manifest(directory)  # full JSON round trip
        assert [cell.factors["arrival"] for cell in manifest.iter_cells()] == [
            {"kind": "poisson", "rate_tps": 40_000},
            {"kind": "poisson", "rate_tps": 80_000},
        ]
        stats = run_campaign(directory)
        assert stats.executed == campaign.total_cells
        assert not stats.errors

    def test_pool_execution_matches_inline_bytes(self, tmp_path):
        campaign = tiny_campaign(seed_reps=1)
        inline_dir = tmp_path / "inline"
        pooled_dir = tmp_path / "pooled"
        compile_campaign(campaign, inline_dir)
        compile_campaign(campaign, pooled_dir)
        run_campaign(inline_dir, jobs=1)
        stats = run_campaign(pooled_dir, jobs=2)
        assert stats.executed == campaign.total_cells
        assert cache_bytes(pooled_dir) == cache_bytes(inline_dir)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_raising_cell_is_recorded_and_skipped_over(self, tmp_path, jobs):
        # The base plan targets partition 3, which the two-partition half of
        # the grid does not have: those cells pass spec validation and raise
        # when their cluster starts.
        campaign = CampaignSpec(
            name="poisoned",
            base=ScenarioSpec(
                protocol="primo", workload="ycsb", scale="tiny",
                faults=[{"kind": "slow_partition", "target": 3, "delay_us": 10.0}]),
            factors={"n_partitions": [2, 4], "zipf_theta": [0.2, 0.8]},
            seed_reps=1,
        )
        directory = tmp_path / "poisoned"
        manifest = compile_campaign(campaign, directory)
        poisoned = sorted(f"campaign:poisoned/{cell.cell_id}"
                          for cell in manifest.iter_cells()
                          if cell.factors["n_partitions"] == 2)
        assert len(poisoned) == 2

        stats = run_campaign(directory, jobs=jobs)
        assert stats.executed == 2  # the executor kept going past the errors
        assert sorted(cell_id for cell_id, _ in stats.errors) == poisoned
        assert all("targets partition 3" in message for _, message in stats.errors)
        assert len(list(manifest.dirs.cache_dir.glob("*.json"))) == 2
        # ...nothing of theirs is published, so a rerun retries exactly them.
        rerun = run_campaign(directory, jobs=jobs)
        assert (rerun.cache_hits, rerun.executed) == (2, 0)
        assert sorted(cell_id for cell_id, _ in rerun.errors) == poisoned


class TestCacheValidity:
    def test_an_entry_whose_result_does_not_decode_is_rerun_and_collected(
            self, tmp_path):
        campaign = CampaignSpec(
            name="undecodable",
            base=ScenarioSpec(protocol="primo", workload="ycsb", scale="tiny"),
            factors={"protocol": ["primo", "sundial"]},
            seed_reps=1,
        )
        directory = tmp_path / "undecodable"
        manifest = compile_campaign(campaign, directory)
        assert run_campaign(directory).executed == 2
        # An entry with the current versions whose result no longer decodes:
        # a document without latency samples is a miss, not a p50 of 0.
        victim = manifest.dirs.cache_dir / f"{next(manifest.iter_cells()).key}.json"
        entry = json.loads(victim.read_text())
        del entry["result"]["metrics"]["latency_samples"]
        victim.write_text(json.dumps(entry, sort_keys=True))

        report = collect_cache_garbage(manifest.dirs.cache_dir, dry_run=True)
        assert (report.kept, report.stale_entries) == (1, 1)
        rerun = run_campaign(directory)
        assert (rerun.executed, rerun.cache_hits) == (1, 1)
        assert "latency_samples" in json.loads(victim.read_text())["result"]["metrics"]


class TestManifest:
    def test_load_requires_compile(self, tmp_path):
        with pytest.raises(ManifestError, match="no manifest.json"):
            load_manifest(tmp_path / "nowhere")

    def test_substrate_skew_is_refused(self, tmp_path):
        campaign = tiny_campaign(seed_reps=1)
        directory = tmp_path / "skewed"
        compile_campaign(campaign, directory)
        manifest_path = directory / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        doc["substrate_version"] = "0.0.1"
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="recompile"):
            run_campaign(directory)

    def test_recompiling_a_different_campaign_over_state_is_refused(self, tmp_path):
        directory = tmp_path / "taken"
        compile_campaign(tiny_campaign(seed_reps=1), directory)
        run_campaign(directory)  # leaves cache state behind
        with pytest.raises(ManifestError, match="different campaign"):
            compile_campaign(tiny_campaign(name="other", seed_reps=1), directory)

    def test_recompiling_the_same_campaign_is_fine(self, tmp_path):
        campaign = tiny_campaign(seed_reps=1)
        directory = tmp_path / "same"
        first = compile_campaign(campaign, directory)
        run_campaign(directory)
        second = compile_campaign(campaign, directory)
        assert second.total_cells == first.total_cells
        # Results are content-addressed: the rerun is still free.
        stats = run_campaign(directory)
        assert stats.executed == 0

    def test_derivation_drift_is_detected(self, tmp_path):
        campaign = tiny_campaign(seed_reps=1)
        directory = tmp_path / "drift"
        compile_campaign(campaign, directory)
        # Corrupt one manifest line's content key, as if the checkout's
        # derive() semantics no longer match the compiled table.
        cells_path = directory / "cells.jsonl"
        lines = cells_path.read_text().splitlines()
        doc = json.loads(lines[0])
        doc["key"] = "0" * 32
        lines[0] = json.dumps(doc)
        cells_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError, match="drifted"):
            run_campaign(directory)
