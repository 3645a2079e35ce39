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
    executor,
    load_manifest,
    parse_shard,
    run_campaign,
)
from repro.campaign.__main__ import main
from repro.campaign.manifest import ManifestError
from repro.registry import UnknownNameError
from repro.scenario import ScenarioSpec

ROOT = Path(__file__).resolve().parents[2]
SRC = str(ROOT / "src")


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
        assert published == {cell.key for cell in manifest.spec.cells()
                             if cell.index in (3, 7)}

    def test_ci_smoke_shards_select_the_cells_they_always_have(
            self, tmp_path, monkeypatch):
        # A shard is the cells whose index is i mod n; pinned as literal ids
        # so a change to cell order or numbering cannot move work between
        # CI's two matrix shards unnoticed.  Nothing is simulated.
        selected = []

        def record_selection(cells, jobs=1):
            selected.append([cell.key for cell in cells])
            return iter(())

        monkeypatch.setattr(executor, "execute_cells", record_selection)
        directory = str(tmp_path / "ci-smoke")
        assert main(["compile", str(ROOT / "examples/campaigns/ci_smoke.json"),
                     "--out", directory, "--quiet"]) == 0
        for shard in ("0/2", "1/2"):
            assert main(["run", directory, "--shard", shard, "--quiet"]) == 0
        assert selected == [["g0r0", "g1r0", "g2r0", "g3r0"],
                            ["g0r1", "g1r1", "g2r1", "g3r1"]]


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
        # factor levels; after the manifest's JSON round trip they must thaw
        # to plain JSON that derive() accepts, not the frozen tuple-of-pairs.
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
        assert [cell.factor_json["arrival"] for cell in manifest.spec.cells()] == [
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
                          for cell in manifest.spec.cells()
                          if dict(cell.factors)["n_partitions"] == 2)
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
        victim = manifest.dirs.cache_dir / f"{next(manifest.spec.cells()).key}.json"
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
        compile_campaign(campaign, directory)
        first = (directory / "manifest.json").read_bytes()
        run_campaign(directory)
        compile_campaign(campaign, directory)
        assert (directory / "manifest.json").read_bytes() == first
        # Results are content-addressed: the rerun is still free.
        stats = run_campaign(directory)
        assert stats.executed == 0

    def test_a_compiled_directory_is_its_manifest_and_two_empty_dirs(
            self, tmp_path):
        campaign = tiny_campaign()
        directory = tmp_path / "layout"
        compile_campaign(campaign, directory)
        assert sorted(path.name for path in directory.iterdir()) == [
            "cache", "manifest.json", "reports"]
        assert not any((directory / "cache").iterdir())
        assert not any((directory / "reports").iterdir())
        doc = json.loads((directory / "manifest.json").read_text())
        assert sorted(doc) == ["campaign", "schema", "substrate_version"]
        assert doc["schema"] == 2
        assert doc["campaign"] == campaign.to_json_dict()

    def test_a_schema_1_directory_is_refused_until_recompiled(self, tmp_path):
        campaign = CampaignSpec(
            name="old-layout",
            base=ScenarioSpec(protocol="primo", workload="ycsb", scale="tiny"),
            factors={"protocol": ["primo", "sundial"]},
            seed_reps=1,
        )
        directory = tmp_path / "old-layout"
        compile_campaign(campaign, directory)
        assert run_campaign(directory).executed == 2
        # The v1 layout: a manifest with the derived shape beside a cell table.
        manifest_path = directory / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        doc.update(schema=1, name=campaign.name, total_cells=2, grid_points=2,
                   seed_reps=1, factor_names=["protocol"])
        manifest_path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        (directory / "cells.jsonl").write_text("")
        with pytest.raises(ManifestError,
                           match="unsupported manifest schema 1 .*recompile"):
            run_campaign(directory)
        assert main(["status", str(directory)]) == 1
        # Recompiling the same campaign keeps its cache: nothing reruns.
        compile_campaign(campaign, directory)
        rerun = run_campaign(directory)
        assert (rerun.executed, rerun.cache_hits) == (0, 2)

    def test_a_misspelled_level_fails_at_compile(self, tmp_path):
        # Factor names are checked when the spec is built; levels when each
        # cell derives, which compile does for every cell before it writes.
        campaign = CampaignSpec(
            name="typo",
            base=ScenarioSpec(protocol="primo", workload="ycsb", scale="tiny"),
            factors={"protocol": ["primo", "prmo"]},
        )
        directory = tmp_path / "typo"
        with pytest.raises(UnknownNameError, match="'prmo' .*did you mean 'primo'"):
            compile_campaign(campaign, directory)
        assert not (directory / "manifest.json").exists()

    def test_the_cli_reports_a_misspelled_level_as_a_usage_error(self, tmp_path, capsys):
        campaign_file = tmp_path / "typo.json"
        campaign_file.write_text(json.dumps({
            "name": "typo",
            "base": {"protocol": "primo", "workload": "ycsb", "scale": "tiny"},
            "factors": {"protocol": ["primo", "prmo"]},
        }))
        directory = tmp_path / "typo"
        with pytest.raises(SystemExit) as exit_info:
            main(["compile", str(campaign_file), "--out", str(directory), "--quiet"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "'prmo' (did you mean 'primo'?)" in err
        assert "Traceback" not in err
        assert not directory.exists()
