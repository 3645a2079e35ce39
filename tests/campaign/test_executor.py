"""Cooperative execution: claims, sharding, crash recovery, idempotence.

The acceptance bar from the campaign design: N executors over one manifest
and one shared cache complete every cell exactly once with results
byte-identical to a single executor; a claim left by an executor killed
mid-cell is re-claimed after its TTL; and re-running a finished campaign
executes zero simulations.
"""

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignSpec,
    compile_campaign,
    load_manifest,
    parse_shard,
    run_campaign,
    sweep_stale_claims,
)
from repro.campaign.executor import release_claim, try_claim
from repro.campaign.manifest import ManifestError
from repro.scenario import ScenarioSpec


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


class TestClaims:
    def test_exactly_one_winner(self, tmp_path):
        claims = tmp_path / "claims"
        assert try_claim(claims, "k1") is True
        assert try_claim(claims, "k1") is False      # live claim holds
        release_claim(claims, "k1")
        assert try_claim(claims, "k1") is True       # released: claimable again

    def test_stale_claim_is_reclaimed(self, tmp_path):
        claims = tmp_path / "claims"
        assert try_claim(claims, "k1", claim_ttl_s=1000.0)
        # Age the claim past the TTL, as if its owner died mid-cell.
        path = claims / "k1.claim"
        old = time.time() - 2000.0
        os.utime(path, (old, old))
        assert try_claim(claims, "k1", claim_ttl_s=1000.0) is True
        # The reclaim rewrote the file with a fresh mtime: now it holds.
        assert try_claim(claims, "k1", claim_ttl_s=1000.0) is False

    def test_concurrent_stale_reclaimers_have_one_winner(self, tmp_path):
        # The reclaim path (rename-to-tombstone, then re-create) must pick a
        # single winner just like the fresh-claim path does.
        claims = tmp_path / "claims"
        assert try_claim(claims, "k1", claim_ttl_s=1000.0)
        old = time.time() - 2000.0
        os.utime(claims / "k1.claim", (old, old))
        wins = []
        barrier = threading.Barrier(8)

        def contend():
            barrier.wait()
            if try_claim(claims, "k1", claim_ttl_s=1000.0):
                wins.append(1)

        threads = [threading.Thread(target=contend) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(wins) == 1
        assert (claims / "k1.claim").exists()  # the winner's fresh claim
        assert len(list(claims.iterdir())) == 1  # no tombstones left behind

    def test_reap_restores_a_claim_that_turned_out_fresh(self, tmp_path):
        from repro.campaign.executor import _reap_claim

        claims = tmp_path / "claims"
        assert try_claim(claims, "k1")
        path = claims / "k1.claim"
        payload = path.read_bytes()
        # A reaper whose stat raced a refresh finds a fresh file once it
        # owns the tombstone: it must rename the claim back, not reap it.
        assert _reap_claim(path, claim_ttl_s=1000.0) is False
        assert path.read_bytes() == payload
        # A genuinely stale claim is reaped, tombstone included.
        old = time.time() - 2000.0
        os.utime(path, (old, old))
        assert _reap_claim(path, claim_ttl_s=1000.0) is True
        assert not list(claims.iterdir())

    def test_concurrent_claimers_have_one_winner(self, tmp_path):
        claims = tmp_path / "claims"
        wins = []
        barrier = threading.Barrier(8)

        def contend():
            barrier.wait()
            if try_claim(claims, "contested"):
                wins.append(1)

        threads = [threading.Thread(target=contend) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(wins) == 1

    def test_sweep_stale_claims(self, tmp_path):
        claims = tmp_path / "claims"
        try_claim(claims, "fresh")
        try_claim(claims, "dead")
        old = time.time() - 5000.0
        os.utime(claims / "dead.claim", (old, old))
        swept, freed = sweep_stale_claims(claims, claim_ttl_s=1000.0,
                                          dry_run=True)
        assert swept == 1 and (claims / "dead.claim").exists()
        swept, freed = sweep_stale_claims(claims, claim_ttl_s=1000.0)
        assert swept == 1 and freed > 0
        assert not (claims / "dead.claim").exists()
        assert (claims / "fresh.claim").exists()

    def test_sweep_reaps_orphaned_tombstones(self, tmp_path):
        # A reclaimer killed between rename and unlink leaks a tombstone;
        # the eager sweep ages it out like any dead claim.
        claims = tmp_path / "claims"
        claims.mkdir()
        tombstone = claims / "k1.claim.reap42"
        tombstone.write_text("{}")
        old = time.time() - 5000.0
        os.utime(tombstone, (old, old))
        swept, freed = sweep_stale_claims(claims, claim_ttl_s=1000.0)
        assert swept == 1 and freed > 0
        assert not tombstone.exists()

    def test_parse_shard(self):
        assert parse_shard(None) == (0, 1)
        assert parse_shard("1/4") == (1, 4)
        with pytest.raises(ValueError, match="i/n"):
            parse_shard("one/two")
        with pytest.raises(ValueError, match="out of range"):
            parse_shard("4/4")


class TestCooperation:
    def test_two_executors_complete_exactly_once_and_byte_identical(self, tmp_path):
        campaign = tiny_campaign()
        solo_dir = tmp_path / "solo"
        coop_dir = tmp_path / "coop"
        compile_campaign(campaign, solo_dir)
        compile_campaign(campaign, coop_dir)

        solo_stats = run_campaign(solo_dir)
        assert solo_stats.executed == campaign.total_cells

        # Two concurrent executors race over the SAME manifest and cache;
        # claims (not sharding) are the only coordination.
        results = []

        def executor():
            results.append(run_campaign(coop_dir, claim_ttl_s=600.0))

        threads = [threading.Thread(target=executor) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        executed = sum(stats.executed for stats in results)
        assert executed == campaign.total_cells  # exactly once, no dupes
        assert not any(stats.errors for stats in results)
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

    def test_killed_executor_claim_is_reclaimed_after_ttl(self, tmp_path):
        campaign = tiny_campaign(seed_reps=1)
        directory = tmp_path / "crashy"
        manifest = compile_campaign(campaign, directory)
        victim = next(manifest.iter_cells())
        # Simulate an executor that claimed a cell and died: stale claim, no
        # cache entry.
        assert try_claim(manifest.dirs.claims_dir, victim.key,
                         claim_ttl_s=1000.0)
        old = time.time() - 5000.0
        os.utime(manifest.dirs.claims_dir / f"{victim.key}.claim", (old, old))

        # Under a TTL longer than the claim's age the cell is stranded...
        stats = run_campaign(directory, claim_ttl_s=10_000.0)
        assert stats.skipped_claimed == 1
        assert stats.executed == campaign.total_cells - 1
        # ...and once the claim expires, the next executor reclaims and runs it.
        stats = run_campaign(directory, claim_ttl_s=1000.0)
        assert stats.reclaimed == 1
        assert stats.executed == 1
        assert not list(manifest.dirs.claims_dir.glob("*.claim"))

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
    def test_a_raising_cell_is_recorded_released_and_skipped_over(self, tmp_path, jobs):
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
        assert not list(manifest.dirs.claims_dir.iterdir())  # claims released
        # ...so a rerun retries exactly the failed cells.
        rerun = run_campaign(directory, jobs=jobs)
        assert (rerun.cache_hits, rerun.executed) == (2, 0)
        assert sorted(cell_id for cell_id, _ in rerun.errors) == poisoned


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
