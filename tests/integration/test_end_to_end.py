"""End-to-end directional checks of the paper's main claims.

These are scaled-down versions of the evaluation: they assert *directions*
(who wins, how latency compares), not absolute numbers, so they stay robust
to the small configurations used in CI.
"""

from dataclasses import replace

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.config import SystemConfig
from repro.scenario import ScenarioSpec
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload


def run(protocol, durability=None, ycsb=None, **overrides):
    config = SystemConfig(
        protocol=protocol,
        durability=ScenarioSpec(protocol=protocol, durability=durability).resolved_durability,
        n_partitions=overrides.pop("n_partitions", 4),
        workers_per_partition=overrides.pop("workers_per_partition", 2),
        inflight_per_worker=overrides.pop("inflight_per_worker", 2),
        duration_us=overrides.pop("duration_us", 20_000.0),
        warmup_us=overrides.pop("warmup_us", 5_000.0),
        seed=overrides.pop("seed", 11),
        **overrides,
    )
    params = dict(keys_per_partition=5_000, zipf_theta=0.6, distributed_pct=0.2)
    params.update(ycsb or {})
    cluster = Cluster(config, YCSBWorkload(YCSBConfig(**params)))
    return cluster.run()


@pytest.fixture(scope="module")
def overall_results():
    """Shared runs for the headline-comparison assertions."""
    return {
        "primo": run("primo"),
        "sundial": run("sundial"),
        "2pl_nw": run("2pl_nw"),
        "silo": run("silo"),
    }


def test_primo_beats_every_2pc_baseline_on_default_ycsb(overall_results):
    primo = overall_results["primo"].throughput_tps
    for name in ("sundial", "2pl_nw", "silo"):
        assert primo > overall_results[name].throughput_tps, (
            f"Primo should outperform {name} on the default YCSB mix"
        )


def test_primo_improvement_factor_is_in_a_plausible_range(overall_results):
    """The paper reports 1.91x over the best baseline on YCSB; accept a broad band."""
    best_baseline = max(
        overall_results[name].throughput_tps for name in ("sundial", "2pl_nw", "silo")
    )
    factor = overall_results["primo"].throughput_tps / best_baseline
    assert 1.1 < factor < 4.0


def test_primo_has_lower_abort_rate_than_2pl(overall_results):
    assert overall_results["primo"].abort_rate <= overall_results["2pl_nw"].abort_rate


def test_group_commit_latency_is_millisecond_scale(overall_results):
    """Both Primo (WM) and the COCO-based baselines trade latency for throughput."""
    assert 1.0 < overall_results["primo"].mean_latency_ms < 60.0
    assert 1.0 < overall_results["sundial"].mean_latency_ms < 60.0


def test_contention_amplifies_primos_advantage():
    """Fig. 6: Primo's margin over a 2PC-based scheme grows with the Zipf skew."""
    low = {"zipf_theta": 0.0, "keys_per_partition": 5_000}
    high = {"zipf_theta": 0.95, "keys_per_partition": 2_000}
    low_ratio = (
        run("primo", ycsb=low).throughput_tps
        / run("2pl_nw", ycsb=low).throughput_tps
    )
    high_ratio = (
        run("primo", ycsb=high).throughput_tps
        / run("2pl_nw", ycsb=high).throughput_tps
    )
    assert high_ratio > low_ratio


def test_write_heavy_workloads_favour_primo():
    """Fig. 8: baselines degrade with more writes, Primo stays comparatively stable."""
    primo_heavy = run("primo", ycsb={"write_pct": 0.9})
    sundial_heavy = run("sundial", ycsb={"write_pct": 0.9})
    assert primo_heavy.throughput_tps > sundial_heavy.throughput_tps * 1.2


def test_wm_scales_better_than_coco_with_many_partitions():
    """Fig. 14: with WCF fixed, the WM scheme beats COCO at higher partition counts."""
    wm = run("primo", n_partitions=8, workers_per_partition=2)
    coco = run("primo", durability="coco", n_partitions=8, workers_per_partition=2)
    assert wm.throughput_tps >= coco.throughput_tps


def test_wm_throughput_is_insensitive_to_watermark_message_delay():
    """Fig. 13a: delaying one partition's watermark broadcasts leaves throughput intact."""
    config = SystemConfig(
        protocol="primo", durability="wm", n_partitions=4, workers_per_partition=2,
        inflight_per_worker=2, duration_us=20_000.0, warmup_us=5_000.0, seed=11,
    )
    workload = YCSBWorkload(YCSBConfig(keys_per_partition=5_000))
    baseline_cluster = Cluster(config, workload)
    baseline = baseline_cluster.run()

    delayed_cluster = Cluster(replace(config), YCSBWorkload(YCSBConfig(keys_per_partition=5_000)))
    delayed_cluster.durability.set_message_delay(1, 10_000.0)
    delayed = delayed_cluster.run()
    assert delayed.throughput_tps > baseline.throughput_tps * 0.7
    # Latency, however, must rise because the global watermark lags.
    assert delayed.mean_latency_ms > baseline.mean_latency_ms


def test_tapir_latency_vs_primo_throughput_tradeoff():
    """Fig. 15: Primo wins on throughput, TAPIR wins on latency (1 worker/server)."""
    primo = run("primo", workers_per_partition=1, inflight_per_worker=3,
                ycsb={"distributed_pct": 0.8, "zipf_theta": 0.9})
    tapir = run("tapir", workers_per_partition=1, inflight_per_worker=3,
                ycsb={"distributed_pct": 0.8, "zipf_theta": 0.9})
    assert primo.throughput_tps > tapir.throughput_tps
    assert tapir.mean_latency_ms < primo.mean_latency_ms
