"""Tests for counters, latency recorders, breakdown timers and run metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.results import RunResult
from repro.sim.stats import (
    BREAKDOWN_COMPONENTS,
    BreakdownTimer,
    Counter,
    LatencyRecorder,
    RunMetrics,
)


def test_counter_increment_and_merge():
    a = Counter()
    a.increment("commits")
    a.increment("commits", 4)
    assert a.as_dict() == {"commits": 5}
    b = Counter.from_dict({"commits": 2, "aborts": "1"})  # values coerced to int
    b.increment("commits", 5)
    b.increment("aborts")
    assert b.get("commits") == 7
    assert b.get("aborts") == 2
    assert b.get("missing") == 0
    assert b.as_dict() == {"commits": 7, "aborts": 2}
    # as_dict is a copy: mutating it does not reach the counter.
    b.as_dict()["commits"] = 0
    assert b.get("commits") == 7


def test_latency_recorder_empty_is_zero():
    recorder = LatencyRecorder()
    assert recorder.mean == 0.0
    assert recorder.p99 == 0.0
    assert recorder.max == 0.0
    assert recorder.count == 0


def test_latency_recorder_mean_and_percentiles():
    recorder = LatencyRecorder.from_samples(range(1, 101))
    assert recorder.count == 100
    assert recorder.mean == pytest.approx(50.5)
    assert recorder.p50 == pytest.approx(50.0)
    assert recorder.p99 == pytest.approx(99.0)
    assert recorder.percentile(100) == 100.0
    assert recorder.percentile(0) == 1.0
    assert recorder.max == 100.0


@settings(max_examples=50, deadline=None)
@given(samples=st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=200))
def test_latency_percentiles_are_order_statistics(samples):
    """Property: any percentile is one of the samples and p99 >= p50 >= min."""
    recorder = LatencyRecorder.from_samples(samples)
    assert recorder.p50 in samples
    assert recorder.p99 in samples
    assert recorder.p99 >= recorder.p50 >= min(samples)


def test_breakdown_timer_average_per_transaction():
    timer = BreakdownTimer()
    timer.add("execute", 10.0)
    timer.add("2pc", 4.0)
    timer.finish_transaction()
    timer.add("execute", 20.0)
    timer.finish_transaction()
    per_txn = timer.per_transaction()
    assert per_txn["execute"] == pytest.approx(15.0)
    assert per_txn["2pc"] == pytest.approx(2.0)
    assert set(per_txn) == set(BREAKDOWN_COMPONENTS)


def test_breakdown_timer_rejects_negative_durations():
    with pytest.raises(ValueError):
        BreakdownTimer().add("execute", -1.0)


def test_breakdown_with_no_transactions_is_all_zero():
    timer = BreakdownTimer()
    timer.add("execute", 7.0)  # recorded, but no transaction finished
    assert timer.per_transaction() == {c: 0.0 for c in BREAKDOWN_COMPONENTS}
    assert timer.total("execute") == 7.0


def test_breakdown_total_of_a_never_recorded_component_is_zero():
    assert BreakdownTimer().total("component_nobody_recorded") == 0.0


def test_breakdown_json_keeps_only_non_zero_components():
    timer = BreakdownTimer()
    timer.add("commit", 4.0)
    timer.add("execute", 0.0)
    timer.finish_transaction()
    assert timer.to_json_dict() == {"totals": {"commit": 4.0}, "txn_count": 1}


def test_counter_from_dict_coerces_values_to_int():
    counter = Counter.from_dict({"commits": 3.0, "aborts": "2"})
    assert counter.as_dict() == {"commits": 3, "aborts": 2}
    assert all(type(v) is int for v in counter.as_dict().values())


def as_result(metrics: RunMetrics) -> RunResult:
    """The run result that derives the reported numbers from ``metrics``."""
    return RunResult(protocol="primo", durability="wm", workload="ycsb",
                     n_partitions=1, metrics=metrics)


def test_run_metrics_throughput_and_rates():
    result = as_result(RunMetrics(duration_us=1_000_000.0, committed=5_000, aborted=1_000))
    assert result.throughput_tps == pytest.approx(5_000.0)
    assert result.throughput_ktps == pytest.approx(5.0)
    assert result.abort_rate == pytest.approx(1_000 / 6_000)
    assert result.crash_abort_rate == 0.0


def test_run_metrics_zero_duration_is_safe():
    result = as_result(RunMetrics())
    assert result.throughput_tps == 0.0
    assert result.abort_rate == 0.0
    assert result.crash_abort_rate == 0.0


def test_run_metrics_summary_contains_breakdown():
    metrics = RunMetrics(duration_us=1000.0, committed=1)
    metrics.latency.record(2_000.0)
    metrics.breakdown.add("execute", 10.0)
    metrics.breakdown.finish_transaction()
    summary = as_result(metrics).summary()
    assert summary["committed"] == 1
    assert summary["breakdown_us"]["execute"] == pytest.approx(10.0)
    assert summary["mean_latency_ms"] == pytest.approx(2.0)


# -- order independence -------------------------------------------------------
#
# A run's commits record their latencies in whatever order the simulation
# resolves them; that order may not change what is reported.


@settings(max_examples=50, deadline=None)
@given(
    shards=st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1e9), max_size=50),
        min_size=1,
        max_size=5,
    ),
    seed=st.randoms(use_true_random=False),
)
def test_latency_merge_is_order_independent(shards, seed):
    def merged(order):
        total = LatencyRecorder()
        for shard in order:
            for sample in shard:
                total.record(sample)
        return (total.count, total.mean, total.p50, total.p99, total.max)

    count, mean, p50, p99, peak = merged(shards)
    shuffled = list(shards)
    seed.shuffle(shuffled)
    count_s, mean_s, p50_s, p99_s, peak_s = merged(shuffled)
    assert (count, p50, p99, peak) == (count_s, p50_s, p99_s, peak_s)
    assert mean == pytest.approx(mean_s)  # summation order may differ


def test_latency_sorted_cache_invalidated_by_append():
    """p50/p99/max reuse one sorted view until a new sample invalidates it."""
    recorder = LatencyRecorder.from_samples([5.0, 1.0, 3.0])
    assert recorder.max == 5.0
    assert recorder.p50 == 3.0
    # Appending a new minimum must be visible immediately (no stale cache).
    recorder.record(0.5)
    assert recorder.percentile(0) == 0.5
    recorder.record(9.0)
    assert recorder.max == 9.0
    assert recorder.samples == [5.0, 1.0, 3.0, 0.5, 9.0]  # recording order kept


def test_p999_is_deterministic_and_tracks_appends():
    """The open-loop tail accessor: nearest-rank, cached, append-invalidated."""
    recorder = LatencyRecorder()
    assert recorder.p999 == 0.0
    for v in range(1, 1001):
        recorder.record(float(v))
    assert recorder.p999 == 999.0  # nearest rank of 99.9% over 1000 samples
    assert recorder.p999 == recorder.percentile(99.9)
    assert recorder.p999 >= recorder.p99 >= recorder.p50
    # A new maximum must invalidate the cached sorted view.
    recorder.record(10_000.0)
    assert recorder.p999 == 1000.0
    assert recorder.max == 10_000.0


def test_breakdown_json_round_trip_preserves_custom_components():
    timer = BreakdownTimer()
    timer.add("execute", 3.0)
    timer.add("my_extension_phase", 2.0)
    timer.finish_transaction()
    clone = BreakdownTimer.from_json_dict(timer.to_json_dict())
    assert clone.total("execute") == 3.0
    assert clone.total("my_extension_phase") == 2.0
    assert clone.per_transaction()["execute"] == 3.0


# -- windowed degradation/recovery timeline ----------------------------------

def test_windowed_recorder_buckets_by_window():
    from repro.sim.stats import WindowedRecorder

    rec = WindowedRecorder(window_us=100.0, origin_us=1_000.0)
    for t in (1_000.0, 1_050.0, 1_150.0, 1_399.0):
        rec.record(t)
    assert rec.counts() == [2, 1, 0, 1]
    assert rec.total_count == 4
    assert rec.throughput_tps() == [20_000.0, 10_000.0, 0.0, 10_000.0]
    # Times before the origin clamp into the first window instead of crashing.
    rec.record(500.0)
    assert rec.counts()[0] == 3


def test_windowed_recorder_unrecord_undoes_a_count():
    from repro.sim.stats import WindowedRecorder

    rec = WindowedRecorder(window_us=100.0)
    rec.record(50.0)
    rec.record(150.0)
    rec.unrecord(150.0)
    assert rec.counts() == [1, 0]


def test_windowed_recorder_latency_series_is_independent_of_counts():
    from repro.sim.stats import WindowedRecorder

    rec = WindowedRecorder(window_us=100.0)
    rec.record(10.0)
    rec.record(110.0)  # commit whose durability never resolves: no latency
    rec.record_latency(10.0, 200.0)
    rec.record_latency(20.0, 400.0)
    assert rec.counts() == [1, 1]
    assert rec.mean_latency_us() == [300.0, 0.0]


def test_windowed_recorder_memory_is_bounded_by_coarsening():
    from repro.sim.stats import WindowedRecorder

    rec = WindowedRecorder(window_us=1.0, max_windows=8)
    for t in range(64):
        rec.record(float(t))
    # 64 µs of traffic through 8 windows: width doubled 1 -> 8.
    assert rec.windows <= 8
    assert rec.window_us == 8.0
    assert rec.total_count == 64
    assert rec.counts() == [8] * 8


def test_windowed_recorder_coarsening_preserves_latency_totals():
    from repro.sim.stats import WindowedRecorder

    rec = WindowedRecorder(window_us=1.0, max_windows=4)
    for t in range(16):
        rec.record_latency(float(t), 10.0)
    assert sum(rec._latency_sums) == pytest.approx(160.0)
    assert rec.mean_latency_us() == [10.0] * rec.windows


def test_windowed_recorder_degradation_depth_and_recovery_time():
    from repro.sim.stats import WindowedRecorder

    rec = WindowedRecorder(window_us=100.0)
    # Steady 10/window, a dip to 2, then recovery two windows later.
    for window, count in enumerate([10, 10, 2, 5, 10, 10]):
        for i in range(count):
            rec.record(window * 100.0 + i)
    assert rec.degradation_depth() == pytest.approx(1.0 - 2.0 / 10.0)
    # Trough at window 2; first window back at 90% of the median (9) is
    # window 4, two windows later.
    assert rec.time_to_recovery_us(0.9) == pytest.approx(200.0)
    # A lower bar is cleared one window sooner.
    assert rec.time_to_recovery_us(0.5) == pytest.approx(100.0)


def test_windowed_recorder_flat_series_reports_no_dip():
    from repro.sim.stats import WindowedRecorder

    rec = WindowedRecorder(window_us=100.0)
    for window in range(5):
        for i in range(10):
            rec.record(window * 100.0 + i)
    assert rec.degradation_depth() == 0.0
    assert rec.time_to_recovery_us() == 0.0


def test_windowed_recorder_unrecovered_dip_is_none():
    from repro.sim.stats import WindowedRecorder

    rec = WindowedRecorder(window_us=100.0)
    for window, count in enumerate([10, 10, 10, 10, 2]):
        for i in range(count):
            rec.record(window * 100.0 + i)
    assert rec.time_to_recovery_us(0.9) is None


def test_windowed_recorder_ignores_trailing_silence():
    from repro.sim.stats import WindowedRecorder

    rec = WindowedRecorder(window_us=100.0)
    for window in range(3):
        for i in range(10):
            rec.record(window * 100.0 + i)
    # The drain after measurement ends leaves empty trailing windows; they
    # must not read as a 100% dip.
    rec.record_latency(800.0, 50.0)  # grows the count series with zeros
    assert rec.counts()[-1] == 0
    assert rec.degradation_depth() == 0.0


def test_windowed_recorder_with_fewer_than_two_windows_reports_no_dip():
    from repro.sim.stats import WindowedRecorder

    rec = WindowedRecorder(window_us=100.0)
    assert rec.degradation_depth() == 0.0
    assert rec.time_to_recovery_us() == 0.0
    rec.record(10.0)
    assert rec.degradation_depth() == 0.0
    assert rec.time_to_recovery_us() == 0.0


def test_windowed_recorder_json_round_trip():
    from repro.sim.stats import WindowedRecorder

    rec = WindowedRecorder(window_us=250.0, origin_us=2_000.0, max_windows=64)
    for t in (2_000.0, 2_100.0, 2_600.0, 3_900.0):
        rec.record(t)
    rec.record_latency(2_000.0, 123.0)
    rec.record_latency(2_600.0, 321.0)
    data = rec.to_json_dict()
    clone = WindowedRecorder.from_json_dict(data)
    assert clone.to_json_dict() == data
    assert clone.counts() == rec.counts()
    assert clone.mean_latency_us() == rec.mean_latency_us()
    assert (clone.window_us, clone.origin_us, clone.max_windows) == (250.0, 2_000.0, 64)


def test_windowed_recorder_round_trip_repairs_missing_latency_windows():
    from repro.sim.stats import WindowedRecorder

    clone = WindowedRecorder.from_json_dict(
        {"window_us": 100.0, "counts": [3, 1, 2], "latency_counts": [1],
         "latency_sums": [50.0]}
    )
    assert clone.counts() == [3, 1, 2]
    assert clone.mean_latency_us() == [50.0, 0.0, 0.0]


def test_windowed_recorder_validates_construction():
    from repro.sim.stats import WindowedRecorder

    with pytest.raises(ValueError, match="window_us"):
        WindowedRecorder(window_us=0.0)
    with pytest.raises(ValueError, match="max_windows"):
        WindowedRecorder(max_windows=1)


def test_run_metrics_timeline_round_trips():
    from repro.sim.stats import WindowedRecorder

    metrics = RunMetrics()
    metrics.committed = 3
    metrics.timeline = WindowedRecorder(window_us=100.0)
    metrics.timeline.record(50.0)
    metrics.timeline.record_latency(50.0, 10.0)
    clone = RunMetrics.from_json_dict(metrics.to_json_dict())
    assert clone.timeline is not None
    assert clone.timeline.to_json_dict() == metrics.timeline.to_json_dict()
    # Runs without a timeline keep the key out of the document entirely,
    # so fault-free result JSON is byte-identical to the pre-timeline format.
    bare = RunMetrics()
    assert "timeline" not in bare.to_json_dict()
    assert RunMetrics.from_json_dict(bare.to_json_dict()).timeline is None


def test_run_metrics_keep_every_raw_sample():
    metrics = RunMetrics(duration_us=1.0, committed=3)
    for sample in (1.0, 2.0, 3.0):
        metrics.latency.record(sample)
    doc = metrics.to_json_dict()
    assert doc["latency_samples"] == [1.0, 2.0, 3.0]
    assert RunMetrics.from_json_dict(doc).latency.samples == [1.0, 2.0, 3.0]
    del doc["latency_samples"]
    with pytest.raises(KeyError):
        RunMetrics.from_json_dict(doc)
