"""Tests for the exact latency recorder at every run length.

A run keeps every latency sample, however many it commits: percentiles are
the exact nearest-rank order statistic, and the result document carries the
whole sample list.  These tests pin that at sample counts past 100k (the
``web`` tier's range), where results used to be folded into an approximate
fixed-memory histogram.
"""

import json
from fractions import Fraction
from functools import lru_cache
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.results import RunResult
from repro.sim.randgen import DeterministicRandom
from repro.sim.stats import LatencyRecorder, RunMetrics

#: Past the 100k samples a ``web`` cell records.
LARGE_RUN = 120_000


def _nearest_rank(pct: float, ordered: list) -> float:
    """The textbook definition in exact arithmetic: the smallest sample with
    at least ``pct`` % of the samples at or below it, i.e. 1-based rank
    ``ceil(pct * n / 100)``.  ``pct`` is read as the decimal it was written
    as (99.9, not the binary float nearest to it)."""
    n = len(ordered)
    rank = max(1, ceil(Fraction(str(pct)) * n / 100))
    return ordered[rank - 1]


@lru_cache(maxsize=None)
def _exponential_samples(seed: int, n: int = LARGE_RUN) -> tuple:
    """Shifted-exponential latencies, the shape a commit-latency tail has."""
    rng = DeterministicRandom(seed)
    return tuple(150.0 + rng.exponential(800.0) for _ in range(n))


# -- exactness -----------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 7, 42])
@pytest.mark.parametrize("pct", [10, 50, 90, 99, 99.9])
def test_percentiles_are_the_exact_nearest_rank_sample(seed, pct):
    samples = _exponential_samples(seed)
    recorder = LatencyRecorder()
    for sample in samples:
        recorder.record(sample)
    assert recorder.count == LARGE_RUN
    assert recorder.percentile(pct) == _nearest_rank(pct, sorted(samples))


def test_count_mean_and_extremes_are_sample_exact():
    samples = _exponential_samples(3)
    recorder = LatencyRecorder.from_samples(samples)
    assert recorder.count == len(samples)
    assert recorder.mean == sum(samples) / len(samples)
    assert recorder.percentile(0) == min(samples)
    assert recorder.percentile(100) == recorder.max == max(samples)


def test_golden_percentiles_for_fixed_seed():
    """Pins the recorder and the seeded sample stream together.  The bound
    allows only for a last-ulp difference in the C library's ``log``."""
    recorder = LatencyRecorder.from_samples(_exponential_samples(42))
    assert recorder.p50 == pytest.approx(703.7244148756938, rel=1e-12)
    assert recorder.p99 == pytest.approx(3863.8682159147784, rel=1e-12)
    assert recorder.p999 == pytest.approx(5601.654775611618, rel=1e-12)
    assert recorder.max == pytest.approx(10587.751690120589, rel=1e-12)


def test_every_sample_is_kept_in_recording_order_past_a_hundred_thousand():
    samples = _exponential_samples(5)
    recorder = LatencyRecorder()
    for sample in samples:
        recorder.record(sample)
    assert recorder.samples == list(samples)
    # Late records keep landing in the same list.
    recorder.record(5.0)
    assert recorder.count == LARGE_RUN + 1
    assert recorder.samples[-1] == 5.0
    assert recorder.percentile(0) == 5.0


@pytest.mark.parametrize("samples, pct, expected", [
    ([1.0, 2.0, 3.0, 4.0, 5.0], 50, 3.0),     # rank ceil(2.5) = 3, not round(2.5) = 2
    ([float(v) for v in range(1, 151)], 99, 149.0),  # ceil(148.5) = 149
    ([float(v) for v in range(1, 41_001)], 99.9, 40_959.0),  # product 40,959.00000000001
], ids=["p50-of-5", "p99-of-150", "p99.9-of-41000"])
def test_percentile_rounds_the_rank_up_not_to_even(samples, pct, expected):
    recorder = LatencyRecorder.from_samples(samples)
    assert recorder.percentile(pct) == expected
    assert _nearest_rank(pct, sorted(samples)) == expected


# -- edges ---------------------------------------------------------------------

@pytest.mark.parametrize("pct", [0, 50, 99.9, 100])
def test_a_single_sample_is_every_percentile(pct):
    recorder = LatencyRecorder()
    recorder.record(123.456)
    assert recorder.percentile(pct) == 123.456
    assert recorder.mean == recorder.max == 123.456


def test_percentiles_outside_zero_to_a_hundred_clamp_to_the_extremes():
    recorder = LatencyRecorder.from_samples([4.0, 1.0, 9.0])
    assert recorder.percentile(-5) == 1.0
    assert recorder.percentile(250) == 9.0


def test_negative_samples_are_kept_as_recorded():
    recorder = LatencyRecorder()
    recorder.record(-5.0)  # latencies are non-negative by contract; no clamping
    recorder.record(2.0)
    assert recorder.count == 2
    assert recorder.percentile(0) == -5.0
    assert recorder.mean == -1.5


def test_from_samples_converts_to_float_and_copies_its_input():
    source = [3, 1, 2]
    recorder = LatencyRecorder.from_samples(source)
    source.append(100)
    assert recorder.samples == [3.0, 1.0, 2.0]
    assert all(type(sample) is float for sample in recorder.samples)
    assert recorder.max == 3.0


@settings(max_examples=50, deadline=None)
@given(
    samples=st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=200),
    low=st.floats(min_value=0.0, max_value=100.0),
    high=st.floats(min_value=0.0, max_value=100.0),
)
def test_percentile_is_monotone_in_pct(samples, low, high):
    low, high = sorted((low, high))
    recorder = LatencyRecorder.from_samples(samples)
    assert recorder.percentile(low) <= recorder.percentile(high)


@settings(max_examples=50, deadline=None)
@given(
    samples=st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=100),
    query_every=st.integers(min_value=1, max_value=10),
)
def test_queries_between_records_match_a_fresh_recorder(samples, query_every):
    """The cached sorted view never serves a stale answer."""
    recorder = LatencyRecorder()
    for index, sample in enumerate(samples, start=1):
        recorder.record(sample)
        if index % query_every == 0:
            fresh = LatencyRecorder.from_samples(samples[:index])
            assert (recorder.p50, recorder.p99, recorder.max) == (
                fresh.p50, fresh.p99, fresh.max)


# -- the result document -------------------------------------------------------

def test_run_metrics_json_round_trip_is_lossless_past_a_hundred_thousand():
    metrics = RunMetrics(duration_us=1_000_000.0, committed=LARGE_RUN)
    for sample in _exponential_samples(11):
        metrics.latency.record(sample)
    doc = metrics.to_json_dict()
    assert len(doc["latency_samples"]) == LARGE_RUN
    clone = RunMetrics.from_json_dict(json.loads(json.dumps(doc)))
    assert clone.latency.samples == metrics.latency.samples
    result = RunResult("primo", "wm", "ycsb", 1, metrics)
    clone_result = RunResult("primo", "wm", "ycsb", 1, clone)
    assert clone_result.p99_latency_ms == result.p99_latency_ms
    assert clone_result.p999_latency_ms == result.p999_latency_ms
    assert clone.to_json_dict() == doc  # a second round trip is a fixed point


def test_a_document_without_samples_is_not_read_as_an_empty_run():
    """A document that carries a latency summary instead of the sample list
    raises rather than loading as a zero-latency run; the result cache reads
    the ``KeyError`` as a miss."""
    doc = RunMetrics(duration_us=1.0, committed=2).to_json_dict()
    del doc["latency_samples"]
    doc["latency_sketch"] = {"count": 2, "buckets": {}}
    with pytest.raises(KeyError, match="latency_samples"):
        RunMetrics.from_json_dict(doc)
