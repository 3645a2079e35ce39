"""Tests of the open-loop traffic engine (`repro.arrivals`).

Covers the contractual properties of :class:`repro.ArrivalSpec` and the
open-loop runtime:

* **eager validation** — unknown kinds/parameters raise at construction with
  did-you-mean hints; closed kinds reject rates; open kinds require one;
* **closed-loop normalization** — ``arrival="closed"`` coerces to ``None``,
  serializes identically to a legacy scenario (cache-key preservation) and
  reproduces pre-arrival fixed-seed counts byte-identically;
* **JSON round trip** — flat form, ``from_json_dict(to_json_dict(s)) == s``;
* **runtime semantics** — queueing latency is measured from arrival time,
  full admission queues shed load, bursty skew shifts are deterministic, and
  per-component rate shaping drives mixed workloads;
* **draw timing** — a queued arrival's transaction is drawn on dequeue, or
  earlier in FIFO order before a drop or a skew shift, and never if the
  arrival is still queued at stop.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro
from repro import ScenarioSpec
from repro.arrivals import (
    CLOSED, AdmissionQueue, ArrivalContext, ArrivalSpec, arrival,
)
from repro.cluster.cluster import Cluster
from repro.cluster.worker import service_loop
from repro.registry import ARRIVAL_REGISTRY, UnknownNameError
from repro.scenario import build, sweep
from repro.sim.engine import Environment
from repro.sim.randgen import DeterministicRandom
from repro.workloads.base import TransactionSpec, TxnSource
from tests.conftest import tiny_config, tiny_ycsb


def fingerprint(result) -> tuple:
    """Everything that must match for two runs to count as bit-identical."""
    return (
        result.committed,
        result.aborted,
        result.metrics.crash_aborted,
        result.network_messages,
        tuple(result.metrics.latency.samples),
        tuple(sorted(result.abort_reasons.items())),
        tuple(sorted(result.per_txn_type.items())),
    )


def run_open_tiny(arrival_value, protocol: str = "primo", **overrides):
    cluster = Cluster(tiny_config(protocol, **overrides), tiny_ycsb(),
                      arrival=arrival_value)
    return cluster, cluster.run()


# ---------------------------------------------------------------------------
# Eager validation
# ---------------------------------------------------------------------------

def test_builtin_kinds_are_registered():
    names = {entry.name for entry in ARRIVAL_REGISTRY.entries()}
    assert {"closed", "poisson", "deterministic", "bursty"} <= names


def test_unknown_kind_fails_with_suggestion():
    with pytest.raises(UnknownNameError, match="did you mean 'poisson'"):
        ArrivalSpec(kind="posson", rate_tps=1000.0)


def test_unknown_parameter_fails_with_suggestion():
    with pytest.raises(ValueError, match="burst_factor"):
        arrival("bursty", 1000.0, burst_facter=2.0)
    # Kinds without parameters say so.
    with pytest.raises(ValueError, match="unknown parameter"):
        arrival("poisson", 1000.0, burstiness=2.0)


def test_closed_kind_rejects_rate_and_params():
    with pytest.raises(ValueError, match="closed-loop"):
        ArrivalSpec(kind=CLOSED, rate_tps=1000.0)


def test_open_kind_requires_an_offered_load():
    with pytest.raises(ValueError, match="rate_tps or component_rates"):
        ArrivalSpec(kind="poisson")
    with pytest.raises(ValueError, match="positive"):
        arrival("poisson", -5.0)
    with pytest.raises(ValueError, match="not both"):
        ArrivalSpec(kind="poisson", rate_tps=1000.0,
                    component_rates=(("ycsb", 500.0),))


def test_bursty_parameter_ranges_are_checked():
    with pytest.raises(ValueError, match="burst_start_frac"):
        arrival("bursty", 1000.0, burst_start_frac=0.8, burst_end_frac=0.2)
    with pytest.raises(ValueError, match="burst_factor"):
        arrival("bursty", 1000.0, burst_factor=0.0)
    with pytest.raises(ValueError, match="hot_theta"):
        arrival("bursty", 1000.0, hot_theta=1.5)


def test_coerce_normalizes_the_closed_loop_to_none():
    assert ArrivalSpec.coerce(None) is None
    assert ArrivalSpec.coerce("closed") is None
    assert ArrivalSpec.coerce({"kind": "closed"}) is None
    spec = ArrivalSpec.coerce({"kind": "poisson", "rate_tps": 1000})
    assert spec == arrival("poisson", 1000.0)
    with pytest.raises(TypeError, match="ArrivalSpec"):
        ArrivalSpec.coerce(42)


# ---------------------------------------------------------------------------
# JSON round trip & cache-key preservation
# ---------------------------------------------------------------------------

def test_arrival_spec_json_round_trip_is_exact():
    for spec in (
        arrival("poisson", 150_000),
        arrival("deterministic", 80_000.0),
        arrival("bursty", 50_000, burst_factor=6.0, hot_theta=0.95),
        ArrivalSpec(kind="poisson",
                    component_rates={"ycsb": 1000.0, "tatp": 250}),
    ):
        data = spec.to_json_dict()
        assert ArrivalSpec.from_json_dict(data) == spec
        # Parameters sit flat next to the spec fields (FaultEvent style).
        assert "params" not in data


def test_int_and_float_rates_build_equal_specs():
    assert arrival("poisson", 1000) == arrival("poisson", 1000.0)
    assert (arrival("bursty", 1000, burst_factor=4)
            == arrival("bursty", 1000.0, burst_factor=4.0))


def test_explicit_closed_scenario_serializes_like_a_legacy_one():
    """``arrival="closed"`` must not perturb orchestrator cache keys."""
    legacy = ScenarioSpec(protocol="primo", scale="tiny")
    explicit = ScenarioSpec(protocol="primo", scale="tiny", arrival="closed")
    assert explicit.canonical_json() == legacy.canonical_json()
    assert "arrival" not in legacy.to_json_dict()


def test_scenario_spec_round_trips_the_arrival():
    spec = ScenarioSpec(
        protocol="primo", scale="tiny",
        arrival={"kind": "bursty", "rate_tps": 60_000, "hot_theta": 0.9},
    )
    again = ScenarioSpec.from_json(spec.to_json())
    assert again == spec
    assert again.arrival.effective_params()["hot_theta"] == 0.9


def test_component_rates_require_a_mixed_workload_with_those_components():
    with pytest.raises(ValueError, match="require the 'mixed' workload"):
        ScenarioSpec(protocol="primo", workload="ycsb",
                     arrival={"kind": "poisson",
                              "component_rates": {"ycsb": 1000}})
    with pytest.raises(ValueError, match="did you mean 'tatp'"):
        ScenarioSpec(
            protocol="primo", workload="mixed",
            workload_overrides={"components": [["ycsb", 0.7], ["tatp", 0.3]]},
            arrival={"kind": "poisson", "component_rates": {"tapt": 1000}},
        )


def test_sweep_accepts_the_arrival_axis():
    base = ScenarioSpec(protocol="primo", scale="tiny")
    specs = sweep(base, arrival=[
        None,
        {"kind": "poisson", "rate_tps": 40_000},
        {"kind": "poisson", "rate_tps": 80_000},
    ])
    assert [s.arrival.rate_tps if s.arrival else None for s in specs] == [
        None, 40_000.0, 80_000.0]


# ---------------------------------------------------------------------------
# Closed-loop bit-identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", ["ycsb", "tpcc"])
def test_explicit_closed_reproduces_legacy_fixed_seed_counts(workload):
    legacy = repro.run(ScenarioSpec(protocol="primo", workload=workload,
                                    scale="tiny"))
    explicit = repro.run(ScenarioSpec(protocol="primo", workload=workload,
                                      scale="tiny", arrival="closed"))
    assert fingerprint(explicit) == fingerprint(legacy)


def test_zero_think_time_normalizes_to_the_legacy_closed_loop():
    legacy = ScenarioSpec(protocol="primo", scale="tiny")
    explicit = ScenarioSpec(protocol="primo", scale="tiny",
                            arrival={"kind": "closed", "think_time_us": 0})
    assert explicit.arrival is None
    assert explicit.canonical_json() == legacy.canonical_json()


def test_positive_think_time_is_a_distinct_scenario():
    base = ScenarioSpec(protocol="primo", scale="tiny")
    thinking = ScenarioSpec(protocol="primo", scale="tiny",
                            arrival={"kind": "closed", "think_time_us": 800})
    assert thinking.arrival is not None and not thinking.arrival.open_loop
    assert thinking.canonical_json() != base.canonical_json()
    rebuilt = ScenarioSpec.from_json_dict(thinking.to_json_dict())
    assert rebuilt == thinking
    # Thinking clients throttle themselves: strictly less gets done.
    idle = repro.run(thinking)
    busy = repro.run(base)
    assert 0 < idle.committed < busy.committed


def test_think_time_validation():
    with pytest.raises(ValueError, match="non-negative"):
        arrival("closed", think_time_us=-1.0)
    with pytest.raises(ValueError, match="no rate_tps"):
        arrival("closed", 50_000)
    with pytest.raises(ValueError, match="unknown parameter"):
        arrival("closed", think_tme_us=100.0)


# ---------------------------------------------------------------------------
# Open-loop runtime semantics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("arrival_value", [
    None, arrival("closed", think_time_us=800), arrival("poisson", 50_000),
], ids=["closed", "closed-think", "poisson"])
def test_every_arrival_mode_runs_the_closed_loop_width(arrival_value):
    """Each partition runs ``concurrency_per_partition`` service fibers in
    every mode, so saturation is comparable; arrival streams are extra."""
    cluster = Cluster(tiny_config(workers_per_partition=3, inflight_per_worker=2),
                      tiny_ycsb(), arrival=arrival_value)
    cluster.start()
    width = Counter()
    for fiber in cluster.fibers:
        if fiber._generator.gi_code is service_loop.__code__:
            server = fiber._generator.gi_frame.f_locals["server"]
            width[server.partition_id] += 1
    assert width == {pid: 6 for pid in cluster.servers}
    streams = [f for f in cluster.fibers if f.name.startswith("arrival-")]
    open_loop = arrival_value is not None and arrival_value.open_loop
    assert len(streams) == (len(cluster.servers) if open_loop else 0)


def test_open_loop_run_counts_offered_arrivals():
    cluster, result = run_open_tiny(arrival("poisson", 50_000))
    offered = result.metrics.counters.get("arrivals_offered")
    assert result.committed > 0
    assert offered >= result.committed + result.metrics.counters.get(
        "arrivals_dropped")
    # ~17 ms of run at 50k tps: the offered count tracks the rate.
    assert 500 <= offered <= 1_200
    assert set(cluster.admission_queues) == set(cluster.servers)


def test_open_loop_latency_includes_queueing():
    _, result = run_open_tiny(arrival("poisson", 50_000))
    assert result.metrics.breakdown.total("queue") > 0.0


def test_full_admission_queue_sheds_load():
    _, result = run_open_tiny(arrival("poisson", 400_000),
                              admission_queue_depth=4)
    counters = result.metrics.counters
    assert counters.get("arrivals_dropped") > 0
    assert counters.get("admission_queue_peak_depth") == 4


def test_open_loop_is_deterministic_within_a_process():
    _, first = run_open_tiny(arrival("bursty", 60_000, hot_theta=0.95))
    _, second = run_open_tiny(arrival("bursty", 60_000, hot_theta=0.95))
    assert fingerprint(first) == fingerprint(second)


def test_bursty_hot_skew_shift_changes_the_outcome():
    _, flat = run_open_tiny(arrival("bursty", 60_000))
    _, skewed = run_open_tiny(arrival("bursty", 60_000, hot_theta=0.99))
    assert fingerprint(flat) != fingerprint(skewed)


def test_deterministic_arrivals_are_evenly_spaced():
    _, result = run_open_tiny(arrival("deterministic", 50_000))
    offered = result.metrics.counters.get("arrivals_offered")
    # 17 ms x 50k tps, one stream per partition: exactly floor(17ms / 40us)
    # arrivals per partition (the first arrival lands after one full gap).
    assert offered == 2 * int(17_000 / 40)


def test_own_loop_protocols_reject_open_loop_arrivals():
    with pytest.raises(ValueError, match="drives its own execution loop"):
        Cluster(tiny_config("aria"), tiny_ycsb(),
                arrival=arrival("poisson", 50_000))


def test_component_rates_drive_a_mixed_workload():
    spec = ScenarioSpec(
        protocol="primo", workload="mixed", scale="tiny",
        workload_overrides={"components": [["ycsb", 0.7], ["tatp", 0.3]]},
        arrival={"kind": "poisson",
                 "component_rates": {"ycsb": 40_000, "tatp": 10_000}},
    )
    result = repro.run(spec)
    assert result.committed > 0
    per_type = dict(result.per_txn_type)
    assert any(name.startswith("ycsb") for name in per_type)
    assert any(name.startswith("tatp") for name in per_type)


class RecordingSource(TxnSource):
    """A transaction source that logs each draw and skew shift it serves.

    Sources given one ``log`` record their events in a single shared order;
    the n-th draw of source ``"a"`` is logged (and named) ``"a<n>"``.
    """

    def __init__(self, name: str = "s", log: list | None = None):
        self.name = name
        self.log = [] if log is None else log
        self.draws = 0

    def next(self) -> TransactionSpec:
        self.draws += 1
        tag = f"{self.name}{self.draws}"
        self.log.append(tag)
        return TransactionSpec(name=tag, logic=None)

    def set_hot_skew(self, theta) -> None:
        self.log.append(f"{self.name}:skew={theta}")


def test_admission_queue_wakes_waiters_in_fifo_order():
    env = Environment()
    queue = AdmissionQueue(env, capacity=2)
    woken = []

    def waiter(tag):
        yield queue.wait()
        woken.append(tag)

    env.process(waiter("a"), name="a")
    env.process(waiter("b"), name="b")
    source = RecordingSource()

    def feeder():
        yield env.timeout(1.0)
        assert queue.offer(env.now, source) is True
        assert queue.offer(env.now, source) is True
        assert queue.offer(env.now, source) is False  # full -> dropped
        yield env.timeout(1.0)

    env.process(feeder(), name="feeder")
    env.run(until=10.0)
    assert woken == ["a", "b"]
    assert (queue.offered, queue.dropped, queue.peak_depth) == (3, 1, 2)


# ---------------------------------------------------------------------------
# When a queued arrival's transaction is drawn
# ---------------------------------------------------------------------------

def drain(queue) -> list:
    """Take every queued arrival: ``(arrival_us, spec name)`` in order."""
    return [(arrival_us, spec.name) for arrival_us, spec in iter(queue.take, None)]


def test_offer_draws_nothing_and_take_draws_in_fifo_order():
    log = []
    a, b = RecordingSource("a", log), RecordingSource("b", log)
    queue = AdmissionQueue(Environment(), capacity=8)
    for arrival_us, source in ((0.0, a), (1.0, b), (2.0, a)):
        assert queue.offer(arrival_us, source) is True
    assert log == []
    assert queue.depth == 3
    assert drain(queue) == [(0.0, "a1"), (1.0, "b1"), (2.0, "a2")]
    assert log == ["a1", "b1", "a2"]
    assert queue.depth == 0


def test_a_drop_draws_every_queued_arrival_then_the_dropped_one():
    log = []
    a, b = RecordingSource("a", log), RecordingSource("b", log)
    queue = AdmissionQueue(Environment(), capacity=2)
    queue.offer(0.0, a)
    queue.offer(1.0, b)
    assert queue.offer(2.0, a) is False
    assert log == ["a1", "b1", "a2"]  # a2 was drawn and discarded
    assert queue.take() is not None   # a1, drawn before the drop
    queue.offer(3.0, b)               # queued behind the drawn b1, undrawn
    assert log == ["a1", "b1", "a2"]
    assert drain(queue) == [(1.0, "b1"), (3.0, "b2")]
    assert (queue.offered, queue.dropped, queue.peak_depth) == (4, 1, 2)


def test_a_skew_shift_draws_the_queued_arrivals_before_it():
    log = []
    source = RecordingSource("s", log)
    env = Environment()
    queue = AdmissionQueue(env, capacity=8)
    ctx = ArrivalContext(env, 0, "all", 10.0, 100.0, DeterministicRandom(1),
                         {}, queue, source)
    assert not hasattr(ctx, "source")  # kinds reach the source only via ctx
    queue.offer(0.0, source)
    queue.offer(1.0, source)
    ctx.set_hot_skew(0.9)
    queue.offer(2.0, source)
    ctx.set_hot_skew(None)
    assert log == ["s1", "s2", "s:skew=0.9", "s3", "s:skew=None"]
    assert drain(queue) == [(0.0, "s1"), (1.0, "s2"), (2.0, "s3")]


def test_an_arrival_still_queued_at_stop_is_never_drawn():
    cluster = Cluster(tiny_config("primo"), tiny_ycsb(),
                      arrival=arrival("poisson", 400_000))
    draws = []
    new_txn_source = cluster.new_txn_source

    def counted_source(partition_id, stream_id):
        source = new_txn_source(partition_id, stream_id)
        next_spec = source.next

        def next():
            draws.append(partition_id)
            return next_spec()

        source.next = next
        return source

    cluster.new_txn_source = counted_source
    result = cluster.run()
    counters = result.metrics.counters
    queued = sum(queue.depth for queue in cluster.admission_queues.values())
    assert counters.get("arrivals_dropped") == 0
    assert queued > 0  # 400k tps is far past saturation: a backlog remains
    assert len(draws) == counters.get("arrivals_offered") - queued
