"""Open-loop traffic engine: arrival processes as a first-class scenario axis.

Every run used to be *closed-loop*: a fixed worker pool issues transactions
back-to-back, so offered load is whatever the system sustains and latency
never includes queueing.  An :class:`ArrivalSpec` turns the transaction
sources into schedulable **arrival processes** instead — the open-loop
methodology of serving benchmarks: sweep offered load, report what happens to
throughput and the latency tail at 0.5x / 0.8x / 1.0x / 1.2x of saturation::

    spec = repro.ScenarioSpec(
        protocol="primo", workload="ycsb", scale="small",
        arrival={"kind": "poisson", "rate_tps": 150_000},
    )

Arrival kinds are registered through :func:`repro.registry.register_arrival`
exactly like protocols and workloads; the built-ins are ``closed`` (the
default — every service fiber draws from its own stream, with an optional
``think_time_us`` pause turning it into the classic N-interactive-clients
model), ``poisson`` (memoryless arrivals), ``deterministic`` (evenly
spaced), and ``bursty`` (a flash crowd: a mid-run rate burst with an
optional hot-key skew shift).
``component_rates`` shapes a :class:`~repro.workloads.mixed.MixedWorkload`
per component — each named component becomes its own arrival stream with its
own rate.

Runtime shape (see :func:`start_open_loop`): per partition, arrival streams
push their arrivals into a bounded :class:`AdmissionQueue`; the partition's
``concurrency_per_partition`` service fibers — the closed loop's
:func:`~repro.cluster.worker.service_loop`, taking from the queue instead of
their own stream — drain it through the ordinary protocol/durability path.
Latency is measured from *arrival* time, so every reported percentile
includes queueing delay, and arrivals beyond a full queue are dropped and
counted (``arrivals_dropped``) — the cluster sheds load instead of queueing
unboundedly once offered load exceeds capacity.

Determinism: each stream owns one gap RNG (derived from the run seed, the
arrival kind, the stream label and the partition via ``stable_hash``) and one
transaction source whose ``next()`` is drawn exactly once per arrival, in
arrival order — the draw-order contract documented on
:class:`repro.workloads.base.TxnSource`.  A queued arrival is a timestamp
and its source; its transaction is drawn when a service fiber dequeues it,
or earlier, in FIFO order with every other queued arrival, just before a
drop or a skew shift observes the source.  An arrival still queued at the
end of the run is never drawn.  Arrival events are plain engine timeouts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Mapping, Optional

from .registry import (
    _ARRIVAL_RESERVED_FIELDS,
    ARRIVAL_REGISTRY,
    normalize_kind_params,
    register_arrival,
    split_kind_json,
)
from .sim.randgen import DeterministicRandom, derive_seed, stable_hash

if TYPE_CHECKING:  # pragma: no cover
    from .cluster.cluster import Cluster
    from .workloads.base import TxnSource

__all__ = [
    "AdmissionQueue",
    "ArrivalContext",
    "ArrivalSpec",
    "CLOSED",
    "arrival",
    "start_open_loop",
]

#: The default arrival kind: the historical closed-loop worker pool.
CLOSED = "closed"

def _normalize_component_rates(rates) -> tuple:
    if not rates:
        return ()
    if isinstance(rates, Mapping):
        rates = tuple(rates.items())
    pairs = []
    seen = set()
    for entry in rates:
        pair = tuple(entry)
        if len(pair) != 2:
            raise ValueError(
                f"component_rates entries must be (component, rate_tps) pairs, "
                f"got {entry!r}"
            )
        name, rate = pair
        if name in seen:
            raise ValueError(f"component rate for {name!r} listed twice")
        seen.add(name)
        rate = float(rate)
        if not rate > 0.0:
            raise ValueError(
                f"component rate for {name!r} must be a positive tps, got {rate}"
            )
        pairs.append((name, rate))
    return tuple(sorted(pairs))


@dataclass(frozen=True)
class ArrivalSpec:
    """One traffic shape: a registered arrival ``kind`` plus its offered load.

    ``rate_tps`` is the *aggregate* offered load in transactions per simulated
    second, split evenly across partitions.  ``params`` holds the kind's
    optional parameters as sorted ``(name, value)`` pairs (JSON documents and
    the :func:`arrival` helper spell them as plain keywords);
    ``component_rates`` replaces ``rate_tps`` for mixed workloads with one
    ``(component, rate_tps)`` stream per named component.  Validation is
    eager: an unknown kind or parameter, a missing rate, or an out-of-range
    parameter value raises at construction with a did-you-mean hint.

    ``kind="closed"`` is the default and takes no rate or parameters;
    :meth:`coerce` normalizes it to ``None`` so an explicitly-closed scenario
    is *identical* — results, JSON, orchestrator cache key — to a legacy one.
    """

    kind: str = CLOSED
    rate_tps: Optional[float] = None
    params: tuple = ()
    component_rates: tuple = ()

    def __post_init__(self) -> None:
        def set_field(name: str, value) -> None:
            object.__setattr__(self, name, value)

        entry = ARRIVAL_REGISTRY.entry(self.kind)
        set_field("params", normalize_kind_params(
            ARRIVAL_REGISTRY, self.kind, self.params, entry.metadata.get("params", {})))
        set_field("component_rates", _normalize_component_rates(self.component_rates))

        if not entry.metadata.get("open_loop", True):
            if self.rate_tps is not None or self.component_rates:
                raise ValueError(
                    f"arrival process {self.kind!r} is closed-loop and takes "
                    "no rate_tps or component_rates (its only knob is the "
                    "registered parameters, e.g. think_time_us)"
                )
            check = getattr(entry.obj, "check_params", None)
            if check is not None:
                check(self.effective_params())
            return
        if self.rate_tps is not None:
            if self.component_rates:
                raise ValueError(
                    "give either an aggregate rate_tps or per-component "
                    "component_rates, not both"
                )
            rate = float(self.rate_tps)
            if not rate > 0.0:
                raise ValueError(f"arrival rate_tps must be positive, got {rate}")
            set_field("rate_tps", rate)
        elif not self.component_rates:
            raise ValueError(
                f"open-loop arrival process {self.kind!r} needs an offered "
                "load: rate_tps or component_rates"
            )
        check = getattr(entry.obj, "check_params", None)
        if check is not None:
            check(self.effective_params())

    # -- registry-backed behaviour ------------------------------------------------
    @property
    def open_loop(self) -> bool:
        return bool(ARRIVAL_REGISTRY.entry(self.kind).metadata.get("open_loop", True))

    def effective_params(self) -> dict:
        """The kind's registered defaults overlaid with this spec's params."""
        merged = dict(ARRIVAL_REGISTRY.entry(self.kind).metadata.get("params", {}))
        merged.update(dict(self.params))
        return merged

    # -- JSON round trip ---------------------------------------------------------
    def to_json_dict(self) -> dict:
        """Flat JSON form: parameters sit next to the spec fields."""
        data: dict = {"kind": self.kind}
        if self.rate_tps is not None:
            data["rate_tps"] = self.rate_tps
        if self.component_rates:
            data["component_rates"] = dict(self.component_rates)
        data.update(dict(self.params))
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ArrivalSpec":
        fields, params = split_kind_json(data, _ARRIVAL_RESERVED_FIELDS, "arrival")
        return cls(params=params, **fields)

    @classmethod
    def coerce(cls, value) -> Optional["ArrivalSpec"]:
        """``None`` | spec | kind name | JSON dict -> spec (or ``None``).

        The *trivial* closed loop normalizes to ``None``: ``arrival="closed"``
        (and an explicit ``think_time_us=0``) builds byte-identical clusters
        *and* serializes identically to ``arrival=None``, so legacy scenarios
        keep their orchestrator cache keys.  A closed loop with a positive
        think time is a real spec — it changes the simulated traffic and
        therefore the cache identity.
        """
        if value is None:
            return None
        if isinstance(value, cls):
            spec = value
        elif isinstance(value, str):
            spec = cls(kind=value)
        elif isinstance(value, Mapping):
            spec = cls.from_json_dict(value)
        else:
            raise TypeError(
                f"arrival must be an ArrivalSpec, a kind name, or a JSON "
                f"object, got {type(value).__name__}"
            )
        if spec.open_loop or spec.kind != CLOSED:
            return spec
        return spec if ClosedLoop.think_time_us(spec) > 0.0 else None


def arrival(kind: str, rate_tps: Optional[float] = None, *,
            component_rates=(), **params) -> ArrivalSpec:
    """Ergonomic :class:`ArrivalSpec` constructor with keyword parameters::

        arrival("bursty", 100_000, burst_factor=6.0, hot_theta=0.95)
    """
    return ArrivalSpec(kind=kind, rate_tps=rate_tps,
                       component_rates=component_rates,
                       params=tuple(sorted(params.items())))


# ---------------------------------------------------------------------------
# Built-in arrival kinds
# ---------------------------------------------------------------------------

class ArrivalContext:
    """Everything a kind's ``gaps`` generator can see about one stream.

    ``interval_us`` is the stream's mean inter-arrival gap on *this* partition
    (the aggregate rate split evenly); ``total_us`` is warmup plus measured
    duration; ``rng`` is the stream's own gap RNG.  The stream's transaction
    source is reachable only through :meth:`set_hot_skew`, which keeps it in
    step with the admission queue.
    """

    __slots__ = ("partition_id", "label", "interval_us", "total_us",
                 "rng", "params", "_env", "_queue", "_source")

    def __init__(self, env, partition_id: int, label: str, interval_us: float,
                 total_us: float, rng: DeterministicRandom, params: dict,
                 queue: "AdmissionQueue", source: "TxnSource"):
        self._env = env
        self.partition_id = partition_id
        self.label = label
        self.interval_us = interval_us
        self.total_us = total_us
        self.rng = rng
        self.params = params
        self._queue = queue
        self._source = source

    def now(self) -> float:
        return self._env._now

    def set_hot_skew(self, theta: Optional[float]) -> None:
        """Shift the stream's key-popularity skew (``None``: the baseline).

        Arrivals queued before the shift belong to the old skew, so the
        queue draws them first (:meth:`AdmissionQueue.draw_pending`).
        """
        self._queue.draw_pending()
        self._source.set_hot_skew(theta)


@register_arrival(
    CLOSED, open_loop=False,
    params={"think_time_us": 0.0},
    description="fixed worker pool issuing transactions back-to-back (the "
                "default); think_time_us > 0 adds the classic N-clients "
                "interactive pause between a response and the next request",
)
class ClosedLoop:
    """The closed loop: each service fiber takes from its own stream.

    With the default ``think_time_us=0`` this is exactly the legacy
    back-to-back worker pool (:meth:`ArrivalSpec.coerce` normalizes the spec
    to ``None``, so results, JSON and orchestrator cache keys are untouched).
    A positive think time turns each service fiber into the classic
    interactive-client model: after a transaction completes, the client
    "thinks" for the fixed pause before issuing its next request, so offered
    load scales with the client count *and* per-client latency
    (N/(R + Z) in operational-law terms).
    """

    @staticmethod
    def check_params(params: dict) -> None:
        think = params["think_time_us"]
        if (isinstance(think, bool) or not isinstance(think, (int, float))
                or not think >= 0.0):
            raise ValueError(
                f"think_time_us must be a non-negative duration in simulated "
                f"microseconds, got {think!r}"
            )

    @staticmethod
    def think_time_us(spec: "ArrivalSpec") -> float:
        return float(spec.effective_params()["think_time_us"])


@register_arrival(
    "poisson",
    description="memoryless open-loop arrivals: exponential gaps at rate_tps",
)
class PoissonArrival:
    @staticmethod
    def gaps(ctx: ArrivalContext) -> Generator[float, None, None]:
        exponential = ctx.rng.exponential
        mean = ctx.interval_us
        while True:
            yield exponential(mean)


@register_arrival(
    "deterministic",
    description="evenly spaced open-loop arrivals at exactly rate_tps",
)
class DeterministicArrival:
    @staticmethod
    def gaps(ctx: ArrivalContext) -> Generator[float, None, None]:
        interval = ctx.interval_us
        while True:
            yield interval


@register_arrival(
    "bursty",
    params={"burst_start_frac": 0.4, "burst_end_frac": 0.7,
            "burst_factor": 4.0, "hot_theta": None},
    description="flash crowd: Poisson base load with a burst_factor rate "
                "spike (and optional hot_theta key-skew shift) between "
                "burst_start_frac and burst_end_frac of the run",
)
class BurstyArrival:
    @staticmethod
    def check_params(params: dict) -> None:
        start = params["burst_start_frac"]
        end = params["burst_end_frac"]
        if not 0.0 <= start < end <= 1.0:
            raise ValueError(
                f"bursty window must satisfy 0 <= burst_start_frac < "
                f"burst_end_frac <= 1, got [{start}, {end}]"
            )
        if not params["burst_factor"] > 0.0:
            raise ValueError(
                f"burst_factor must be positive, got {params['burst_factor']}"
            )
        hot = params["hot_theta"]
        if hot is not None and not 0.0 <= hot < 1.0:
            raise ValueError(f"hot_theta must be in [0, 1), got {hot}")

    @staticmethod
    def gaps(ctx: ArrivalContext) -> Generator[float, None, None]:
        params = ctx.params
        base = ctx.interval_us
        burst = base / params["burst_factor"]
        start = params["burst_start_frac"] * ctx.total_us
        end = params["burst_end_frac"] * ctx.total_us
        hot_theta = params["hot_theta"]
        exponential = ctx.rng.exponential
        shifted = False
        while True:
            in_burst = start <= ctx.now() < end
            if in_burst and not shifted:
                shifted = True
                if hot_theta is not None:
                    ctx.set_hot_skew(hot_theta)
            elif shifted and not in_burst:
                shifted = False
                if hot_theta is not None:
                    ctx.set_hot_skew(None)
            yield exponential(burst if in_burst else base)


# ---------------------------------------------------------------------------
# Open-loop runtime
# ---------------------------------------------------------------------------

class AdmissionQueue:
    """Bounded FIFO between a partition's arrival streams and service fibers.

    An arrival waits as ``(arrival_us, source)``: its transaction is drawn
    from ``source`` when a service fiber takes it, so a backlog costs one
    tuple per arrival instead of a drawn transaction, and an arrival still
    queued when the run stops is never drawn.  Every source still draws in
    arrival order (the draw-order contract of
    :class:`~repro.workloads.base.TxnSource`): before anything else observes
    a source — a drop, which draws and discards the dropped arrival's
    transaction, or a skew shift (:meth:`ArrivalContext.set_hot_skew`) —
    :meth:`draw_pending` draws every queued arrival in FIFO order.  Drawn
    arrivals wait in ``_drawn``, which always precedes ``_pending``.

    ``offer`` never blocks: past ``capacity`` the arrival is counted dropped
    (load shedding), so a sustained overload shows up as drops plus a full
    queue instead of unbounded memory growth.  ``take``/``wait`` give service
    fibers a lost-wakeup-free dequeue: waiter events are appended before
    control returns to the engine and woken one-per-offer in FIFO order, so
    dequeue order is deterministic.
    """

    __slots__ = ("_env", "capacity", "_drawn", "_pending", "_waiters",
                 "offered", "dropped", "peak_depth")

    def __init__(self, env, capacity: int):
        self._env = env
        self.capacity = capacity
        self._drawn: deque = deque()
        self._pending: deque = deque()
        self._waiters: deque = deque()
        self.offered = 0
        self.dropped = 0
        self.peak_depth = 0

    def offer(self, arrival_us: float, source: "TxnSource") -> bool:
        """Enqueue one arrival of ``source``; ``False`` (and a drop count)
        when full.  Only a drop draws: the dropped transaction, after every
        queued one."""
        self.offered += 1
        pending = self._pending
        depth = len(self._drawn) + len(pending)
        if depth >= self.capacity:
            self.draw_pending()
            source.next()
            self.dropped += 1
            return False
        pending.append((arrival_us, source))
        depth += 1
        if depth > self.peak_depth:
            self.peak_depth = depth
        if self._waiters:
            self._waiters.popleft().succeed()
        return True

    def take(self):
        """The oldest queued ``(arrival_us, spec)``, or ``None`` when empty."""
        if self._drawn:
            return self._drawn.popleft()
        if self._pending:
            arrival_us, source = self._pending.popleft()
            return arrival_us, source.next()
        return None

    def draw_pending(self) -> None:
        """Draw every queued arrival's transaction now, in FIFO order."""
        pending = self._pending
        append = self._drawn.append
        while pending:
            arrival_us, source = pending.popleft()
            append((arrival_us, source.next()))

    def wait(self):
        """An event triggered when the next arrival is offered."""
        event = self._env.event()
        self._waiters.append(event)
        return event

    @property
    def depth(self) -> int:
        return len(self._drawn) + len(self._pending)


def _arrival_loop(cluster: "Cluster", queue: AdmissionQueue,
                  source: "TxnSource", gaps) -> Generator:
    """One arrival stream: draw a gap, sleep, enqueue an arrival of ``source``."""
    env = cluster.env
    timeout = env.timeout
    offer = queue.offer
    for gap_us in gaps:
        if gap_us > 0:
            yield timeout(gap_us)
        if cluster.stopped:
            return
        offer(env._now, source)


def _partition_streams(cluster: "Cluster", spec: ArrivalSpec, partition_id: int):
    """The ``(label, source, aggregate_rate_tps)`` streams of one partition."""
    if not spec.component_rates:
        return [("all", cluster.new_txn_source(partition_id, 0), spec.rate_tps)]
    workload = cluster.workload
    component_source = getattr(workload, "component_source", None)
    if component_source is None:
        raise ValueError(
            f"arrival component_rates need a mixed workload with named "
            f"components; {workload.name!r} has none"
        )
    return [
        (name, component_source(cluster, partition_id, 0, name), rate)
        for name, rate in spec.component_rates
    ]


def start_open_loop(cluster: "Cluster") -> None:
    """Spawn the arrival streams, admission queues and service fibers.

    Called by ``Cluster.start()`` when the run has an open-loop arrival spec.
    Per partition: one bounded :class:`AdmissionQueue`, one arrival stream per
    rate (the aggregate stream, or one per ``component_rates`` entry), and
    ``concurrency_per_partition`` service fibers — the same execution width
    the closed loop would run, so saturation is comparable across modes.
    """
    from .cluster.worker import service_loop  # cluster package import cycle

    spec = cluster.arrival
    config = cluster.config
    env = cluster.env
    handler = ARRIVAL_REGISTRY.get(spec.kind)
    params = spec.effective_params()
    n_partitions = config.n_partitions
    total_us = config.warmup_us + config.duration_us

    for partition_id, server in cluster.servers.items():
        queue = AdmissionQueue(env, config.admission_queue_depth)
        cluster.admission_queues[partition_id] = queue
        for label, source, rate_tps in _partition_streams(cluster, spec, partition_id):
            # Aggregate offered load splits evenly across partitions.
            interval_us = 1_000_000.0 * n_partitions / rate_tps
            rng = DeterministicRandom(derive_seed(
                config.seed,
                stable_hash(f"arrival:{spec.kind}:{label}") & 0xFFFF,
                partition_id,
            ))
            ctx = ArrivalContext(env, partition_id, label, interval_us,
                                 total_us, rng, params, queue, source)
            cluster.fibers.append(env.process(
                _arrival_loop(cluster, queue, source, handler.gaps(ctx)),
                name=f"arrival-p{partition_id}-{label}",
            ))
        for fiber_id in range(config.concurrency_per_partition):
            cluster.fibers.append(env.process(
                service_loop(cluster, server, queue.take, queue.wait),
                name=f"service-p{partition_id}-{fiber_id}",
            ))
