"""Declarative fault plans: composable failure injection for any scenario.

A :class:`FaultPlan` is an ordered, frozen, JSON-round-trippable list of
:class:`FaultEvent`\\ s.  Each event names a registered *fault type* (crash a
partition leader, delay a scheme's control messages, slow or partition the
network, skew a partition's commit clock, ...), an ``at_us`` injection time,
an optional ``duration_us`` window after which the fault is reverted, a
*target selector* (one partition, several, or ``"all"``), and the fault
type's parameters.  Plans ride on :class:`repro.ScenarioSpec` (``faults=``),
so the same declarative document drives ``repro.run``, the cached
orchestrator and ``python -m repro.bench --scenario file.json``::

    spec = repro.ScenarioSpec(
        protocol="primo", scale="small",
        faults=[
            {"kind": "message_delay", "at_us": 0, "target": 1, "delay_us": 5000},
            {"kind": "crash", "at_us": 40_000, "target": 2},
        ],
    )

Fault types are registered through :func:`repro.registry.register_fault`,
so an extension can add one from a single self-registering file — exactly
like protocols, durability schemes and workloads::

    @register_fault("packet_burst", params=("delay_us",))
    class PacketBurstFault:
        @staticmethod
        def apply(cluster, partition_id, params): ...
        @staticmethod
        def revert(cluster, partition_id, params): ...

Determinism
-----------

The :class:`FaultScheduler` applies a plan inside the engine's event order:
events at ``at_us == 0`` are applied synchronously during ``Cluster.start()``
(before any simulation event runs), and the remaining timeline is driven by a
single simulation process that draws one timeout per distinct action time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Iterable, Mapping, Optional, Union

from .registry import (
    _FAULT_RESERVED_FIELDS,
    FAULT_REGISTRY,
    normalize_kind_params,
    register_fault,
    split_kind_json,
)

if TYPE_CHECKING:  # pragma: no cover
    from .cluster.cluster import Cluster

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FaultScheduler",
    "fault",
    "standard_storm",
]

#: Target selector meaning "every partition of the cluster".
ALL_PARTITIONS = "all"


def _normalize_target(target) -> Union[int, str, tuple]:
    """Coerce a target selector into an int, ``"all"``, or a tuple of ints."""
    if isinstance(target, bool):
        raise TypeError(f"fault target must be a partition id, list, or 'all', got {target!r}")
    if isinstance(target, int):
        if target < 0:
            raise ValueError(f"fault target partition must be >= 0, got {target}")
        return target
    if isinstance(target, str):
        if target != ALL_PARTITIONS:
            raise ValueError(
                f"unknown fault target {target!r}; use a partition id, a list "
                f"of partition ids, or {ALL_PARTITIONS!r}"
            )
        return ALL_PARTITIONS
    if isinstance(target, (list, tuple)):
        ids = tuple(_normalize_target(item) for item in target)
        if not ids:
            raise ValueError("fault target list must not be empty")
        if len(set(ids)) != len(ids):
            raise ValueError(f"fault target list has duplicates: {list(target)!r}")
        if any(not isinstance(item, int) for item in ids):
            raise TypeError(f"fault target list must hold partition ids, got {target!r}")
        return ids
    raise TypeError(
        f"fault target must be a partition id, a list of them, or "
        f"{ALL_PARTITIONS!r}, got {type(target).__name__}"
    )


@dataclass(frozen=True)
class FaultEvent:
    """One injection: a registered fault ``kind`` applied over a time window.

    ``duration_us=None`` means the fault is permanent (or, for ``crash``,
    resolved by the cluster's own failure-detection/recovery machinery).
    ``params`` holds the fault type's parameters as sorted ``(name, value)``
    pairs; the :func:`fault` helper and JSON documents spell them as plain
    keywords (``delay_us=5000``).  Validation is eager: an unknown kind,
    missing/unknown parameter, or a window on a non-windowed fault type
    raises at construction with a did-you-mean hint.
    """

    kind: str
    at_us: float = 0.0
    duration_us: Optional[float] = None
    target: Union[int, str, tuple] = 0
    params: tuple = ()

    def __post_init__(self) -> None:
        def set_field(name: str, value) -> None:
            object.__setattr__(self, name, value)

        entry = FAULT_REGISTRY.entry(self.kind)
        at_us = float(self.at_us)
        if at_us < 0:
            raise ValueError(f"fault at_us must be >= 0, got {at_us}")
        set_field("at_us", at_us)
        if self.duration_us is not None:
            if not entry.metadata.get("windowed", True):
                raise ValueError(
                    f"fault type {self.kind!r} does not take a duration_us window"
                )
            duration = float(self.duration_us)
            if duration <= 0:
                raise ValueError(f"fault duration_us must be > 0, got {duration}")
            set_field("duration_us", duration)
        set_field("target", _normalize_target(self.target))

        required = entry.metadata.get("params", ())
        params = normalize_kind_params(FAULT_REGISTRY, self.kind, self.params, required)
        given = {name for name, _ in params}
        missing = [name for name in required if name not in given]
        if missing:
            raise ValueError(
                f"fault type {self.kind!r} is missing parameter(s) "
                f"{', '.join(map(repr, missing))}"
            )
        set_field("params", params)

    # -- registry-backed behaviour ------------------------------------------------
    @property
    def handler(self):
        """The registered fault-type class (``apply``/``revert`` staticmethods)."""
        return FAULT_REGISTRY.get(self.kind)

    @property
    def requires_membership(self) -> bool:
        return bool(FAULT_REGISTRY.entry(self.kind).metadata.get("requires_membership"))

    def targets(self, n_partitions: int) -> tuple:
        """Resolve the target selector against a concrete cluster size."""
        if self.target == ALL_PARTITIONS:
            return tuple(range(n_partitions))
        if isinstance(self.target, int):
            return (self.target,)
        return self.target

    # -- JSON round trip ---------------------------------------------------------
    def to_json_dict(self) -> dict:
        """Flat JSON form: parameters sit next to the event fields."""
        data: dict = {"kind": self.kind, "at_us": self.at_us}
        if self.duration_us is not None:
            data["duration_us"] = self.duration_us
        data["target"] = (
            list(self.target) if isinstance(self.target, tuple) else self.target
        )
        data.update(dict(self.params))
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "FaultEvent":
        fields, params = split_kind_json(data, _FAULT_RESERVED_FIELDS, "fault event")
        return cls(params=params, **fields)


def fault(kind: str, at_us: float = 0.0, *, target=0,
          duration_us: Optional[float] = None, **params) -> FaultEvent:
    """Ergonomic :class:`FaultEvent` constructor with keyword parameters::

        fault("message_delay", at_us=0, target=1, delay_us=5_000.0)
    """
    return FaultEvent(kind=kind, at_us=at_us, duration_us=duration_us,
                      target=target, params=tuple(sorted(params.items())))


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, frozen sequence of :class:`FaultEvent`\\ s.

    Accepts events as :class:`FaultEvent` instances or their JSON dict form;
    the declared order is preserved (it breaks ties between actions scheduled
    at the same simulated time).
    """

    events: tuple = ()

    def __post_init__(self) -> None:
        normalized = []
        for event in self.events or ():
            if isinstance(event, FaultEvent):
                normalized.append(event)
            elif isinstance(event, Mapping):
                normalized.append(FaultEvent.from_json_dict(event))
            else:
                raise TypeError(
                    f"fault plan entries must be FaultEvent or JSON objects, "
                    f"got {type(event).__name__}"
                )
        object.__setattr__(self, "events", tuple(normalized))

    @classmethod
    def coerce(cls, value) -> Optional["FaultPlan"]:
        """``None`` | plan | event | iterable-of-events -> plan (or ``None``)."""
        if value is None:
            return None
        if isinstance(value, cls):
            return value if value.events else None
        if isinstance(value, (FaultEvent, Mapping)):
            value = [value]
        if isinstance(value, Iterable):
            plan = cls(events=tuple(value))
            return plan if plan.events else None
        raise TypeError(
            f"faults must be a FaultPlan or a list of fault events, got "
            f"{type(value).__name__}"
        )

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def requires_membership(self) -> bool:
        """True when any event needs the cluster's failure detector running."""
        return any(event.requires_membership for event in self.events)

    def max_partition(self) -> int:
        """Highest explicitly targeted partition id (-1 when none is explicit)."""
        highest = -1
        for event in self.events:
            target = event.target
            if isinstance(target, int):
                highest = max(highest, target)
            elif isinstance(target, tuple):
                highest = max(highest, *target)
        return highest

    # -- JSON round trip ---------------------------------------------------------
    def to_json_list(self) -> list:
        return [event.to_json_dict() for event in self.events]


class FaultScheduler:
    """Applies a :class:`FaultPlan` deterministically inside the event order.

    Zero-time events are applied synchronously when :meth:`start` runs (during
    ``Cluster.start()``, before the first simulation event).  Timed applies
    and window reverts are driven by one simulation process that sleeps
    between consecutive action times, so a plan with a single timed event
    draws a single timeout.
    """

    def __init__(self, cluster: "Cluster", plan: Optional[FaultPlan] = None):
        self.cluster = cluster
        self.env = cluster.env
        self.plan = plan if plan is not None else FaultPlan()
        self.applied = 0
        self.reverted = 0

    def start(self) -> None:
        if not self.plan.events:
            return
        n_partitions = self.cluster.config.n_partitions
        highest = self.plan.max_partition()
        if highest >= n_partitions:
            raise ValueError(
                f"fault plan targets partition {highest} but the cluster has "
                f"only {n_partitions} partitions"
            )
        self._check_window_overlaps(n_partitions)
        # (time, seq, action) — applies in plan order, each window's revert
        # sequenced directly after its apply so same-time ties stay stable.
        timeline: list = []
        for index, event in enumerate(self.plan.events):
            timeline.append((event.at_us, 2 * index, event, False))
            if event.duration_us is not None:
                timeline.append(
                    (event.at_us + event.duration_us, 2 * index + 1, event, True)
                )
        timeline.sort(key=lambda entry: (entry[0], entry[1]))

        pending = []
        for when, _, event, is_revert in timeline:
            if when == 0.0 and not is_revert:
                self._apply(event)
            else:
                pending.append((when, event, is_revert))
        if pending:
            self.env.process(self._run(pending), name="fault-scheduler")

    def _check_window_overlaps(self, n_partitions: int) -> None:
        """Reject same-kind events whose windows overlap on a shared target.

        Reverts are absolute clears (``set_extra_delay_to(p, 0.0)``, …), not
        restores of prior state, so a window ending inside another same-kind
        injection on the same target would silently cancel it.  That is a
        plan-authoring error; fail it loudly before the simulation starts.
        """
        spans = []  # (kind, targets, start, end, has_window)
        for event in self.plan.events:
            end = (event.at_us + event.duration_us
                   if event.duration_us is not None else float("inf"))
            spans.append((event.kind, set(event.targets(n_partitions)),
                          event.at_us, end, event.duration_us is not None))
        for i, (kind, targets, start, end, windowed) in enumerate(spans):
            for other in spans[:i]:
                o_kind, o_targets, o_start, o_end, o_windowed = other
                if kind != o_kind or not (windowed or o_windowed):
                    continue
                if targets.isdisjoint(o_targets):
                    continue
                if start < o_end and o_start < end:
                    raise ValueError(
                        f"fault plan has overlapping {kind!r} windows on "
                        f"partition(s) {sorted(targets & o_targets)}: a "
                        f"window's revert would cancel the other injection"
                    )

    def _run(self, pending) -> Generator:
        now = 0.0
        for when, event, is_revert in pending:
            if when > now:
                yield self.env.timeout(when - now)
                now = when
            if is_revert:
                self._revert(event)
            else:
                self._apply(event)

    def _apply(self, event: FaultEvent) -> None:
        handler = event.handler
        params = dict(event.params)
        for partition_id in event.targets(self.cluster.config.n_partitions):
            handler.apply(self.cluster, partition_id, params)
        self.applied += 1

    def _revert(self, event: FaultEvent) -> None:
        handler = event.handler
        params = dict(event.params)
        for partition_id in event.targets(self.cluster.config.n_partitions):
            handler.revert(self.cluster, partition_id, params)
        self.reverted += 1


# ---------------------------------------------------------------------------
# Built-in fault types
# ---------------------------------------------------------------------------

@register_fault(
    "crash", requires_membership=True,
    description="kill a partition leader; recovery runs via failure detection "
                "(or at the window end, if a duration is given)",
)
class CrashFault:
    """The Fig. 12b experiment: a partition leader dies at a fixed time."""

    @staticmethod
    def apply(cluster: "Cluster", partition_id: int, params: dict) -> None:
        cluster.servers[partition_id].crash()
        cluster.counters.increment("crashes_injected")

    @staticmethod
    def revert(cluster: "Cluster", partition_id: int, params: dict) -> None:
        # The heartbeat detector usually recovers the partition first; the
        # window end only forces recovery if it is still down.
        cluster.recovery.trigger(partition_id)


@register_fault(
    "recover", windowed=False,
    description="explicitly run the §5.2 recovery sequence for a crashed partition",
)
class RecoverFault:
    @staticmethod
    def apply(cluster: "Cluster", partition_id: int, params: dict) -> None:
        cluster.recovery.trigger(partition_id)


@register_fault(
    "message_delay", params=("delay_us",),
    description="delay the durability scheme's control messages from a "
                "partition (Fig. 13a's lagging watermark/epoch)",
)
class MessageDelayFault:
    @staticmethod
    def apply(cluster: "Cluster", partition_id: int, params: dict) -> None:
        cluster.durability.set_message_delay(partition_id, params["delay_us"])

    @staticmethod
    def revert(cluster: "Cluster", partition_id: int, params: dict) -> None:
        cluster.durability.set_message_delay(partition_id, 0.0)


@register_fault(
    "slow_partition", params=("delay_us",),
    description="inflate one-way latency of every message *to* a partition "
                "(Fig. 13b's slow partition)",
)
class SlowPartitionFault:
    @staticmethod
    def apply(cluster: "Cluster", partition_id: int, params: dict) -> None:
        cluster.network.set_extra_delay_to(partition_id, params["delay_us"])

    @staticmethod
    def revert(cluster: "Cluster", partition_id: int, params: dict) -> None:
        cluster.network.set_extra_delay_to(partition_id, 0.0)


@register_fault(
    "slow_source", params=("delay_us",),
    description="inflate one-way latency of every message *from* a partition",
)
class SlowSourceFault:
    @staticmethod
    def apply(cluster: "Cluster", partition_id: int, params: dict) -> None:
        cluster.network.set_extra_delay_from(partition_id, params["delay_us"])

    @staticmethod
    def revert(cluster: "Cluster", partition_id: int, params: dict) -> None:
        cluster.network.set_extra_delay_from(partition_id, 0.0)


@register_fault(
    "network_partition",
    description="drop every message to a partition for the window (the node "
                "itself keeps running; RPCs to it fail as unreachable)",
)
class NetworkPartitionFault:
    @staticmethod
    def apply(cluster: "Cluster", partition_id: int, params: dict) -> None:
        cluster.network.set_unreachable(partition_id, True)
        cluster.counters.increment("partitions_isolated")

    @staticmethod
    def revert(cluster: "Cluster", partition_id: int, params: dict) -> None:
        cluster.network.set_unreachable(partition_id, False)


@register_fault(
    "clock_skew", params=("skew_us",), windowed=False,
    description="push a partition's commit-timestamp floor ahead of real time, "
                "as a fast local clock would",
)
class ClockSkewFault:
    @staticmethod
    def apply(cluster: "Cluster", partition_id: int, params: dict) -> None:
        server = cluster.servers[partition_id]
        skewed = cluster.env.now + params["skew_us"]
        if skewed > server.ts_floor:
            server.ts_floor = skewed
        server.note_ts(skewed)


# ---------------------------------------------------------------------------
# Replication-level faults (follower-targeted; see repro.replication.raft)
# ---------------------------------------------------------------------------

@register_fault(
    "follower_lag", params=("follower", "delay_us"),
    description="stretch one follower's replication-ack round trip; quorum "
                "latency shifts to the next-fastest replica",
)
class FollowerLagFault:
    @staticmethod
    def apply(cluster: "Cluster", partition_id: int, params: dict) -> None:
        replication = cluster.servers[partition_id].replication
        replication.set_follower_lag(int(params["follower"]), params["delay_us"])

    @staticmethod
    def revert(cluster: "Cluster", partition_id: int, params: dict) -> None:
        replication = cluster.servers[partition_id].replication
        replication.set_follower_lag(int(params["follower"]), 0.0)


@register_fault(
    "follower_crash", params=("follower",),
    description="drop one follower out of the quorum (degrades quorum math; "
                "recovers at the window end or via an explicit "
                "follower_recover event)",
)
class FollowerCrashFault:
    @staticmethod
    def apply(cluster: "Cluster", partition_id: int, params: dict) -> None:
        replication = cluster.servers[partition_id].replication
        replication.crash_follower(int(params["follower"]))
        cluster.counters.increment("follower_crashes_injected")

    @staticmethod
    def revert(cluster: "Cluster", partition_id: int, params: dict) -> None:
        replication = cluster.servers[partition_id].replication
        replication.recover_follower(int(params["follower"]))


@register_fault(
    "follower_recover", params=("follower",), windowed=False,
    description="bring a crashed follower back, caught up to the leader's "
                "durable log prefix",
)
class FollowerRecoverFault:
    @staticmethod
    def apply(cluster: "Cluster", partition_id: int, params: dict) -> None:
        replication = cluster.servers[partition_id].replication
        replication.recover_follower(int(params["follower"]))


@register_fault(
    "leader_flap", params=("cycles", "interval_us"), windowed=False,
    requires_membership=True,
    description="crash a partition leader repeatedly (N crash->detect->elect "
                "cycles at a fixed interval); cycles that land while the "
                "leader is still down are skipped",
)
class LeaderFlapFault:
    """Repeated fail-over: exercises elect_new_leader under sustained load."""

    @staticmethod
    def apply(cluster: "Cluster", partition_id: int, params: dict) -> None:
        cycles = int(params["cycles"])
        interval_us = float(params["interval_us"])
        if cycles < 1:
            raise ValueError(f"leader_flap cycles must be >= 1, got {cycles}")
        if interval_us <= 0:
            raise ValueError(
                f"leader_flap interval_us must be > 0, got {interval_us}"
            )

        def flapper() -> Generator:
            for cycle in range(cycles):
                if cycle:
                    yield cluster.env.timeout(interval_us)
                server = cluster.servers[partition_id]
                if server.crashed:
                    # The previous crash has not finished recovery yet; a real
                    # flap cannot re-kill a dead leader, so skip this cycle.
                    continue
                server.crash()
                cluster.counters.increment("crashes_injected")
                cluster.counters.increment("leader_flaps")

        cluster.env.process(flapper(), name=f"leader-flap-p{partition_id}")


@register_fault(
    "stale_read", params=("fraction",),
    description="window where the given fraction of reads observes the "
                "pre-durable snapshot; counted in the 'stale_reads' metric "
                "(observational: timing is unchanged)",
)
class StaleReadFault:
    @staticmethod
    def apply(cluster: "Cluster", partition_id: int, params: dict) -> None:
        cluster.set_stale_read_fraction(partition_id, params["fraction"])

    @staticmethod
    def revert(cluster: "Cluster", partition_id: int, params: dict) -> None:
        cluster.set_stale_read_fraction(partition_id, 0.0)


# ---------------------------------------------------------------------------
# The standard storm
# ---------------------------------------------------------------------------

def standard_storm(warmup_us: float, duration_us: float) -> list:
    """The curated degradation/recovery fault plan behind the storm figure.

    A fixed sequence of staggered faults scaled to the measurement window
    (``warmup_us`` .. ``warmup_us + duration_us``): a lagging follower, a slow
    partition, a follower crash, a double leader flap, and a stale-read
    window.  Every event lands at a fixed fraction of the window so the same
    storm shape stresses any scale; pair it with a fast failure detector
    (e.g. ``heartbeat_interval_us=500, heartbeat_timeout_us=2000``) so the
    leader flaps actually recover inside the window.  Requires >= 2
    partitions and >= 2 replicas per partition.
    """
    warmup_us = float(warmup_us)
    duration_us = float(duration_us)
    if duration_us <= 0:
        raise ValueError(f"standard_storm duration_us must be > 0, got {duration_us}")

    def at(fraction: float) -> float:
        return warmup_us + fraction * duration_us

    def span(fraction: float) -> float:
        return fraction * duration_us

    return [
        fault("follower_lag", at_us=at(0.05), duration_us=span(0.20),
              target=0, follower=0, delay_us=400.0),
        fault("slow_partition", at_us=at(0.15), duration_us=span(0.15),
              target=1, delay_us=200.0),
        fault("follower_crash", at_us=at(0.30), duration_us=span(0.10),
              target=0, follower=0),
        fault("leader_flap", at_us=at(0.45), target=1,
              cycles=2, interval_us=span(0.10)),
        fault("stale_read", at_us=at(0.75), duration_us=span(0.15),
              target=ALL_PARTITIONS, fraction=0.2),
    ]
