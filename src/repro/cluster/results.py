"""Run results returned by :meth:`repro.cluster.cluster.Cluster.run`."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.stats import RunMetrics

__all__ = ["RunResult"]


@dataclass
class RunResult:
    """Everything a single simulated run reports.

    ``metrics`` is the raw record the cluster accumulated into; every number
    derived from it is defined here, once.
    """

    protocol: str
    durability: str
    workload: str
    n_partitions: int
    metrics: RunMetrics
    network_messages: int = 0
    per_txn_type: dict = field(default_factory=dict)
    abort_reasons: dict = field(default_factory=dict)

    #: The attributes :meth:`summary` reports by name, in its key order.
    _SUMMARY = ("throughput_ktps", "committed", "aborted", "abort_rate",
                "crash_abort_rate", "mean_latency_ms", "p99_latency_ms",
                "breakdown_us", "protocol", "durability", "workload",
                "n_partitions", "network_messages")

    @property
    def committed(self) -> int:
        return self.metrics.committed

    @property
    def aborted(self) -> int:
        return self.metrics.aborted

    @property
    def throughput_tps(self) -> float:
        """Committed transactions per (simulated) second."""
        if self.metrics.duration_us <= 0:
            return 0.0
        return self.metrics.committed / (self.metrics.duration_us / 1_000_000.0)

    @property
    def throughput_ktps(self) -> float:
        return self.throughput_tps / 1000.0

    @property
    def abort_rate(self) -> float:
        """Fraction of transaction *attempts* that aborted."""
        attempts = self.metrics.committed + self.metrics.aborted
        if attempts == 0:
            return 0.0
        return self.metrics.aborted / attempts

    @property
    def crash_abort_rate(self) -> float:
        total = self.metrics.committed + self.metrics.crash_aborted
        if total == 0:
            return 0.0
        return self.metrics.crash_aborted / total

    @property
    def mean_latency_ms(self) -> float:
        return self.metrics.latency.mean / 1000.0

    @property
    def p50_latency_ms(self) -> float:
        return self.metrics.latency.p50 / 1000.0

    @property
    def p99_latency_ms(self) -> float:
        return self.metrics.latency.p99 / 1000.0

    @property
    def p999_latency_ms(self) -> float:
        return self.metrics.latency.p999 / 1000.0

    @property
    def breakdown_us(self) -> dict:
        return self.metrics.breakdown.per_transaction()

    # -- degradation/recovery (fault-plan runs record a windowed timeline) -----
    @property
    def timeline(self):
        """The run's :class:`~repro.sim.stats.WindowedRecorder` (or ``None``
        for fault-free runs, which skip timeline recording entirely)."""
        return self.metrics.timeline

    @property
    def degradation_depth(self):
        """Deepest throughput dip relative to the median window (0..1), or
        ``None`` when the run recorded no timeline."""
        if self.metrics.timeline is None:
            return None
        return self.metrics.timeline.degradation_depth()

    @property
    def time_to_90pct_recovery_us(self):
        """Time from the deepest dip back to 90 % of the median window
        throughput; ``None`` without a timeline or when the run ends degraded."""
        if self.metrics.timeline is None:
            return None
        return self.metrics.timeline.time_to_recovery_us(0.9)

    def summary(self) -> dict:
        """Flat dictionary used by the bench report printers."""
        data = {name: getattr(self, name) for name in self._SUMMARY}
        data["per_txn_type"] = dict(self.per_txn_type)
        data["abort_reasons"] = dict(self.abort_reasons)
        if self.metrics.timeline is not None:
            data["degradation_depth"] = self.degradation_depth
            data["time_to_90pct_recovery_us"] = self.time_to_90pct_recovery_us
        return data

    def to_json_dict(self) -> dict:
        """Lossless JSON form used by the orchestrator cache and pool workers.

        ``RunResult.from_json_dict(result.to_json_dict())`` reports exactly the
        same counts, latencies and breakdowns as ``result`` itself.
        """
        return {
            "protocol": self.protocol,
            "durability": self.durability,
            "workload": self.workload,
            "n_partitions": self.n_partitions,
            "metrics": self.metrics.to_json_dict(),
            "network_messages": self.network_messages,
            "per_txn_type": dict(self.per_txn_type),
            "abort_reasons": dict(self.abort_reasons),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunResult":
        return cls(
            protocol=data["protocol"],
            durability=data["durability"],
            workload=data["workload"],
            n_partitions=int(data["n_partitions"]),
            metrics=RunMetrics.from_json_dict(data["metrics"]),
            network_messages=int(data.get("network_messages", 0)),
            per_txn_type=dict(data.get("per_txn_type", {})),
            abort_reasons=dict(data.get("abort_reasons", {})),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"RunResult({self.protocol}/{self.durability} on {self.workload}: "
            f"{self.throughput_ktps:.1f} kTPS, abort={self.abort_rate:.2%}, "
            f"latency={self.mean_latency_ms:.2f} ms)"
        )
