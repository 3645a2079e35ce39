"""System configuration for a simulated cluster run.

Defaults follow the paper's experimental setup (§6.1): 4 partitions, 3
replicas per partition, ~10 ms group-commit latency target, medium-contention
YCSB.  Latency constants model a 10 GbE-class network and local DRAM access;
they are deliberately explicit so ablation benches can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..registry import DURABILITY_REGISTRY, PROTOCOL_REGISTRY

__all__ = ["SystemConfig", "PROTOCOLS", "DURABILITY_SCHEMES"]

#: Names accepted by ``SystemConfig.protocol`` — the protocol registry itself,
#: so externally registered protocols are accepted automatically.
PROTOCOLS = PROTOCOL_REGISTRY

#: Names accepted by ``SystemConfig.durability`` — same, for group-commit schemes.
DURABILITY_SCHEMES = DURABILITY_REGISTRY


@dataclass
class SystemConfig:
    """All tunables of a simulated cluster."""

    # -- topology ---------------------------------------------------------
    n_partitions: int = 4
    replicas_per_partition: int = 3
    workers_per_partition: int = 4
    # Transactions a worker keeps in flight (it starts a new one while a
    # running transaction waits for a remote response, §6.1.3).
    inflight_per_worker: int = 2

    # -- protocol selection ------------------------------------------------
    protocol: str = "primo"
    durability: str = "wm"
    # Primo's read-heavy fallback (§4.3): when True the workload is declared
    # read-heavy+distributed and Primo processes distributed transactions with
    # plain 2PL+2PC instead of WCF.
    primo_fallback_to_2pc: bool = False

    # -- timing model (microseconds) ----------------------------------------
    one_way_network_latency_us: float = 50.0
    local_message_latency_us: float = 0.2
    cpu_record_access_us: float = 0.4       # per read/write record access
    cpu_txn_logic_us: float = 2.0           # per-transaction compute
    cpu_message_handling_us: float = 2.0    # coordinator-side cost per message
    log_write_us: float = 15.0              # serialize a log record batch
    storage_persist_us: float = 100.0       # SSD / replication quorum persist
    clv_tracking_overhead_us: float = 0.8   # CLV per-access dependency tracking

    # -- group commit / watermark ------------------------------------------
    epoch_length_us: float = 10_000.0       # COCO epoch / WM interval t_m (10 ms)
    watermark_force_update: bool = True     # §5.1 lagging-partition force update
    # Per-partition jitter of flush/epoch processing, models OS/GC noise that
    # makes synchronous epoch barriers hurt at scale.
    epoch_jitter_us: float = 200.0

    # -- transaction retry ---------------------------------------------------
    backoff_initial_us: float = 500.0        # 0.5 ms initial backoff (§6.1.3)
    backoff_multiplier: float = 2.0
    backoff_max_us: float = 16_000.0
    max_retries: int = 1_000

    # -- Aria ---------------------------------------------------------------
    aria_batch_size_per_partition: int = 20

    # -- open-loop admission --------------------------------------------------
    # Bound of the per-partition queue between open-loop arrival streams and
    # the service fibers (closed-loop runs never queue).  Arrivals beyond a
    # full queue are dropped and counted (``arrivals_dropped`` in the run's
    # counters): under sustained overload the cluster sheds load instead of
    # queueing unboundedly.
    admission_queue_depth: int = 10_000

    # -- run control ---------------------------------------------------------
    warmup_us: float = 20_000.0
    duration_us: float = 200_000.0
    seed: int = 42

    # -- failure detection ----------------------------------------------------
    heartbeat_interval_us: float = 2_000.0
    heartbeat_timeout_us: float = 10_000.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        # Registry-backed: raises UnknownNameError (a ValueError) listing the
        # registered names with a did-you-mean suggestion — the same error the
        # scenario layer and protocol/scheme factories raise.
        PROTOCOL_REGISTRY.check(self.protocol)
        DURABILITY_REGISTRY.check(self.durability)
        if self.n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        if self.workers_per_partition < 1 or self.inflight_per_worker < 1:
            raise ValueError("workers_per_partition and inflight_per_worker must be >= 1")
        if self.replicas_per_partition < 1:
            raise ValueError("replicas_per_partition must be >= 1")
        if self.duration_us <= 0:
            raise ValueError("duration_us must be positive")
        if self.epoch_length_us <= 0:
            raise ValueError("epoch_length_us must be positive")
        if self.admission_queue_depth < 1:
            raise ValueError("admission_queue_depth must be >= 1")

    # -- derived quantities ----------------------------------------------------
    @property
    def concurrency_per_partition(self) -> int:
        return self.workers_per_partition * self.inflight_per_worker
