"""Controlled Lock Violation (CLV) durability.

CLV (Graefe et al., SIGMOD'13) releases locks before the log is durable and
tracks commit dependencies at a fine grain so a transaction can be
acknowledged as soon as (a) its own log records are durable on every involved
partition and (b) the transactions it read from are durable.  Compared to the
group-commit schemes it offers lower latency but pays a per-access dependency
tracking cost on the critical path — which is why the paper finds it slower
than both COCO and WM (Fig. 11).

The reproduction models the two essential characteristics:

* a background flusher per partition with a short flush interval, so the
  acknowledgement latency is a fraction of a millisecond rather than the
  10 ms group-commit interval;
* a per-record-access CPU overhead (``clv_tracking_overhead_us``) charged on
  the transaction's critical path for maintaining the dependency graph.

Dependencies between transactions on the same partition are subsumed by the
log-prefix rule (a flush persists everything appended before it), which is
how CLV implementations batch dependency releases in practice.
"""

from __future__ import annotations

from ..registry import register_durability
from ..sim.engine import Event
from .base import CRASH_ABORTED, DURABLE, DurabilityScheme

__all__ = ["ControlledLockViolation"]


class _PendingTxn:
    __slots__ = ("event", "needed")

    def __init__(self, event: Event, needed: dict[int, int]):
        self.event = event
        # partition id -> LSN that must be durable on that partition.
        self.needed = needed


@register_durability("clv", description="controlled lock violation (early lock release)")
class ControlledLockViolation(DurabilityScheme):
    name = "clv"

    #: Background flush interval (µs). Short so latency stays sub-millisecond.
    flush_interval_us = 200.0

    def __init__(self, cluster):
        super().__init__(cluster)
        self._pending: list[_PendingTxn] = []

    def start(self) -> None:
        for partition_id in range(self.config.n_partitions):
            self.env.process(self._flusher(partition_id), name=f"clv-flusher-p{partition_id}")

    def execution_overhead_us(self, txn) -> float:
        accesses = len(txn.read_set) + len(txn.write_set)
        return accesses * self.config.clv_tracking_overhead_us

    def transaction_executed(self, server, txn) -> Event:
        done = self.env.event()
        needed = {}
        for partition_id in sorted(txn.all_partitions()):
            target = self.cluster.servers[partition_id]
            needed[partition_id] = target.log.last_lsn
        self._pending.append(_PendingTxn(done, needed))
        return done

    def _flusher(self, partition_id: int):
        server = self.cluster.servers[partition_id]
        while True:
            yield self.env.timeout(self.flush_interval_us)
            if server.crashed:
                continue
            if server.log.unpersisted_count > 0:
                yield from server.log.flush()
            self._release_ready()

    def _release_ready(self) -> None:
        # A flush round typically makes a whole batch of transactions durable
        # at once; they are released after the scan, in pending order, while
        # crash-aborted ones are succeeded as the scan meets them.
        servers = self.cluster.servers
        released = []
        still_pending = []
        for pending in self._pending:
            if pending.event.triggered:
                continue
            if any(servers[p].crashed for p in pending.needed):
                pending.event.succeed(CRASH_ABORTED)
                continue
            durable_everywhere = all(
                servers[p].log.durable_lsn >= lsn
                for p, lsn in pending.needed.items()
            )
            if durable_everywhere:
                released.append(pending.event)
            else:
                still_pending.append(pending)
        self._pending = still_pending
        for event in released:
            event.succeed(DURABLE)

    def notify_crash(self, partition_id: int) -> None:
        """Crash-abort the commits that need the partition now, not at the next flush."""
        self._release_ready()
