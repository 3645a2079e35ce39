"""Synchronous per-transaction durability.

The classic pre-group-commit design: the transaction's log records are
flushed (quorum-replicated) on every involved partition before the result is
returned.  Used as the durability pairing for TAPIR (whose prepare round
already reaches a replica quorum, so the extra flush models the commit
decision record) and as a baseline in the logging-ablation benches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..registry import register_durability
from ..sim.engine import Event, all_of
from .base import CRASH_ABORTED, DURABLE, DurabilityScheme

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.server import Server
    from ..txn.transaction import Transaction

__all__ = ["SyncDurability"]


@register_durability("sync", description="synchronous per-transaction logging (no group commit)")
class SyncDurability(DurabilityScheme):
    name = "sync"

    def transaction_executed(self, server: "Server", txn: "Transaction") -> Event:
        done = self.env.event()
        self.env.process(self._flush_all(sorted(txn.all_partitions()), done),
                         name=f"sync-flush-{txn.tid}")
        return done

    def _flush_all(self, partitions: list, done: Event):
        flush_processes = []
        for partition_id in partitions:
            target = self.cluster.servers[partition_id]
            if target.crashed:
                continue
            flush_processes.append(
                self.env.process(target.log.flush(), name=f"flush-p{partition_id}")
            )
        if flush_processes:
            yield all_of(self.env, flush_processes)
        if any(self.cluster.servers[p].crashed for p in partitions):
            done.succeed(CRASH_ABORTED)
        else:
            done.succeed(DURABLE)
