"""TAPIR (simplified): co-designed atomic commit + inconsistent replication.

TAPIR (Zhang et al., TOCS'18) executes transactions optimistically and commits
with a single round of messages to the participants' replica groups: the
prepare carries the read versions and the write-set, each replica group
validates with OCC checks, and the quorum answer both decides the transaction
and makes it durable (no separate log flush, no group commit).  The result is
the design point the paper contrasts with Primo in §6.6: low latency (one
round trip, no batching) but OCC retries under contention and no contention
footprint reduction.

Simplifications versus the real system: the inconsistent-replication fast
path always succeeds (no slow-path retries), and the per-partition prepared
set stands in for the replicas' OCC state.  Matching §6.6, the benchmark
harness restricts TAPIR (and Primo, for fairness) to one worker per server.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..sim.engine import all_of
from ..sim.network import NodeUnreachable
from ..storage.lock import LockPolicy
from ..txn.transaction import AbortReason, Transaction
from ..registry import register_protocol
from .base import BaseProtocol, install_write_entries

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.server import Server

__all__ = ["TapirProtocol"]


@register_protocol("tapir", default_durability="sync",
                   description="co-designed commit + inconsistent replication")
class TapirProtocol(BaseProtocol):
    name = "tapir"
    lock_policy = LockPolicy.NO_WAIT

    def __init__(self, cluster):
        super().__init__(cluster)
        # Per-partition OCC state of prepared-but-undecided transactions:
        # partition -> {(table, key): set of tids with a prepared write}.
        self._prepared_writes: dict[int, dict] = {
            p: {} for p in range(self.config.n_partitions)
        }
        self._prepared_reads: dict[int, dict] = {
            p: {} for p in range(self.config.n_partitions)
        }

    # -- single-round commit --------------------------------------------------------------
    def commit(self, server: "Server", txn: Transaction, context) -> Generator:
        commit_start = self.env.now
        partitions = sorted(txn.all_partitions())
        prepare_calls = []
        for partition in partitions:
            reads = txn.reads_for_partition(partition)
            writes = txn.writes_for_partition(partition)
            prepare_calls.append(
                self.env.process(
                    self._ask_quorum(server, partition, txn, reads, writes),
                    name=f"tapir-prepare-{txn.tid}-p{partition}",
                )
            )
        votes = yield all_of(self.env, prepare_calls)
        txn.add_breakdown("2pc", self.env.now - commit_start)
        if not all(v is True for v in votes):
            self._send_decision(server, txn, commit=False)
            self._abort(txn, AbortReason.VALIDATION, "TAPIR prepare rejected")
        commit_ts = server.highest_ts_seen + 1
        txn.ts = commit_ts
        self._send_decision(server, txn, commit=True, commit_ts=commit_ts)
        server.note_ts(commit_ts)
        txn.add_breakdown("commit", self.env.now - commit_start)

    def _ask_quorum(self, server, partition, txn, reads, writes):
        try:
            # One round trip to the partition's replica quorum: the inconsistent
            # replication fast path costs the same as a single RPC.
            vote = yield from self.network.rpc(
                server.partition_id, partition, self._validate_at, partition, txn, reads, writes)
        except NodeUnreachable:
            return False
        return vote

    def _validate_at(self, partition: int, txn: Transaction, reads, writes) -> bool:
        target = self.server_of(partition)
        if target.crashed:
            return False
        prepared_writes = self._prepared_writes[partition]
        prepared_reads = self._prepared_reads[partition]
        written = {(w.table, w.key) for w in writes}
        for entry in reads:
            record = target.store.table(entry.table).get(entry.key)
            if record is None or record.version != entry.version:
                return False
            owners = prepared_writes.get((entry.table, entry.key), set())
            if owners - {txn.tid}:
                return False
        for entry in writes:
            owners = prepared_writes.get((entry.table, entry.key), set())
            if owners - {txn.tid}:
                return False
            readers = prepared_reads.get((entry.table, entry.key), set())
            if readers - {txn.tid}:
                return False
        for entry in writes:
            prepared_writes.setdefault((entry.table, entry.key), set()).add(txn.tid)
        for entry in reads:
            if (entry.table, entry.key) not in written:
                prepared_reads.setdefault((entry.table, entry.key), set()).add(txn.tid)
        return True

    def _send_decision(self, server: "Server", txn: Transaction, commit: bool,
                       commit_ts: float = 0.0) -> None:
        for partition in sorted(txn.all_partitions()):
            if partition == server.partition_id:
                self._apply_decision(partition, txn, commit, commit_ts)
            else:
                self.network.send(
                    server.partition_id, partition,
                    self._apply_decision, partition, txn, commit, commit_ts,
                )

    def _apply_decision(self, partition: int, txn: Transaction, commit: bool,
                        commit_ts: float) -> None:
        target = self.server_of(partition)
        self._forget(partition, txn)
        if not commit or target.crashed:
            return
        writes = txn.writes_for_partition(partition)
        if writes:
            install_write_entries(target, txn, writes, commit_ts)
            target.note_ts(commit_ts)

    def _forget(self, partition: int, txn: Transaction) -> None:
        for table_key, owners in list(self._prepared_writes[partition].items()):
            owners.discard(txn.tid)
            if not owners:
                del self._prepared_writes[partition][table_key]
        for table_key, readers in list(self._prepared_reads[partition].items()):
            readers.discard(txn.tid)
            if not readers:
                del self._prepared_reads[partition][table_key]

    def cleanup_abort(self, server: "Server", txn: Transaction) -> None:
        """No locks and no ABORT round: forget the prepared state everywhere."""
        for partition in range(self.config.n_partitions):
            self._forget(partition, txn)
