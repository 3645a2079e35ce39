"""Silo-style OCC + 2PC (the distributed variant used in COCO).

Execution phase (the default :class:`~repro.txn.context.TxnContext`): reads
take no locks and record the observed version; writes are buffered.  Commit phase runs over 2PC: *prepare* locks the write-set
records (NO_WAIT style — a lock conflict votes NO) and validates the
partition's portion of the read-set (version unchanged and not locked by
another transaction); *commit* installs the writes and releases.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator

from ..commit.logging import LogRecordKind
from ..storage.lock import LockMode, LockPolicy
from ..txn.context import TxnContext
from ..txn.transaction import AbortReason, Transaction, TxnAborted, UserAbort
from ..registry import register_protocol
from .base import BaseProtocol, install_write_entries
from .two_pc import TwoPhaseCommitMixin

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.server import Server

__all__ = ["SiloProtocol"]


@register_protocol("silo", default_durability="coco",
                   description="OCC (Silo) + 2PC, distributed variant from COCO")
class SiloProtocol(TwoPhaseCommitMixin, BaseProtocol):
    name = "silo"
    lock_policy = LockPolicy.NO_WAIT

    def run_transaction(self, server: "Server", txn: Transaction,
                        logic: Callable[[TxnContext], Generator]) -> Generator:
        try:
            context = yield from self._execute_logic(server, txn, logic)
            txn.execute_end_time = self.env.now
            if txn.is_distributed:
                yield from self.run_two_phase_commit(server, txn, context)
            else:
                yield from self._commit_single_partition(server, txn, context)
            txn.commit_end_time = self.env.now
            return True
        except UserAbort:
            self._cleanup_abort(server, txn)
            txn.abort_reason = AbortReason.USER
            return False
        except TxnAborted as aborted:
            self._cleanup_abort(server, txn)
            if txn.abort_reason is None:
                txn.abort_reason = aborted.reason
            return False

    # -- validation helpers ------------------------------------------------------------
    def _lock_and_validate(self, server: "Server", txn: Transaction,
                           writes: list, reads: list) -> Generator:
        """Silo prepare work for one partition: lock writes, validate reads."""
        lock_manager = server.store.lock_manager
        for entry in sorted(writes, key=lambda w: (w.table, str(w.key))):
            record = server.store.table(entry.table).get(entry.key)
            if record is None:
                if entry.is_insert:
                    continue
                return False
            granted = lock_manager.try_acquire(txn.tid, record, LockMode.EXCLUSIVE)
            if not granted:
                return False
        written = {(w.table, w.key) for w in writes}
        for entry in reads:
            record = server.store.table(entry.table).get(entry.key)
            if record is None:
                return False
            if record.version != entry.version:
                return False
            if (entry.table, entry.key) in written:
                continue
            if lock_manager.locked_by_other(txn.tid, record):
                return False
        yield from self.cpu(self.config.cpu_record_access_us * max(1, len(writes) + len(reads)))
        return True

    # -- single-partition fast path ------------------------------------------------------
    def _commit_single_partition(self, server: "Server", txn: Transaction, context) -> Generator:
        commit_start = self.env.now
        ok = yield from self._lock_and_validate(
            server, txn,
            txn.writes_for_partition(server.partition_id),
            txn.reads_for_partition(server.partition_id),
        )
        if not ok:
            self._abort(txn, AbortReason.VALIDATION, "silo local validation")
        commit_ts = server.highest_ts_seen + 1
        txn.ts = commit_ts
        install_write_entries(server, txn, txn.write_set, commit_ts)
        server.store.lock_manager.release_all(txn.tid)
        server.note_ts(commit_ts)
        txn.add_breakdown("commit", self.env.now - commit_start)

    # -- 2PC hooks --------------------------------------------------------------------------
    def prepare_local(self, server: "Server", txn: Transaction, context) -> Generator:
        ok = yield from self._lock_and_validate(
            server, txn,
            txn.writes_for_partition(server.partition_id),
            txn.reads_for_partition(server.partition_id),
        )
        return ok

    def prepare_participant(self, participant: "Server", txn: Transaction,
                            writes: list, reads: list, commit_ts) -> Generator:
        if participant.crashed:
            return False
        ok = yield from self._lock_and_validate(participant, txn, writes, reads)
        if ok:
            participant.log.append(LogRecordKind.PREPARE, txn_ts=commit_ts, txn_tid=txn.tid)
        return ok

    def commit_local(self, server: "Server", txn: Transaction, context, commit_ts) -> Generator:
        local_writes = txn.writes_for_partition(server.partition_id)
        yield from self.cpu(self.config.cpu_record_access_us * max(1, len(local_writes)))
        install_write_entries(server, txn, local_writes, commit_ts)
        server.store.lock_manager.release_all(txn.tid)

    def commit_participant(self, participant: "Server", txn: Transaction,
                           writes: list, reads: list, commit_ts) -> Generator:
        if participant.crashed:
            return
        yield from self.cpu(self.config.cpu_record_access_us * max(1, len(writes)))
        install_write_entries(participant, txn, writes, commit_ts)
        participant.store.lock_manager.release_all(txn.tid)
        participant.note_ts(commit_ts)

    def _cleanup_abort(self, server: "Server", txn: Transaction) -> None:
        server.store.lock_manager.release_all(txn.tid)
        for partition in txn.participants:
            participant = self.server_of(partition)
            self.network.send(
                server.partition_id, partition, self.abort_participant, participant, txn
            )
