"""2PL + 2PC baselines (Spanner-style, §2.1).

Execution phase: every read takes a *shared* lock (remote reads do so at the
participant via an RPC); writes are buffered.  Commit phase: standard 2PC
(see :mod:`repro.protocols.two_pc`) where prepare upgrades the locks of the
write-set to exclusive and installs nothing until the commit decision.

Two variants differ only in the deadlock-handling policy:

* ``2pl_nw`` — NO_WAIT: a conflicting lock request aborts immediately;
* ``2pl_wd`` — WAIT_DIE: older transactions wait, younger ones abort.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator

from ..commit.logging import LogRecordKind
from ..storage.lock import LockMode, LockPolicy
from ..txn.context import TxnContext
from ..txn.transaction import (
    AbortReason,
    ReadEntry,
    Transaction,
    TxnAborted,
    UserAbort,
)
from ..registry import register_protocol
from .base import BaseProtocol, install_write_entries
from .two_pc import TwoPhaseCommitMixin

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.server import Server

__all__ = ["TwoPLNoWaitProtocol", "TwoPLWaitDieProtocol", "TwoPLContext"]


class TwoPLContext(TxnContext):
    """Execution-phase context: shared locks for reads, buffered writes."""

    local_lock = LockMode.SHARED


@register_protocol("2pl_nw", default_durability="coco",
                   description="2PL NO_WAIT + 2PC (Spanner-like)")
class TwoPLNoWaitProtocol(TwoPhaseCommitMixin, BaseProtocol):
    """2PL with NO_WAIT deadlock prevention + 2PC."""

    name = "2pl_nw"
    lock_policy = LockPolicy.NO_WAIT

    context_class = TwoPLContext

    # -- protocol interface -----------------------------------------------------
    def run_transaction(self, server: "Server", txn: Transaction,
                        logic: Callable[[TxnContext], Generator]) -> Generator:
        try:
            context = yield from self._execute_logic(server, txn, logic)
            txn.execute_end_time = self.env.now
            yield from self.run_two_phase_commit(server, txn, context)
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

    # -- execution-phase remote read ------------------------------------------------
    def remote_read(self, server: "Server", txn: Transaction, partition: int,
                    table: str, key) -> Generator:
        """Shared-lock the record at its partition and return its read entry."""
        target = self.server_of(partition)

        def handler() -> Generator:
            if target.crashed:
                return None
            record = target.store.table(table).get(key)
            if record is None:
                return None
            ok = target.store.lock_manager.acquire_nowait(
                txn.tid, record, LockMode.SHARED
            )
            if type(ok) is not bool:
                ok = yield ok
            if not ok:
                return None
            return ReadEntry(
                partition, table, key, *record.read(), locked=True, local=False)

        entry = yield from self.network.rpc(server.partition_id, partition, handler)
        if entry is None:
            raise TxnAborted(AbortReason.LOCK_CONFLICT, f"remote S-lock {table}:{key}")
        return entry

    # -- 2PC hooks ----------------------------------------------------------------------
    def prepare_local(self, server: "Server", txn: Transaction, context) -> Generator:
        ok = yield from self._upgrade_write_locks(server, txn, context)
        return ok

    def prepare_participant(self, participant: "Server", txn: Transaction,
                            writes: list, reads: list, commit_ts) -> Generator:
        if participant.crashed:
            return False
        yield from self.cpu(self.config.cpu_record_access_us * max(1, len(writes)))
        for entry in writes:
            record = participant.store.table(entry.table).get(entry.key)
            if record is None:
                if entry.is_insert:
                    continue
                return False
            ok = participant.store.lock_manager.acquire_nowait(
                txn.tid, record, LockMode.EXCLUSIVE
            )
            if type(ok) is not bool:
                ok = yield ok
            if not ok:
                return False
        participant.log.append(LogRecordKind.PREPARE, txn_ts=commit_ts, txn_tid=txn.tid)
        return True

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

    # -- helpers --------------------------------------------------------------------------
    def _upgrade_write_locks(self, server: "Server", txn: Transaction, context) -> Generator:
        for entry in txn.writes_for_partition(server.partition_id):
            record = context.records.get((entry.partition, entry.table, entry.key))
            if record is None:
                record = server.store.table(entry.table).get(entry.key)
                if record is None:
                    if entry.is_insert:
                        continue
                    return False
            ok = server.store.lock_manager.acquire_nowait(
                txn.tid, record, LockMode.EXCLUSIVE
            )
            if type(ok) is not bool:
                ok = yield ok
            if not ok:
                return False
        return True

    def _cleanup_abort(self, server: "Server", txn: Transaction) -> None:
        server.store.lock_manager.release_all(txn.tid)
        for partition in txn.participants:
            participant = self.server_of(partition)
            self.network.send(
                server.partition_id, partition, self.abort_participant, participant, txn
            )


@register_protocol("2pl_wd", default_durability="coco",
                   description="2PL WAIT_DIE + 2PC")
class TwoPLWaitDieProtocol(TwoPLNoWaitProtocol):
    """2PL with WAIT_DIE deadlock prevention + 2PC."""

    name = "2pl_wd"
    lock_policy = LockPolicy.WAIT_DIE
