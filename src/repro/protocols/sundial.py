"""Sundial: TicToc-based distributed concurrency control + 2PC.

Sundial (Yu et al., VLDB'18) extends TicToc's logical leases to distributed
transactions.  Reads take no locks and record the observed ``[wts, rts]``
lease; at commit a 2PC round locks the write-set, computes the commit
timestamp from the lease constraints, and renews (extends) the leases of the
read records on every involved partition.  Lease renewal is what makes Sundial
the strongest 2PC-based baseline in the paper: like Primo it rarely aborts
local readers, but unlike Primo it still pays the two 2PC round trips inside
the contention footprint.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator

from ..commit.logging import LogRecordKind
from ..core.tictoc import compute_commit_ts
from ..storage.lock import LockMode, LockPolicy
from ..txn.context import TxnContext
from ..txn.transaction import AbortReason, Transaction, TxnAborted, UserAbort
from ..registry import register_protocol
from .base import BaseProtocol, install_write_entries
from .two_pc import TwoPhaseCommitMixin

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.server import Server

__all__ = ["SundialProtocol", "SundialContext"]


class SundialContext(TxnContext):
    """Lease-stamped OCC reads (no locks); writes buffered."""

    registers_lower_bound = True


@register_protocol("sundial", default_durability="coco",
                   description="TicToc-based (Sundial) + 2PC")
class SundialProtocol(TwoPhaseCommitMixin, BaseProtocol):
    name = "sundial"
    lock_policy = LockPolicy.WAIT_DIE

    context_class = SundialContext

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

    # -- commit-timestamp + validation ------------------------------------------------------
    def choose_commit_ts(self, server: "Server", txn: Transaction, context) -> float:
        return compute_commit_ts(txn, server.ts_floor)

    def _lock_and_renew(self, server: "Server", txn: Transaction, writes: list,
                        reads: list, commit_ts: float) -> Generator:
        """Sundial prepare work at one partition: lock writes, renew read leases."""
        lock_manager = server.store.lock_manager
        for entry in sorted(writes, key=lambda w: (w.table, str(w.key))):
            record = server.store.table(entry.table).get(entry.key)
            if record is None:
                if entry.is_insert:
                    continue
                return False
            ok = lock_manager.acquire_nowait(txn.tid, record, LockMode.EXCLUSIVE)
            if type(ok) is not bool:
                ok = yield ok
            if not ok:
                return False
        written = {(w.table, w.key) for w in writes}
        for entry in reads:
            record = server.store.table(entry.table).get(entry.key)
            if record is None:
                return False
            if record.wts != entry.wts:
                return False
            if (entry.table, entry.key) in written:
                continue
            if commit_ts <= record.rts:
                continue
            if lock_manager.locked_by_other(txn.tid, record):
                return False
            record.extend_rts(commit_ts)
        yield from self.cpu(self.config.cpu_record_access_us * max(1, len(writes) + len(reads)))
        return True

    # -- single-partition fast path (plain TicToc) --------------------------------------------
    def _commit_single_partition(self, server: "Server", txn: Transaction, context) -> Generator:
        commit_start = self.env.now
        commit_ts = compute_commit_ts(txn, server.ts_floor)
        txn.ts = commit_ts
        ok = yield from self._lock_and_renew(
            server, txn,
            txn.writes_for_partition(server.partition_id),
            txn.reads_for_partition(server.partition_id),
            commit_ts,
        )
        if not ok:
            self._abort(txn, AbortReason.VALIDATION, "sundial local validation")
        install_write_entries(server, txn, txn.write_set, commit_ts)
        server.store.lock_manager.release_all(txn.tid)
        server.note_ts(commit_ts)
        txn.add_breakdown("commit", self.env.now - commit_start)

    # -- 2PC hooks ------------------------------------------------------------------------------
    def prepare_local(self, server: "Server", txn: Transaction, context) -> Generator:
        ok = yield from self._lock_and_renew(
            server, txn,
            txn.writes_for_partition(server.partition_id),
            txn.reads_for_partition(server.partition_id),
            txn.ts,
        )
        return ok

    def prepare_participant(self, participant: "Server", txn: Transaction,
                            writes: list, reads: list, commit_ts) -> Generator:
        if participant.crashed:
            return False
        ok = yield from self._lock_and_renew(participant, txn, writes, reads, commit_ts)
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
