"""Primo: write-conflict-free distributed concurrency control (WCF, §4).

The protocol distinguishes local and distributed transactions at runtime:

* a transaction starts in **local mode** and is processed with TicToc
  (:mod:`repro.core.tictoc`, :meth:`PrimoProtocol._commit_local_mode`) — reads
  take no locks;
* on its first remote access it **switches to distributed mode**: the records
  it has already read are exclusive-locked and re-validated, and from then on
  every read (local or remote) acquires an exclusive lock (Algorithm 1);
* because the read-set covers the write-set (blind writes are turned into
  dummy reads), the commit phase can never encounter a conflict on any
  partition, so the coordinator simply computes the TicToc commit timestamp,
  installs local writes, and ships the remote write-sets with **one-way**
  messages — no prepare round, no votes, no commit round (Fig. 1).

Crash-induced aborts are not handled here at all: that is the job of the
watermark-based group commit (:mod:`repro.core.watermark`), which decides when
a transaction's result may be returned and which transactions get rolled back
after a failure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional

from ..commit.logging import LogRecordKind
from ..protocols.base import BaseProtocol, install_write_entries
from ..registry import register_protocol
from ..storage.lock import LockMode, LockPolicy
from ..txn.context import TxnContext
from ..txn.transaction import (
    AbortReason,
    ReadEntry,
    Transaction,
    TxnAborted,
    WriteEntry,
)
from .tictoc import compute_commit_ts, in_key_order, lock_write_set

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.server import Server

__all__ = ["PrimoProtocol", "PrimoContext"]

LOCAL_MODE = "local"
DISTRIBUTED_MODE = "distributed"


class PrimoContext(TxnContext):
    """Execution-phase context implementing Algorithm 1 at the coordinator."""

    registers_lower_bound = True
    # Local mode reads lock-free (TicToc); the switch below turns
    # ``local_lock`` exclusive for every later read (Line 6).
    mode = LOCAL_MODE

    def _remote_read(self, partition: int, table: str, key) -> Generator:
        """The first remote access switches the transaction to distributed mode."""
        if self.mode == LOCAL_MODE:
            yield from self._switch_to_distributed()
        entry = yield from self.protocol.remote_read(self.server, self.txn, partition, table, key)
        return entry

    # -- the local -> distributed mode switch (§4.2.2) ---------------------------
    def _switch_to_distributed(self) -> Generator:
        lock_manager = self.server.store.lock_manager
        for entry in list(self.txn.read_set):
            if not entry.local or entry.locked:
                continue
            record = self.records.get((entry.partition, entry.table, entry.key))
            if record is None:
                continue
            ok = lock_manager.acquire_nowait(self.txn.tid, record, LockMode.EXCLUSIVE)
            if type(ok) is not bool:
                ok = yield ok
            if not ok:
                raise TxnAborted(AbortReason.MODE_SWITCH, "lock during mode switch")
            if record.wts != entry.wts:
                # The record changed while we read it without a lock: abort and
                # let the retry run directly in distributed mode.
                raise TxnAborted(AbortReason.MODE_SWITCH, "record changed before switch")
            entry.locked = True
        self.mode = DISTRIBUTED_MODE
        self.local_lock = LockMode.EXCLUSIVE
        self.txn.is_distributed = True

    # -- writes --------------------------------------------------------------------
    def _before_write(self, entry: WriteEntry) -> Optional[Generator]:
        """Keep the read-set covering the write-set (§4.2 "Blind-write
        Handling") and switch modes on the first remote write."""
        if not entry.is_insert and self.txn.find_read(
            entry.partition, entry.table, entry.key
        ) is None:
            # Blind write: a dummy read takes the exclusive lock so the commit
            # phase stays conflict-free.  A local one in local mode needs
            # none: TicToc's write-set locking at validation covers it.
            if not entry.local or self.mode == DISTRIBUTED_MODE:
                return self.read(entry.partition, entry.table, entry.key, dummy=True)
        elif not entry.local and self.mode == LOCAL_MODE:
            return self._switch_to_distributed()
        return None


@register_protocol("primo", default_durability="wm",
                   description="WCF + TicToc + watermark group commit (this paper)")
class PrimoProtocol(BaseProtocol):
    """WCF + TicToc concurrency control (the commit path of Algorithm 1)."""

    name = "primo"
    lock_policy = LockPolicy.WAIT_DIE
    context_class = PrimoContext

    def __init__(self, cluster):
        super().__init__(cluster)
        self._fallback = None
        if self.config.primo_fallback_to_2pc:
            from ..protocols.sundial import SundialProtocol

            self._fallback = SundialProtocol(cluster)

    # -- protocol interface --------------------------------------------------------
    def run_transaction(self, server: "Server", txn: Transaction,
                        logic: Callable[[TxnContext], Generator]) -> Generator:
        if self._fallback is not None:
            # Read-heavy mostly-distributed fallback (§4.3): process every
            # transaction with the 2PC-based TicToc baseline instead of WCF.
            committed = yield from self._fallback.run_transaction(server, txn, logic)
            return committed
        # The commit timestamp is guaranteed to exceed the partition's current
        # timestamp floor (§5.1 R2), so that is a sound lower bound to register
        # for the watermark computation even before the first read happens.
        txn.lower_bound_ts = max(txn.lower_bound_ts, server.ts_floor + 1)
        server.active_txns.register(txn)
        try:
            committed = yield from super().run_transaction(server, txn, logic)
            return committed
        finally:
            server.active_txns.deregister(txn)

    # -- commit phase -----------------------------------------------------------------
    def commit(self, server: "Server", txn: Transaction, context: PrimoContext) -> Generator:
        if context.mode == LOCAL_MODE:
            return self._commit_local_mode(server, txn, context)
        return self._commit_distributed(server, txn, context)

    def _commit_local_mode(self, server: "Server", txn: Transaction,
                           context: PrimoContext) -> Generator:
        """TicToc: lock the write-set, validate the read-set, install, unlock.

        No CPU is charged for any of it (Sundial's single-partition path
        charges ``cpu_record_access_us`` × (|R| + |W|); ROADMAP finding (a)).
        """
        commit_start = self.env._now
        lock_manager = server.store.lock_manager
        records = context.records
        # (1) Lock the write-set in a deterministic order (WAIT_DIE keeps
        # this deadlock-free even against Primo's distributed transactions).
        refused = yield from lock_write_set(server, txn, in_key_order(txn.write_set), records)
        if refused is not None:
            raise TxnAborted(refused, "write-set locking")

        # (2) Compute the commit timestamp; ``ts_floor`` is read after the
        # lock waits (Sundial reads it before its own).
        commit_ts = compute_commit_ts(txn, server.ts_floor)
        txn.ts = commit_ts

        # (3) Validate the read-set, on the record handles the reads cached
        # (Sundial looks every key up again and fails on a deleted row).
        written = {(w.partition, w.table, w.key) for w in txn.write_set}
        for read in txn.read_set:
            key3 = (read.partition, read.table, read.key)
            record = records.get(key3)
            if record is None:
                continue
            if record.wts != read.wts:
                raise TxnAborted(AbortReason.VALIDATION, "read version changed")
            if key3 in written:
                continue  # already exclusively locked above, rts extension trivial
            if commit_ts <= record.rts:
                continue  # still inside the valid interval, nothing to do
            if lock_manager.locked_by_other(txn.tid, record):
                # Another transaction holds the record exclusively and we
                # need to extend rts: this is the (rare) abort Primo's
                # extra read locks can cause (§4.2.1).
                raise TxnAborted(AbortReason.VALIDATION, "rts extension blocked")
            record.extend_rts(commit_ts)

        # (4) Install writes and release (an abort releases in cleanup_abort).
        install_write_entries(server, txn, txn.write_set, commit_ts)
        server.note_ts(commit_ts)
        lock_manager.release_all(txn.tid)
        txn.add_breakdown("commit", self.env._now - commit_start)

    def _commit_distributed(self, server: "Server", txn: Transaction,
                            context: PrimoContext) -> Generator:
        """Distributed mode: no validation needed (Lines 16-32 of Algorithm 1)."""
        commit_start = self.env._now
        ts_start = self.env._now
        commit_ts = compute_commit_ts(txn, server.ts_floor)
        txn.ts = commit_ts
        txn.add_breakdown("timestamp", self.env._now - ts_start)

        lock_manager = server.store.lock_manager
        # Extend the valid interval of local reads so commit_ts fits.
        for entry in txn.reads_for_partition(server.partition_id):
            record = context.records.get((entry.partition, entry.table, entry.key))
            if record is not None:
                record.extend_rts(commit_ts)
        # Install local writes and release local locks immediately.
        local_writes = txn.writes_for_partition(server.partition_id)
        yield from self.cpu(self.config.cpu_record_access_us * max(1, len(local_writes)))
        install_write_entries(server, txn, local_writes, commit_ts)
        lock_manager.release_all(txn.tid)
        server.note_ts(commit_ts)

        # Log the commit decision at the coordinator.  While the log keeps
        # its history (a fault plan is set) the record also carries the
        # remote write-sets, so recovery can re-deliver writes whose one-way
        # commit message was lost when a participant crashed (see
        # RecoveryCoordinator._redeliver_lost_writes); nothing else reads it.
        if txn.participants:
            payload = None
            if server.log.retain_history:
                payload = {
                    partition: tuple([
                        (w.table, w.key, w.updates, w.is_insert, w.is_delete)
                        for w in txn.writes_for_partition(partition)
                    ])
                    for partition in txn.participants
                }
            server.log.append(LogRecordKind.COMMIT_DECISION, txn_ts=commit_ts, payload=payload)

        # Ship the remote write-sets (plus the read keys whose rts must be
        # extended) with one-way messages; no acknowledgement is awaited.
        for partition in sorted(txn.participants):
            writes = txn.writes_for_partition(partition)
            read_keys = [
                (entry.table, entry.key) for entry in txn.reads_for_partition(partition)
            ]
            self.network.send(
                server.partition_id,
                partition,
                self._participant_commit,
                partition,
                txn,
                commit_ts,
                writes,
                read_keys,
            )
        txn.add_breakdown("commit", self.env._now - commit_start)

    def _participant_commit(self, partition: int, txn: Transaction, commit_ts: float,
                            writes: list, read_keys: list) -> Generator:
        """Runs at a participant when the coordinator's write-set message arrives."""
        participant = self.server_of(partition)
        if participant.crashed:
            return
        yield from self.cpu(self.config.cpu_record_access_us * max(1, len(writes)))
        for table, key in read_keys:
            record = participant.store.table(table).get(key)
            if record is not None:
                record.extend_rts(commit_ts)
        install_write_entries(participant, txn, writes, commit_ts)
        participant.store.lock_manager.release_all(txn.tid)
        participant.active_txns.deregister(txn)
        participant.note_ts(commit_ts)

    # -- remote reads (participant side of the execution phase) ------------------------
    def remote_read(self, server: "Server", txn: Transaction, partition: int,
                    table: str, key) -> Generator:
        """Exclusive-lock the record at its partition and return its read entry."""
        target = self.server_of(partition)

        def handler() -> Generator:
            if target.crashed:
                return None
            record = target.store.table(table).get(key)
            if record is None:
                return None
            ok = target.store.lock_manager.acquire_nowait(
                txn.tid, record, LockMode.EXCLUSIVE
            )
            if type(ok) is not bool:
                ok = yield ok
            if not ok:
                return None
            # Watermark requirement R2 (§5.1): make sure the final commit
            # timestamp will exceed this partition's published watermark.
            floor = target.ts_floor
            if record.wts <= floor:
                record.wts = floor + 1
                record.rts = max(record.rts, floor + 1)
            entry = ReadEntry(
                partition, table, key, *record.read(), locked=True, local=False)
            target.active_txns.register(txn, lower_bound=entry.wts)
            return entry

        entry = yield from self.network.rpc(server.partition_id, partition, handler)
        if entry is None:
            raise TxnAborted(AbortReason.LOCK_CONFLICT, f"remote read {table}:{key}")
        return entry

    # -- abort handling -------------------------------------------------------------------
    def abort_participant(self, participant: "Server", txn: Transaction) -> None:
        super().abort_participant(participant, txn)
        participant.active_txns.deregister(txn)
