"""Silo-style OCC + 2PC (the distributed variant used in COCO).

Execution phase (the default :class:`~repro.txn.context.TxnContext`): reads
take no locks and record the observed version; writes are buffered.  Commit phase runs over 2PC: *prepare* locks the write-set
records (NO_WAIT style — a lock conflict votes NO) and validates the
partition's portion of the read-set (version unchanged and not locked by
another transaction); *commit* installs the writes and releases.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..core.tictoc import in_key_order, lock_write_set
from ..storage.lock import LockPolicy
from ..txn.transaction import AbortReason, Transaction
from ..registry import register_protocol
from .base import install_write_entries
from .two_pc import TwoPhaseCommitProtocol

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.server import Server

__all__ = ["SiloProtocol"]


@register_protocol("silo", default_durability="coco",
                   description="OCC (Silo) + 2PC, distributed variant from COCO")
class SiloProtocol(TwoPhaseCommitProtocol):
    name = "silo"
    lock_policy = LockPolicy.NO_WAIT

    def prepare_partition(self, server: "Server", txn: Transaction, writes: list,
                          reads: list, commit_ts, context=None) -> Generator:
        """Silo prepare work for one partition: lock writes, validate reads."""
        # {}: every write target is looked up again, at the coordinator too.
        refused = yield from lock_write_set(server, txn, in_key_order(writes), {})
        if refused is not None:
            return False
        lock_manager = server.store.lock_manager
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
    def commit_single_partition(self, server: "Server", txn: Transaction, context) -> Generator:
        commit_start = self.env.now
        ok = yield from self.prepare_partition(
            server, txn,
            txn.writes_for_partition(server.partition_id),
            txn.reads_for_partition(server.partition_id),
            commit_ts=None,
        )
        if not ok:
            self._abort(txn, AbortReason.VALIDATION, "silo local validation")
        # The shared fast path with one difference: the timestamp is picked
        # after validating, not before.
        commit_ts = server.highest_ts_seen + 1
        txn.ts = commit_ts
        install_write_entries(server, txn, txn.write_set, commit_ts)
        server.store.lock_manager.release_all(txn.tid)
        server.note_ts(commit_ts)
        txn.add_breakdown("commit", self.env.now - commit_start)
