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

from typing import TYPE_CHECKING, Generator

from ..core.tictoc import lock_write_set
from ..storage.lock import LockMode, LockPolicy
from ..txn.context import TxnContext
from ..txn.transaction import (
    AbortReason,
    ReadEntry,
    Transaction,
    TxnAborted,
)
from ..registry import register_protocol
from .two_pc import TwoPhaseCommitProtocol

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.server import Server

__all__ = ["TwoPLNoWaitProtocol", "TwoPLWaitDieProtocol", "TwoPLContext"]


class TwoPLContext(TxnContext):
    """Execution-phase context: shared locks for reads, buffered writes."""

    local_lock = LockMode.SHARED


@register_protocol("2pl_nw", default_durability="coco",
                   description="2PL NO_WAIT + 2PC (Spanner-like)")
class TwoPLNoWaitProtocol(TwoPhaseCommitProtocol):
    """2PL with NO_WAIT deadlock prevention + 2PC."""

    name = "2pl_nw"
    lock_policy = LockPolicy.NO_WAIT

    context_class = TwoPLContext

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

    # -- 2PC prepare work: upgrade the write-set's locks to exclusive ---------------------
    def prepare_partition(self, server: "Server", txn: Transaction, writes: list,
                          reads: list, commit_ts, context=None) -> Generator:
        if context is not None:
            # The coordinator is not charged for the prepare and reuses the
            # record handles its reads cached; a participant pays and looks up.
            records = context.records
        else:
            yield from self.cpu(self.config.cpu_record_access_us * max(1, len(writes)))
            records = {}
        # Locked in write order, not in key order like the optimistic protocols.
        refused = yield from lock_write_set(server, txn, writes, records)
        return refused is None

    def commit_single_partition(self, server: "Server", txn: Transaction, context) -> Generator:
        # No fast path: a local transaction runs the rounds with no participant
        # (and logs a commit decision).
        return self.two_phase_commit(server, txn, context)


@register_protocol("2pl_wd", default_durability="coco",
                   description="2PL WAIT_DIE + 2PC")
class TwoPLWaitDieProtocol(TwoPLNoWaitProtocol):
    """2PL with WAIT_DIE deadlock prevention + 2PC."""

    name = "2pl_wd"
    lock_policy = LockPolicy.WAIT_DIE
