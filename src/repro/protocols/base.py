"""Protocol interface, the attempt skeleton and the helpers every protocol shares.

A protocol is instantiated once per cluster and is given the coordinating
server plus the transaction whenever the worker loop runs an attempt:

    outcome = yield from protocol.run_transaction(server, txn, logic)

``logic`` is the workload's transaction body (a generator taking a
:class:`~repro.txn.context.TxnContext`).  The returned outcome is ``True`` for
commit and ``False`` for abort; on abort ``txn.abort_reason`` says why, which
the worker uses to decide whether to retry.

``run_transaction`` is written once: execute the logic with the protocol's
context class, ``commit(server, txn, context)``, stamp the times; a
:class:`TxnAborted` anywhere lands in ``cleanup_abort``.  A protocol supplies
``commit`` (the 2PC family only its prepare work, :mod:`repro.protocols.two_pc`).

Also shared here:

* routing (which server owns a partition),
* the abort round (release locally, one-way ABORT to every participant),
* the write-set installer used by every protocol's commit phase (applies
  updates/inserts/deletes, bumps TicToc timestamps and appends the
  partition's write-set log record, with undo images only when a rollback
  can read them),
* the lock-free remote read of the optimistic protocols,
* commit-phase CPU cost accounting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Iterable

from ..storage.lock import LockPolicy
from ..storage.table import TableError
from ..txn.context import TxnContext
from ..txn.transaction import AbortReason, ReadEntry, Transaction, TxnAborted, WriteEntry

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.cluster import Cluster
    from ..cluster.server import Server

__all__ = ["BaseProtocol", "install_write_entries"]


def install_write_entries(server: "Server", txn: Transaction, entries: Iterable[WriteEntry],
                          commit_ts: float, log: bool = True) -> None:
    """Apply a transaction's buffered writes to one partition's storage.

    When ``log`` is true, appends the partition's write-set record so the
    durability scheme can persist it.  Only while the log keeps its history
    for the §5.2 rollback does the record carry a payload: the flat tuple
    ``(table, key, image, ...)`` of the rows' ``undo_image()`` before the
    install, ``None`` for an insert (layout: :mod:`repro.commit.logging`).
    Otherwise no row is copied and the record carries nothing.
    """
    entries = list(entries)
    undo_images = {} if log and server.log.retain_history else None
    for entry in entries:
        table = server.store.table(entry.table)
        if entry.is_insert:
            if undo_images is not None:
                undo_images[(entry.table, entry.key)] = None
            try:
                record = table.insert(entry.key, entry.updates)
            except TableError:
                # The record exists (e.g. a retried attempt already inserted
                # it); treat as an overwrite so retries stay idempotent.
                record = table.require(entry.key)
                record.install_fields(entry.updates, commit_ts)
                continue
            record.wts = commit_ts
            record.rts = commit_ts
        elif entry.is_delete:
            record = table.get(entry.key)
            if record is not None:
                if undo_images is not None:
                    undo_images[(entry.table, entry.key)] = record.undo_image()
                table.delete(entry.key)
        else:
            record = table.require(entry.key)
            if undo_images is not None:
                undo_images[(entry.table, entry.key)] = record.undo_image()
            record.install_fields(entry.updates, commit_ts)
    if log and entries:
        server.log.append_writeset(txn, undo_images)


class BaseProtocol:
    """Abstract protocol; subclasses supply the context class and ``commit``."""

    name = "base"
    #: Lock policy installed on every partition's lock manager.
    lock_policy = LockPolicy.WAIT_DIE
    #: Aria replaces the per-worker closed loop with its own batch runner.
    runs_own_loop = False

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.env = cluster.env
        self.config = cluster.config
        self.network = cluster.network

    # -- topology helpers ---------------------------------------------------
    def server_of(self, partition: int) -> "Server":
        return self.cluster.servers[partition]

    def cpu(self, duration_us: float) -> Generator:
        """Charge CPU time on the coordinator's critical path."""
        if duration_us > 0:
            yield self.env.timeout(duration_us)

    # -- execution-phase interface -------------------------------------------
    #: Context class handed to the workload logic (its hooks are the
    #: protocol's execution-phase behaviour, see :mod:`repro.txn.context`).
    context_class = TxnContext

    def create_context(self, server: "Server", txn: Transaction) -> TxnContext:
        return self.context_class(self, server, txn)

    def remote_read(self, server: "Server", txn: Transaction, partition: int,
                    table: str, key) -> Generator:
        """Lock-free snapshot read of a record on another partition (one RPC).

        Returns the finished :class:`ReadEntry`; protocols whose reads lock
        at the participant override this.
        """
        target = self.server_of(partition)

        def handler():
            if target.crashed:
                return None
            record = target.store.table(table).get(key)
            if record is None:
                return None
            return ReadEntry(partition, table, key, *record.read(), local=False)

        entry = yield from self.network.rpc(server.partition_id, partition, handler)
        if entry is None:
            raise TxnAborted(AbortReason.VALIDATION, f"remote read {table}:{key}")
        return entry

    # -- the attempt skeleton ------------------------------------------------------
    def run_transaction(self, server: "Server", txn: Transaction,
                        logic: Callable[[TxnContext], Generator]) -> Generator:
        """Run one attempt; returns True on commit, False on abort."""
        try:
            context = self.create_context(server, txn)
            cost = self.config.cpu_txn_logic_us
            if cost > 0:
                yield self.env.timeout(cost)
            yield from logic(context)
            txn.execute_end_time = self.env._now
            yield from self.commit(server, txn, context)
            txn.commit_end_time = self.env._now
            return True
        except TxnAborted as aborted:  # a UserAbort too: its reason is USER
            self.cleanup_abort(server, txn)
            if txn.abort_reason is None:
                txn.abort_reason = aborted.reason
            return False

    def commit(self, server: "Server", txn: Transaction, context: TxnContext) -> Generator:
        """The protocol's commit phase; raises :class:`TxnAborted` to abort."""
        raise NotImplementedError

    # -- the abort round ------------------------------------------------------------------
    def _abort(self, txn: Transaction, reason: AbortReason, detail: str = "") -> None:
        txn.abort_reason = reason
        raise TxnAborted(reason, detail)

    def cleanup_abort(self, server: "Server", txn: Transaction) -> None:
        """Release the coordinator's locks and send ABORT to every participant."""
        server.store.lock_manager.release_all(txn.tid)
        for partition in txn.participants:
            # One-way and a plain function: a generator handler would get its
            # own process (extra events).
            self.network.send(server.partition_id, partition,
                              self.abort_participant, self.server_of(partition), txn)

    def abort_participant(self, participant: "Server", txn: Transaction) -> None:
        participant.store.lock_manager.release_all(txn.tid)

    def release_locks_everywhere(self, txn: Transaction) -> None:
        """Best-effort lock release on every partition (abort/crash cleanup)."""
        for partition in txn.all_partitions():
            server = self.server_of(partition)
            # Kept bug-compatible: not abort_participant, so Primo's participant
            # registration leaks (ROADMAP "Found and still open", finding (c)).
            server.store.lock_manager.release_all(txn.tid)
