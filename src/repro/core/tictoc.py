"""TicToc optimistic concurrency control for *local* transactions.

Primo processes single-partition transactions with TicToc (§4.2): reads take
no locks and record the observed ``[wts, rts]`` interval (the shared
:meth:`~repro.txn.context.TxnContext.read` with no ``local_lock``); at commit
the write-set is locked, a commit timestamp is derived from the constraints

* ``ts >= wts`` of every record read,
* ``ts >  rts`` of every record written,

and the read-set is validated — a read is still valid if the commit timestamp
fits the record's (possibly extended) interval.  Extension of ``rts`` is what
makes the scheme robust to Primo's extra exclusive read locks: a lock held by
a distributed transaction only aborts a local transaction when the local
transaction *needs* to extend the record's ``rts`` (§4.2.1).

``compute_commit_ts`` is reused by the Sundial baseline, which is the
distributed 2PC-based variant of TicToc.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..storage.lock import LockMode
from ..storage.record import Record
from ..txn.transaction import AbortReason, Transaction, TxnAborted

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.server import Server

__all__ = ["compute_commit_ts", "TicTocLocalExecutor"]

_INSTALL_WRITE_ENTRIES = None


def _install_write_entries():
    """Resolve :func:`repro.protocols.base.install_write_entries` once.

    Importing ``protocols.base`` at module level would be circular (the
    protocols package imports the protocol modules, which import this one),
    and a per-commit ``from … import`` pays a ``sys.modules`` round trip on
    every transaction; resolving lazily into a module global does neither.
    """
    global _INSTALL_WRITE_ENTRIES
    if _INSTALL_WRITE_ENTRIES is None:
        from ..protocols.base import install_write_entries

        _INSTALL_WRITE_ENTRIES = install_write_entries
    return _INSTALL_WRITE_ENTRIES


def compute_commit_ts(txn: Transaction, ts_floor: float = 0.0) -> float:
    """Minimal logical timestamp satisfying TicToc's constraints (§4.2.1).

    ``ts_floor`` is the partition-watermark constraint of §5.1 (the commit
    timestamp must exceed the coordinator's current watermark so that the
    published watermark stays a lower bound for future transactions).
    """
    commit_ts = ts_floor + 1
    written = {(w.partition, w.table, w.key) for w in txn.write_set}
    for read in txn.read_set:
        commit_ts = max(commit_ts, read.wts)
        if (read.partition, read.table, read.key) in written:
            commit_ts = max(commit_ts, read.rts + 1)
    return commit_ts


class TicTocLocalExecutor:
    """Validation and installation for local (single-partition) transactions."""

    def __init__(self, server: "Server"):
        self.server = server
        self.env = server.env

    # -- commit phase ----------------------------------------------------------
    def validate_and_commit(self, txn: Transaction, records: dict) -> Generator:
        """Lock the write-set, validate the read-set, install writes, unlock.

        ``records`` maps ``(partition, table, key)`` to the :class:`Record`
        objects observed during execution.  Returns the commit timestamp, or
        raises :class:`TxnAborted` (after releasing any locks it took).
        """
        # Lazily bound once (not per commit): protocols.base imports this
        # module's helpers, so a top-level import would be circular.
        install_write_entries = _install_write_entries()
        lock_manager = self.server.store.lock_manager
        locked: list[Record] = []
        try:
            # (1) Lock the write-set in a deterministic order (WAIT_DIE keeps
            # this deadlock-free even against Primo's distributed transactions).
            for entry in sorted(txn.write_set, key=lambda w: (w.table, str(w.key))):
                record = records.get((entry.partition, entry.table, entry.key))
                if record is None:
                    record = self.server.store.table(entry.table).get(entry.key)
                    if record is None and entry.is_insert:
                        continue
                if record is None:
                    raise TxnAborted(AbortReason.VALIDATION, "write target vanished")
                ok = lock_manager.acquire_nowait(txn.tid, record, LockMode.EXCLUSIVE)
                if type(ok) is not bool:
                    ok = yield ok
                if not ok:
                    raise TxnAborted(AbortReason.LOCK_CONFLICT, "write lock")
                locked.append(record)

            # (2) Compute the commit timestamp (compute_commit_ts inlined so
            # the ``written`` key set is built once and shared with step 3).
            written = {(w.partition, w.table, w.key) for w in txn.write_set}
            commit_ts = self.server.ts_floor + 1
            for read in txn.read_set:
                if read.wts > commit_ts:
                    commit_ts = read.wts
                if (read.partition, read.table, read.key) in written:
                    bound = read.rts + 1
                    if bound > commit_ts:
                        commit_ts = bound
            txn.ts = commit_ts

            # (3) Validate the read-set.
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

            # (4) Install writes and release.
            install_write_entries(self.server, txn, txn.write_set, commit_ts)
            self.server.note_ts(commit_ts)
            return commit_ts
        finally:
            for record in locked:
                lock_manager.release(txn.tid, record)
